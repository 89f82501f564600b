"""Suite-wide setup: pin BLAS to one thread before any test module loads
numpy.

The acceptance studies run their replications in a process pool, one
worker per core, and an OpenBLAS that starts a thread per core in each
worker oversubscribes the machine.  ``setdefault`` keeps a count the
environment already sets.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
