"""Record the values the benchmark's correctness checks compare against.

    python3 perfbench/record_reference.py

Runs the default-seed inputs of every workload at every scale serially,
with BLAS pinned to one thread, and rewrites reference.json.
Re-record only for a change to ksib that is meant to move these numbers,
and say in that change which numbers moved and why.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run


def main() -> int:
    run.set_blas_env()
    sys.path.insert(0, str(run.SRC))
    import workloads

    run.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=run.OUT)
    reference = {}
    try:
        for name in workloads.WORKLOADS:
            for scale in workloads.SCALES:
                workload = workloads.make_workload(
                    name, workloads.DEFAULT_SEED, scale, workdir)
                workload.setup()
                key = f"{name}/{scale}"
                reference[key] = workload.reference_values()
                print(f"recorded {key}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
