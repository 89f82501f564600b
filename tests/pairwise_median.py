"""The pairwise median heuristic: the reference for ``median_bandwidth``.

:func:`pairwise_median_bandwidth` builds the whole m x m distance matrix of
the strided sample and partitions its upper triangle, so tests can require
:func:`ksib.kernel_ridge.median_bandwidth`, which selects the same order
statistic without that matrix, to return the same float.
"""

import numpy as np

from ksib.kernel_ridge import PAIR_CAP


def pairwise_median_bandwidth(us, cap=PAIR_CAP):
    us = np.asarray(us, dtype=float).ravel()
    n = us.size
    stride = 1
    while True:
        m = (n + stride - 1) // stride
        if m * (m - 1) // 2 <= cap or m <= 2:
            break
        stride += 1
    sub = us[::stride]
    diffs = np.abs(sub[:, None] - sub[None, :])
    dist = diffs[np.triu_indices(sub.size, k=1)]
    if float(dist.max()) == 0.0:
        return 1.0
    k = (dist.size - 1) // 2
    return float(np.partition(dist, k)[k])
