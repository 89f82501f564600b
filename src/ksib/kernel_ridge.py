"""IPW kernel ridge regression on the projected scalar index, dual form.

The regressor solves the weighted ridge problem

    minimize  sum_s w_s (y_s - f(u_s))^2  +  ridge * ||f||_K^2

in its dual representation.  With ``D = diag(sqrt(w))`` the stationarity
condition ``(W K + ridge I) c = W y`` is solved through the symmetric
similarity transform ``c = D (D K D + ridge I)^{-1} D y``; rows with zero
weight never enter the support (an arm's support only contains rounds where
it was pulled, so w_s > 0).

:func:`fit` is the one solver, shared by the policy's decisions and by the
inference snapshots.  It factors ``D K D`` greedily by a pivoted Cholesky
``L L^T`` of small rank r (the 1-D Gaussian kernel matrix has a
fast-decaying spectrum) and solves ``(ridge I + L L^T) z = D y`` through
Woodbury with an r x r Cholesky of ``ridge I + L^T L``, in O(n r^2) and with
no n x n array.  The :class:`KrrModel` keeps both factors and the fitted
values (``L L^T z = D y - ridge z`` gives ``K c = y - ridge z / sqrt(w)``),
so the plug-in covariance in :mod:`ksib.np_inference` studentizes through
the same Woodbury form without factoring anything again.

The factor stops growing once its residual trace is at most the larger of
an exact-arithmetic tolerance, which keeps predictions and leverages within
``PREDICTION_TOL`` of the dense solve's, and the round-off floor ``n eps
max_s w_s k(u_s, u_s)`` below which the computed residual is noise (the
default tolerance of LAPACK's ``dpstrf``).  Each model carries ``bound``:
the computed trace plus a round-off term in r, n, eps and the largest
weight, scaled by the ridge, which bounds how far its predictions and
leverages lie from the exact dense solve's in floating point.

A fit may be warm-started with ``pivots``, support indices to try first: the
policy passes the pivots of the arm's previous fit, since a support that has
gained a few rows needs nearly the same pivots.  Their columns come from one
kernel block through LAPACK (``dpstrf`` on its hint columns, one triangular
solve for the panel of the kept ones) instead of one greedy step per column;
the greedy loop then continues to the same stopping rule, so the certificate
is unchanged and only the factor's round-off differs.  Inference snapshots
never pass a hint: a snapshot then depends on the log alone, and replaying
an audit log reproduces it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf, dpotrs, dpstrf

from .errors import DomainError

DEFAULT_ZETA = 0.05
PAIR_CAP = 200_000
# median_bandwidth guesses its bracket from the pairs of PILOT points and
# narrows it until it holds at most GATHER_BASE + GATHER_PER_ROW * m pairs,
# about as many as one more count of m points costs to gather
PILOT = 64
GATHER_BASE = 4096
GATHER_PER_ROW = 16
# the low-rank factor's error: |f_exact(v) - f(v)| and the leverages'
# |(1 - h_s)_exact - (1 - h_s)| stay below this in exact arithmetic, unless
# the round-off floor below lifts the stopping tolerance
PREDICTION_TOL = 1e-10
# the residual trace is resolved no finer than TRACE_FLOOR * n * eps * the
# largest diagonal entry w_s k(u_s, u_s), the form of LAPACK's own dpstrf
# default.  Against the dense solve on policy supports (n = 95..2886), the
# leverages stay within 1.0e-12 at 1, but reach 2.7e-11 at 4 and 3.4e-10
# at 64; predictions stay within 8.4e-13 at 1
TRACE_FLOOR = 1.0
# largest accepted round-off estimate eps * sum(w) / ridge of the Woodbury
# solve, which divides a cancelled difference by the ridge; default-schedule
# fits sit near 1e-11 even at t = 1e4
ROUNDOFF_TOL = 1e-5
# hinted pivots are taken while every multiplier |L_sj| / L_jj of the factor
# stays within this bound, which caps the round-off they can amplify
HINT_GROWTH = 32.0
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class GaussianKernel:
    """RBF kernel ``k(u, v) = exp(-(u - v)^2 / (2 bandwidth^2))``; k(u,u)=1."""

    bandwidth: float

    def __post_init__(self):
        if not (self.bandwidth > 0):
            raise DomainError(f"bandwidth must be positive, got {self.bandwidth}")

    def __call__(self, u, v):
        u = np.asarray(u, dtype=float)
        # a float point (np.float64 is one) skips the conversion, not the arithmetic
        v = v if isinstance(v, float) else np.asarray(v, dtype=float)
        diff = (np.subtract.outer(u, v) if (u.ndim and getattr(v, "ndim", 0))
                else np.asarray(u - v))
        # exp(-0.5 * (diff / bandwidth) ** 2), evaluated inside one buffer
        np.divide(diff, self.bandwidth, out=diff)
        np.square(diff, out=diff)
        np.multiply(-0.5, diff, out=diff)
        return np.exp(diff, out=diff)[()]   # [()]: a 0-d result as a scalar

    def gram(self, u):
        return self(u, u)

    def diag(self, u):
        """``k(u_s, u_s)`` for each point: ones."""
        return np.ones(np.shape(u))


def _pair_ends(padded, d):
    """``ends[i] = #{j : fl(s_j - s_i) <= d}`` for sorted finite ``s``,
    given as ``padded = [nan, *s, nan]``.

    ``fl(s_j - s_i)`` is monotone in ``j``, so the set is a prefix of ``s``.
    ``searchsorted(s, s + d)`` finds its end by value; where ``fl(s_i + d)``
    rounded across the boundary, the end moves over the whole tie group of
    the misplaced neighbour until both neighbours agree with ``d`` (a NaN
    pad, past either end, agrees with every ``d``).
    """
    s = padded[1:-1]
    ends = np.searchsorted(s, s + d, side="right")
    while True:
        before, at = padded[ends], padded[ends + 1]
        down = before - s > d
        up = at - s <= d
        if not (down.any() or up.any()):
            return ends
        ends[down] = np.searchsorted(s, before[down], side="left")
        ends[up] = np.searchsorted(s, at[up], side="right")


def median_bandwidth(us, cap: int = PAIR_CAP) -> float:
    """Lower median of pairwise absolute distances.

    When the full pair count exceeds ``cap`` the points are subsampled with
    a deterministic stride so the result is reproducible.  The stride no
    longer saves time, but it defines the value, so it stays.  Degenerate
    all-equal inputs fall back to 1.0; NaN or infinite points raise
    :class:`DomainError`.

    The median is selected exactly, with no m x m array.  On the sorted
    sample ``s`` the distances are the M = m(m-1)/2 differences
    ``fl(s_j - s_i)``, j > i: the same subtractions as ``|fl(a - b)|`` in
    input order, since ``fl(a - b) = -fl(b - a)``.  :func:`_pair_ends`
    counts those at most ``d`` exactly in O(m log m).  The sorted pair
    differences of at most ``PILOT`` strided points supply the values
    ``d``: two guesses around rank ``k = (M - 1) // 2``, then bisection,
    until the exact counts bracket ``k`` with at most ``GATHER_BASE +
    GATHER_PER_ROW * m`` pairs (or the pilot has no value in between).
    Only the differences inside that bracket are gathered and partitioned;
    a small sample is gathered whole.
    Croux & Rousseeuw (1992) and Johnson & Mizoguchi (1978) select this
    order statistic in O(m log m) outright; at m <= 632, the most the
    default cap leaves unstrided, counting and gathering cost about the
    same.
    """
    us = np.asarray(us, dtype=float).ravel()
    n = us.size
    if n < 2:
        raise DomainError("median_bandwidth needs at least 2 points")
    if not np.isfinite(us).all():
        raise DomainError("median_bandwidth needs finite points")
    stride = 1
    while True:
        m = (n + stride - 1) // stride
        if m * (m - 1) // 2 <= cap or m <= 2:
            break
        stride += 1
    s = np.sort(us[::stride])
    if s[-1] == s[0]:
        return 1.0
    pairs = m * (m - 1) // 2
    k = (pairs - 1) // 2
    first = np.arange(1, m + 1)   # pair (i, j) needs j > i
    base = m * (m + 1) // 2
    padded = np.concatenate(([np.nan], s, [np.nan]))

    def upto(d):
        ends = np.maximum(_pair_ends(padded, d), first)
        return ends, int(ends.sum()) - base

    # the pilot's pair differences are the top P(P-1)/2 entries of its
    # sorted outer difference; -inf and inf stand for the counts 0 and M
    p = s[::-(-m // PILOT)]
    pilot = np.sort(np.subtract.outer(p, p), axis=None)
    pilot = pilot[p.size * (p.size + 1) // 2 - 1:]
    pilot[0] = -np.inf
    pilot = np.append(pilot, np.inf)
    centre = 1 + k * (pilot.size - 3) // max(pairs - 1, 1)
    probes = [centre + p.size, centre - p.size]
    a, b, lo, hi, n_lo, n_hi = 0, pilot.size - 1, first, np.full(m, m), 0, pairs
    budget = GATHER_BASE + GATHER_PER_ROW * m
    while n_hi - n_lo > budget and b - a > 1:
        at = probes.pop() if probes else (a + b) // 2
        if not a < at < b:
            continue
        ends, count = upto(pilot[at])
        if count <= k:
            a, lo, n_lo = at, ends, count
        else:
            b, hi, n_hi = at, ends, count
    if n_hi - n_lo > budget and b < pilot.size - 1:
        # rank k lies in (pilot[a], pilot[b]], and too many pairs tie at
        # pilot[b] to gather: it is the answer when at most k pairs lie
        # below it, and otherwise only the pairs strictly below it are gathered
        hi, n_hi = upto(np.nextafter(pilot[b], -np.inf))
        if n_hi <= k:
            return abs(float(pilot[b]))
    lengths = hi - lo
    offsets = np.cumsum(lengths) - lengths
    cols = np.arange(n_hi - n_lo) + np.repeat(lo - offsets, lengths)
    diffs = s[cols] - np.repeat(s, lengths)
    r = k - n_lo
    return abs(float(np.partition(diffs, r)[r]))   # abs: -0.0 - 0.0 is -0.0


def ridge_schedule(t: int, zeta: float = DEFAULT_ZETA) -> float:
    """Decaying ridge level ``t^(-zeta)``."""
    if t < 1:
        raise DomainError("ridge_schedule requires t >= 1")
    return float(t) ** (-zeta)


@dataclass
class KrrModel:
    """Fitted dual-form weighted kernel ridge regressor.

    ``factor`` is ``L^T`` (r x n), the pivoted-Cholesky factor of ``D K D``;
    ``inner`` is the ``(c, lower)`` Cholesky pair of the r x r matrix
    ``ridge I + L^T L``; ``fitted`` are the in-sample values ``K c``;
    ``pivots`` are the r support indices the factor pivoted on, in order;
    ``bound`` bounds how far the predictions and the leverages ``1 - h_s``
    may lie from the exact dense solve's, round-off included (see
    :func:`fit`).
    """

    support_u: np.ndarray
    support_y: np.ndarray
    support_w: np.ndarray
    dual_coeffs: np.ndarray
    ridge: float          # the dual system's ridge, as passed to fit()
    kernel: GaussianKernel
    factor: np.ndarray
    inner: tuple
    fitted: np.ndarray
    pivots: np.ndarray
    bound: float

    @property
    def n_support(self) -> int:
        return self.support_u.size

    @property
    def rank(self) -> int:
        """Number of pivoted-Cholesky columns the solve used."""
        return self.factor.shape[0]

    def predict(self, u):
        """Evaluate ``sum_s k(u_s, u) c_s`` at one point or an array."""
        k = self.kernel(self.support_u, u)
        return k.T @ self.dual_coeffs if k.ndim == 2 else float(k @ self.dual_coeffs)


def fit(support_u, support_y, support_w, ridge: float, kernel: GaussianKernel,
        pivots=()) -> KrrModel:
    """Fit the weighted dual system through a pivoted Cholesky factor.

    ``ridge`` is the dual system's ridge as it stands; the bandit passes
    ``ridge_schedule(t, zeta)`` at round ``t``.

    ``A = D K D`` is factored greedily as ``L L^T``: each step pivots on the
    largest entry of the residual diagonal ``diag(A - L L^T)`` (which
    starts at ``w k(u, u)``) and takes its column from the kernel.  With
    ``s = sqrt(sum w) |D y|``, the factor stops growing once the residual
    trace ``tau`` is at most

        tol = max(PREDICTION_TOL * ridge^2 / max(s, ridge),
                  TRACE_FLOOR * n * eps * max_s A_ss).

    The second term is the round-off floor: each computed residual entry
    carries an error of order ``eps`` times the diagonal, so a trace below
    ``n eps max A_ss`` is noise, and pivoting on it only adds columns.

    ``KrrModel.bound`` certifies the result.  For any symmetric ``E = A -
    L L^T``, ``|z - z_exact| <= |E| |D y| / ridge^2`` keeps every
    prediction ``k_v^T D z`` within ``|E| s / ridge^2`` of the exact fit's,
    and the inverse ``(ridge I + L L^T)^{-1}`` is within ``|E| / ridge^2``
    of the exact one, which keeps the leverages ``1 - h_s`` within
    ``|E| / ridge``.  So

        bound = (tau + 4 (r + 1) n eps max_s A_ss) * max(s, ridge) / ridge^2

    bounds both.  ``tau`` is the computed trace at the stop, the
    exact-arithmetic part: ``E`` is then semidefinite with norm at most
    ``tau``, and that part is at most ``PREDICTION_TOL`` unless the floor
    lifted the tolerance.  The second term is the round-off of the computed
    factor: the backward error of a partial Cholesky factorization
    (Higham 1990), ``2 (r + 1) n eps max A_ss`` to first order, doubled for
    the kernel entries' rounding and the Woodbury solve.  At r = n, ``tau``
    is 0.  The r x r system is factored by LAPACK's ``dpotrf`` and solved by
    ``dpotrs``, the routines ``cho_factor``/``cho_solve`` wrap, called
    directly to save their per-call cost; a failed factorization raises
    ``LinAlgError``.

    ``pivots`` warm-starts the factor with support indices to try first
    (repeats are ignored).  One kernel block ``D_P K[P, :] D`` serves the
    hints: LAPACK's ``dpstrf`` factors its m x m columns P (greedy within
    P, dropping near-dependent hints at its default tolerance), and one
    ``dtrsm`` against its rows Q for the kept pivots gives the rank-k panel
    of ``L``.  A hint need not hold the largest residuals, so the panel is
    cut before the first pivot whose multipliers ``|L_sj| / L_jj`` exceed
    ``HINT_GROWTH``; without the cut, a hint such as two close points among
    heavier ones would leave a panel whose round-off hides the residual.
    The greedy loop then continues from the residual diagonal until the
    same stopping rule holds, so the bound above holds for any hint.  An
    empty hint is the cold start, bit for bit.  Only the policy passes one;
    inference snapshots stay cold, so they depend on the log alone.

    Raises :class:`DomainError` when ``eps * sum(w) / ridge`` exceeds
    ``ROUNDOFF_TOL``: the Woodbury solve then loses about that much of the
    answer to round-off.
    """
    u = np.asarray(support_u, dtype=float).ravel()
    y = np.asarray(support_y, dtype=float).ravel()
    w = np.asarray(support_w, dtype=float).ravel()
    n = u.size
    if n == 0:
        raise DomainError("empty support")
    if n != y.size or n != w.size:
        raise DomainError("support arrays must share a length")
    if not (w > 0).all():
        raise DomainError("support weights must be positive; drop zero-weight rows")
    if not (ridge > 0):
        raise DomainError("ridge must be positive")
    w_sum = float(w.sum())
    roundoff = EPS * w_sum / ridge
    if not (roundoff <= ROUNDOFF_TOL):
        raise DomainError(f"ridge {ridge:.3g} too small for weights summing to "
                          f"{w_sum:.3g}: round-off estimate {roundoff:.2g} "
                          f"exceeds {ROUNDOFF_TOL:g}")
    sqrt_w = np.sqrt(w)
    rhs = sqrt_w * y
    scale = math.sqrt(w_sum) * math.sqrt(rhs.dot(rhs))   # |D y| as np.linalg.norm
    resid = w * kernel.diag(u)
    diag_max = float(resid.max())
    # the exact-arithmetic tolerance, floored at the residual's round-off
    tol = max(PREDICTION_TOL * ridge * ridge / max(scale, ridge),
              TRACE_FLOOR * n * EPS * diag_max)
    hint = np.asarray(pivots, dtype=np.intp)
    order = np.empty(n, dtype=np.intp)   # the pivots, in order
    rank = 0
    if hint.size:
        hint = np.unique(hint)
        if not (0 <= hint[0] and hint[-1] < n):
            raise DomainError(f"pivots must index the support of size {n}")
        # one block D_P K[P, :] D: dpstrf factors its columns P, and the
        # rows of the rank pivots Q it keeps give the panel
        block = kernel(u[hint], u)
        block *= sqrt_w[hint, None]
        block *= sqrt_w
        c, piv, rank, _ = dpstrf(block[:, hint], lower=1)
        order[:rank] = hint[piv[:rank] - 1]
    lt = np.empty((min(n, rank + 32), n))   # L^T: row j is column j of L
    if rank:
        # the panel solves X L11^T = D K[:, Q] D_Q for the n x rank block X
        lt[:rank] = dtrsm(1.0, c[:rank, :rank], block[piv[:rank] - 1].T, side=1,
                          lower=1, trans_a=1, overwrite_b=1).T
        # keep the longest prefix whose multipliers |L_sj| / L_jj stay within
        # HINT_GROWTH; the greedy rule keeps them within 1
        growth = np.abs(lt[:rank]).max(axis=1)
        bad = np.flatnonzero(growth > HINT_GROWTH * np.diag(c)[:rank])
        rank = int(bad[0]) if bad.size else rank
        resid -= np.einsum("ij,ij->j", lt[:rank], lt[:rank])
        np.maximum(resid, 0.0, out=resid)
        resid[order[:rank]] = 0.0
    trace = resid.sum()
    while rank < n and trace > tol:
        if rank == lt.shape[0]:
            lt = np.concatenate([lt, np.empty((min(n, 2 * rank) - rank, n))])
        i = int(resid.argmax())
        col = kernel(u, u[i])
        col *= sqrt_w * sqrt_w[i]
        if rank:   # at rank 0 the product is 0.0 and leaves col as it is
            col -= lt[:rank].T @ lt[:rank, i]
        col /= math.sqrt(resid[i])
        lt[rank] = col
        order[rank] = i
        resid -= col * col
        np.maximum(resid, 0.0, out=resid)
        resid[i] = 0.0
        rank += 1
        trace = resid.sum()
    lt = lt[:rank]
    inner = lt @ lt.T
    inner.flat[::rank + 1] += ridge
    c, info = dpotrf(inner, lower=1, clean=0, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    coef = dpotrs(c, lt @ rhs, lower=1)[0] if rank else np.empty(0)
    z = (rhs - lt.T @ coef) / ridge
    # the computed factor is exact for D K D + dA with |dA_st| <= 2 (r + 1)
    # eps max_s A_ss to first order (Higham 1990), so |dA| <= 2 (r + 1) n
    # eps max_s A_ss; the kernel entries' rounding and the Woodbury solve
    # stay within as much again
    err = trace + 4 * (rank + 1) * n * EPS * diag_max
    return KrrModel(u, y, w, sqrt_w * z, ridge, kernel, lt, (c, True),
                    y - ridge * z / sqrt_w, order[:rank].copy(),
                    err * max(scale, ridge) / (ridge * ridge))
