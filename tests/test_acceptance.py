"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE n [PASS|FAIL]`` line (run with ``-s`` to
see them live).  Criteria 1-4 consume two full replication studies
(N=100 trajectories each, T=1000); on one core these take a few minutes
combined.

Four checks are expected to fail and are left failing deliberately:
the joint directional coverage band (criterion 1), the late-time band in
the hard regime (2b), the CLT-interval coverage band (3a) and the
band/CLT length ratio (3c).  Their causes differ:

- 1 and 2b: the inverse-propensity weights reach 1/p ~ 200 under the
  prescribed exploration schedule, a handful of exploration pulls
  dominate every influence sum, and the ellipsoid's studentized statistic
  is heavy-tailed at T=1000 (in the hard regime the direction's estimated
  covariance ``v_dir`` is 2-4 times smaller than the Monte-Carlo error).  The same estimator and
  ellipsoid reach nominal coverage with i.i.d. contexts and a fixed
  moderate propensity (TestParametricMachinerySanity below).
- 3a: not the weights but the estimated index direction.  A pilot that
  put the true direction in place of the estimate, with the same weights,
  ridge and bandwidth rule, covered 0.90-0.965; the link interval does
  not carry the direction's error.  The interval itself reaches nominal
  coverage on i.i.d. data
  (tests/test_np_inference.py::TestPointwiseCi::test_iid_coverage_near_nominal).
- 3c: the band's half-width is a closed form that reads the data only
  through r_tilde, so it sits far above the CLT interval.

Every test here carries the ``slow`` marker: ``pytest -m "not slow"`` runs
the rest of the suite as a fast inner loop.
"""

import hashlib
import json
import os
import time

import numpy as np
import pytest

from ksib import index_inference as ii
from ksib import np_inference as npi
from ksib.environment import link_pair
from ksib.harness import (Scenario, aggregate, calibrated_band_ratio, export,
                          inference_snapshot, np_cis_at, run_replication,
                          run_trajectory)
from ksib.index_estimation import IndexAccumulator, estimate_from_arrays
from ksib.kernel_ridge import GaussianKernel, fit
from ksib.numerics import Rng, chi2_quantile, min_eigenvalue, normal_quantile

pytestmark = pytest.mark.slow

EASY = Scenario(d=2, sigma=0.05, reps=100, seed=0)
HARD = Scenario(d=5, sigma=0.20, reps=100, seed=0)
LATE_TIMES = (542, 657, 771, 885, 999)
EARLY_TIMES = (200, 314, 428)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {detail}")


@pytest.fixture(scope="module")
def easy_table():
    t0 = time.time()
    records = [run_replication(EASY, r) for r in range(EASY.reps)]
    table = aggregate(records, EASY)
    print(f"[easy scenario: {EASY.reps} reps in {time.time() - t0:.0f}s]")
    assert table.diagnostics["failed"] <= 5
    return table


@pytest.fixture(scope="module")
def hard_table():
    t0 = time.time()
    records = [run_replication(HARD, r) for r in range(HARD.reps)]
    table = aggregate(records, HARD)
    print(f"[hard scenario: {HARD.reps} reps in {time.time() - t0:.0f}s]")
    assert table.diagnostics["failed"] <= 5
    return table


class TestCriterion1:
    def test_parametric_joint_coverage_easy(self, easy_table):
        rates = {t: easy_table.coverage_rate("param_joint", t)
                 for t in LATE_TIMES}
        ok = all(0.80 <= r <= 1.00 for r in rates.values())
        report(1, ok, f"easy-regime joint coverage at late times: "
                      f"{ {t: round(r, 3) for t, r in rates.items()} } "
                      f"required [0.80, 1.00]")
        assert ok, (
            f"joint coverage {rates} outside [0.80, 1.00]; the IPW "
            "studentization is heavy-tailed at this exploration schedule "
            "(verified against a non-adaptive oracle reproduction)")


class TestCriterion2:
    def test_hard_regime_early_undercovers(self, hard_table):
        rates = {t: hard_table.coverage_rate("param_joint", t)
                 for t in EARLY_TIMES}
        ok = all(r < 0.60 for r in rates.values())
        report("2a", ok, f"hard-regime early joint coverage "
                         f"{ {t: round(r, 3) for t, r in rates.items()} } "
                         f"required < 0.60")
        assert ok

    def test_hard_regime_late_band(self, hard_table):
        rate = hard_table.coverage_rate("param_joint", 999)
        ok = 0.45 <= rate <= 0.90
        report("2b", ok, f"hard-regime joint coverage at t=999: {rate:.3f} "
                         f"required [0.45, 0.90]")
        assert ok, (
            f"late hard-regime coverage {rate:.3f} below 0.45; same "
            "root cause as criterion 1, amplified by d=5 and sigma=0.20")


class TestCriterion3:
    def test_clt_interval_coverage(self, easy_table):
        rates = {t: easy_table.coverage_rate("np_KSIEGE", t)
                 for t in EASY.inference_times}
        ok = all(0.88 <= r <= 1.00 for r in rates.values())
        report("3a", ok, f"CLT pointwise coverage "
                         f"{ {t: round(r, 3) for t, r in rates.items()} } "
                         f"required [0.88, 1.00]")
        assert ok, (
            f"CLT interval coverage {rates} below 0.88: index-direction "
            "noise (itself of order sqrt(r_tilde)) propagates into the "
            "link evaluation and dominates the width at these schedules")

    def test_band_interval_conservative(self, easy_table):
        rates = {t: easy_table.coverage_rate("np_AS", t)
                 for t in EASY.inference_times}
        ok = all(r >= 0.98 for r in rates.values())
        report("3b", ok, f"uniform-band coverage (c_const=1.0) min "
                         f"{min(rates.values()):.3f} required >= 0.98")
        assert ok

    def test_length_ratio(self, easy_table):
        ratio = (easy_table.mean_length("AS", 999)
                 / easy_table.mean_length("KSIEGE", 999))
        c_star, info = calibrated_band_ratio(easy_table.pointwise_rows,
                                             200, 999)
        ok = 2.0 <= ratio <= 6.0
        report("3c", ok, f"AS/KSIEGE mean length ratio at t=999: "
                         f"{ratio:.1f} at c_const=1.0 required [2, 6] "
                         f"(coverage-calibrated constant c*={c_star:.3f} "
                         f"gives ratio {info['ratio']:.1f})")
        assert ok, (
            f"length ratio {ratio:.1f} at c_const=1.0; the band's absolute "
            "scale with a unit constant sits far above the CLT interval")


class TestCriterion4:
    def test_regret_decays_easy(self, easy_table):
        early, late = easy_table.avg_regret(200), easy_table.avg_regret(999)
        ok = late <= 0.7 * early
        report("4", ok, f"easy avg regret {early:.4f} -> {late:.4f} "
                        f"(ratio {late / early:.2f}, required <= 0.7)")
        assert ok

    def test_regret_decays_hard(self, hard_table):
        early, late = hard_table.avg_regret(200), hard_table.avg_regret(999)
        ok = late <= 0.7 * early
        report("4", ok, f"hard avg regret {early:.4f} -> {late:.4f} "
                        f"(ratio {late / early:.2f}, required <= 0.7)")
        assert ok


class TestCriterion5:
    def test_offline_direction_recovery(self):
        t0 = time.time()
        rng = Rng(55)
        d, n = 5, 5000
        beta = rng.normal(d)
        beta /= np.linalg.norm(beta)
        xs = rng.normal((n, d))
        ys = np.tanh(xs @ beta) + 0.05 * rng.normal(n)
        est = estimate_from_arrays(xs, ys, np.ones(n, bool), np.ones(n), 0.0)
        cosine = abs(float(est.direction @ beta))
        ok = cosine >= 0.98
        report(5, ok, f"offline recovery |cos|={cosine:.4f} required >= 0.98 "
                      f"({time.time() - t0:.1f}s)")
        assert ok


class TestCriterion6:
    def test_ipw_moment_unbiased(self):
        t0 = time.time()
        rng = Rng(66)
        beta = np.array([1.0, -0.5])
        p, t, reps = 0.3, 50, 10_000
        xs = rng.normal((reps, t, 2))
        noise = rng.normal((reps, t))
        pulls = rng.normal((reps, t)) < normal_quantile(p)
        ys = xs @ beta + 0.1 * noise
        weighted = (pulls / p)[:, :, None] * xs * ys[:, :, None]
        moments = weighted.mean(axis=1)
        # bridge check: the vectorized moment equals the accumulator's, which
        # folds in the pulled rounds only and is divided by all t rounds
        for rep in range(3):
            acc = IndexAccumulator(2)
            for s in np.flatnonzero(pulls[rep]):
                acc.observe(xs[rep, s], ys[rep, s], p)
            np.testing.assert_allclose(acc.sum_moment / t, moments[rep],
                                       rtol=1e-10)
        se = moments.std(axis=0, ddof=1) / np.sqrt(reps)
        gap = np.abs(moments.mean(axis=0) - beta)
        ok = bool(np.all(gap <= 3 * se))
        report(6, ok, f"IPW moment bias {gap.round(5).tolist()} vs 3*SE "
                      f"{(3 * se).round(5).tolist()} ({time.time() - t0:.1f}s)")
        assert ok


class TestCriterion7:
    def test_uniform_weight_reduction(self):
        rng = np.random.default_rng(77)
        kernel = GaussianKernel(0.9)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 21))
            u = rng.normal(size=n)
            y = rng.normal(size=n)
            lam = float(rng.uniform(0.01, 1.0))
            m = fit(u, y, np.ones(n), lam * n, kernel)
            classical = np.linalg.solve(kernel.gram(u) + n * lam * np.eye(n), y)
            worst = max(worst, float(np.max(np.abs(m.dual_coeffs - classical))))
        ok = worst <= 1e-10
        report("7a", ok, f"uniform-weight reduction max gap {worst:.2e} "
                         f"required <= 1e-10")
        assert ok

    def test_primal_oracle(self):
        class LinKernel:
            bandwidth = 1.0

            def __call__(self, u, v):
                u, v = np.asarray(u, float), np.asarray(v, float)
                if u.ndim and v.ndim:
                    return 1.0 + np.multiply.outer(u, v)
                return 1.0 + u * v

            def gram(self, u):
                return self(u, u)

            def diag(self, u):
                return 1.0 + np.square(u)

        rng = np.random.default_rng(78)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 7))
            u = rng.normal(size=n)
            y = rng.normal(size=n)
            w = rng.uniform(0.5, 20.0, size=n)
            lam = float(rng.uniform(0.05, 1.0))
            m = fit(u, y, w, lam * n, LinKernel())
            phi = np.column_stack([np.ones(n), u])
            theta = np.linalg.solve(phi.T @ (w[:, None] * phi)
                                    + lam * n * np.eye(2), phi.T @ (w * y))
            xs = rng.normal(size=4)
            gap = np.abs(m.predict(xs)
                         - np.column_stack([np.ones(4), xs]) @ theta)
            worst = max(worst, float(gap.max()))
        ok = worst <= 1e-8
        report("7b", ok, f"primal-oracle max gap {worst:.2e} required <= 1e-8")
        assert ok


class TestCriterion8:
    def test_studentizer_identities(self):
        t0 = time.time()
        rng = np.random.default_rng(88)
        ok_null = ok_psd = ok_d2 = ok_alpha = True
        for _ in range(1000):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d + 1, 16))
            feats = rng.normal(size=(n, d))
            ys = rng.normal(size=n)
            weights = rng.uniform(1.0, 15.0, size=n)
            beta = rng.normal(size=d)
            gram = np.eye(d)
            t = int(rng.integers(n, 300))
            truth = rng.normal(size=d)
            truth /= np.linalg.norm(truth)
            decisions = []
            for alpha in (0.25, 0.5):
                infl = ii.build_influence(feats, ys, weights, beta, gram,
                                          alpha, t)
                vb = ii.v_beta(infl)
                rep = ii.directional_report(beta, vb, t, alpha, 0.05)
                decisions.append(ii.ellipsoid_covers(rep, truth))
                if alpha == 0.5:
                    b = beta / np.linalg.norm(beta)
                    ok_null &= abs(b @ rep.v_dir @ b) <= \
                        1e-12 * max(np.trace(rep.v_dir), 1e-300)
                    ok_psd &= min_eigenvalue(vb) >= -1e-10
            ok_alpha &= decisions[0] == decisions[1]
        for _ in range(200):
            n = int(rng.integers(2, 12))
            m = fit(rng.normal(size=n), rng.normal(size=n),
                    rng.uniform(1, 10, size=n),
                    float(rng.uniform(0.05, 1.0)) * n, GaussianKernel(1.0))
            cov = npi.build_covariance(m, 0.5, residual_mode="raw")
            for u in rng.normal(size=5):
                ok_d2 &= cov.d2(float(u)) >= -1e-12
        ok = ok_null and ok_psd and ok_d2 and ok_alpha
        report(8, ok, f"null-space {ok_null}, PSD {ok_psd}, D2>=0 {ok_d2}, "
                      f"alpha-invariance {ok_alpha} ({time.time() - t0:.1f}s)")
        assert ok


class TestCriterion9:
    def test_quantile_accuracy(self):
        z = normal_quantile(0.975)
        c1 = chi2_quantile(0.95, 1)
        c4 = chi2_quantile(0.95, 4)
        ok = (abs(z - 1.959964) <= 1e-6 and abs(c1 - 3.841459) <= 1e-4
              and abs(c4 - 9.487729) <= 1e-4)
        report(9, ok, f"z={z:.7f}, chi2(1)={c1:.6f}, chi2(4)={c4:.6f}")
        assert ok


class TestCriterion10:
    TINY = dict(T=140, T0=20, reps=3, inference_times=(60, 100, 139),
                d=2, sigma=0.05, seed=9)

    @staticmethod
    def _digest(path):
        digest = hashlib.sha256()
        for name in sorted(os.listdir(path)):
            digest.update(name.encode())
            with open(os.path.join(path, name), "rb") as fh:
                digest.update(fh.read())
        return digest.hexdigest()

    def test_determinism_and_replay(self, tmp_path):
        t0 = time.time()
        sc = Scenario(**self.TINY)
        digests = []
        for run in ("a", "b"):
            records = [run_replication(sc, r) for r in range(sc.reps)]
            out = tmp_path / run
            export(aggregate(records, sc), str(out))
            digests.append(self._digest(out))
        ok_hash = digests[0] == digests[1]

        # offline replay: recompute one rep's inference from its log alone
        from ksib.harness import TrajectoryLog
        from ksib.cli import read_audit, _write_audit
        log, _, _, _ = run_trajectory(sc, 0)
        path = tmp_path / "audit.csv"
        _write_audit(log, str(path), sc)
        replayed = read_audit(str(path))
        ok_replay = True
        for t in sc.inference_times:
            for arm in (0, 1):
                live = inference_snapshot(log, t, arm, sc)
                offline = inference_snapshot(replayed, t, arm, sc)
                ok_replay &= bool(np.all(np.abs(
                    live.report.direction - offline.report.direction) <= 1e-9))
                ok_replay &= bool(np.all(np.abs(
                    live.report.marginal_half_widths
                    - offline.report.marginal_half_widths) <= 1e-9))
                if t < log.rounds:
                    x = log.contexts[t]
                    for a_ci, b_ci in zip(np_cis_at(live, x, sc),
                                          np_cis_at(offline, x, sc)):
                        ok_replay &= abs(a_ci.lo - b_ci.lo) <= 1e-9
                        ok_replay &= abs(a_ci.hi - b_ci.hi) <= 1e-9
        ok = ok_hash and ok_replay
        report(10, ok, f"export hashes equal {ok_hash}, replay within 1e-9 "
                       f"{ok_replay} ({time.time() - t0:.1f}s)")
        assert ok


class TestParametricMachinerySanity:
    """Not a numbered criterion: pins the root-cause analysis for 1 and 2b.

    With i.i.d. contexts and a fixed moderate propensity the very same
    estimator + ellipsoid chain covers at the nominal rate, so the
    ellipsoid failures come from the prescribed exploration schedule's
    weight distribution, not from the implementation.  Criterion 3a's
    miss has another cause, the estimated index direction (see the module
    docstring).
    """

    def test_nominal_coverage_at_moderate_propensity(self):
        rng = np.random.default_rng(123)
        beta = np.array([0.8, 0.6])
        t, reps, cover = 1000, 200, 0
        for _ in range(reps):
            xs = rng.normal(size=(t, 2))
            ys = link_pair(xs @ beta)[0] + 0.05 * rng.normal(size=t)
            pulled = rng.random(t) < 0.5
            est = estimate_from_arrays(xs, ys, pulled, np.full(t, 0.5), 2e-3)
            w = np.full(int(pulled.sum()), 2.0)
            infl = ii.build_influence(xs[pulled], ys[pulled], w,
                                      est.beta_hat, est.gram, 0.5, t)
            rep = ii.directional_report(est.beta_hat, ii.v_beta(infl), t,
                                        0.5, 0.05)
            cover += ii.ellipsoid_covers(rep, beta)
        rate = cover / reps
        print(f"[sanity] fixed p=0.5 directional coverage {rate:.3f}")
        assert rate >= 0.90
