"""Kernel single-index contextual bandits.

Per-arm rewards follow a single-index model: an unknown scalar link applied
to a one-dimensional projection of the context.  The package estimates each
arm's index direction by an inverse-propensity-weighted score regression,
fits the link by IPW kernel ridge regression on the projected index, forms
directional confidence ellipsoids and pointwise link intervals that remain
valid under adaptive sampling, and drives everything with an epsilon-greedy
policy plus a reproducible Monte-Carlo replication harness.
"""

from .environment import (RegretLedger, ReplayEnv, SyntheticEnv, link_pair,
                          load_csv, sample_canonical_betas)
from .harness import (Scenario, aggregate, calibrated_band_ratio, export,
                      inference_snapshot, run_replication, run_scenario)
from .index_estimation import (IndexAccumulator, IndexEstimate,
                               estimate_from_arrays, ipw_weights)
from .index_inference import (DirectionalReport, build_influence,
                              directional_covariance, directional_report,
                              ellipsoid_covers, sign_align, v_beta)
from .kernel_ridge import (GaussianKernel, KrrModel, fit, median_bandwidth,
                           ridge_schedule)
from .np_inference import (NpCovariance, PointwiseCi, as_band_ci,
                           build_covariance, exploration_coefficient,
                           pointwise_ci)
from .numerics import Rng, chi2_quantile, min_eigenvalue, normal_quantile, solve_spd
from .policy import EpsilonGreedyPolicy
from .score_features import EmpiricalWhiteningScore

__version__ = "0.1.0"
