"""Reward environments and ground-truth regret accounting.

``SyntheticEnv`` draws standard normal contexts and rewards from per-arm
single-index links; the default pair is a mirrored tanh ramp,
``g1(z) = mu1 + a*tanh(k z)`` and ``g2(z) = mu2 - a*tanh(k z)`` with
``(mu1, mu2, a, k) = (0.6, 0.4, 0.4, 1.0)``.  ``ReplayEnv`` replays a
binary-label CSV as a two-arm classification bandit: arm i predicts class
i and earns reward 1 on a correct prediction.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, LoadError
from .numerics import Rng

DEFAULT_LINK_PARAMS = (0.6, 0.4, 0.4, 1.0)


def tanh_links():
    """The default link pair ``(g1, g2)`` as two callables."""
    mu1, mu2, a, k = DEFAULT_LINK_PARAMS
    return (lambda z: mu1 + a * np.tanh(k * z),
            lambda z: mu2 - a * np.tanh(k * z))


def link_pair(z):
    """Evaluate both default links at ``z``; returns ``(g1(z), g2(z))``."""
    z = np.asarray(z, dtype=float)
    return tuple(g(z) for g in tanh_links())


def sample_canonical_betas(d: int, n_arms: int, rng: Rng) -> np.ndarray:
    """Unit index vectors with positive first coordinate, one per arm."""
    betas = np.empty((n_arms, d))
    for i in range(n_arms):
        b = rng.normal(d)
        b[0] = abs(b[0])
        betas[i] = b / np.linalg.norm(b)
    return betas


class SyntheticEnv:
    """Single-index reward generator with known ground truth."""

    def __init__(self, betas, sigma: float, rng: Rng, links=None):
        self.betas = np.atleast_2d(np.asarray(betas, dtype=float))
        if sigma < 0:
            raise DomainError("sigma must be nonnegative")
        self.sigma = sigma
        self.rng = rng
        links = tanh_links() if links is None else links
        if len(links) != self.betas.shape[0]:
            raise DomainError("one link per arm required")
        self.links = links

    @property
    def dim(self) -> int:
        return self.betas.shape[1]

    def true_means(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([g(float(x @ b)) for g, b in zip(self.links, self.betas)])

    def draw_round(self):
        """Returns ``(context, per-arm means, noise)`` for one round."""
        x = self.rng.normal(self.dim)
        means = self.true_means(x)
        noise = float(self.rng.normal()) * self.sigma if self.sigma > 0 else 0.0
        return x, means, noise


class RegretLedger:
    """Cumulative gap between the best arm's mean and the pulled arm's mean,
    from the (T, L) true means and the T pulled arms."""

    def __init__(self, means, pulled):
        means, pulled = np.asarray(means, dtype=float), np.asarray(pulled)
        if means.ndim != 2 or pulled.shape != means.shape[:1]:
            raise DomainError(f"need one pulled arm per row of the means, got "
                              f"{pulled.shape} arms for means {means.shape}")
        rounds = np.arange(pulled.size)
        # accumulate adds in round order, as a running sum does
        self.path = np.add.accumulate(means.max(axis=1) - means[rounds, pulled])
        self.total = float(self.path[-1]) if self.path.size else 0.0

    def average(self, t: int | None = None) -> float:
        """Mean regret per round over rounds 1..t, by default over all T
        rounds (0.0 for a ledger of no rounds)."""
        if t is None:
            if not self.path.size:
                return 0.0
            t = self.path.size
        if not 1 <= t <= self.path.size:
            raise DomainError(f"t must be in 1..{self.path.size}, got {t}")
        return float(self.path[t - 1]) / t


@dataclass
class ReplayTable:
    """Parsed CSV: raw (unstandardized) features plus binary labels."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: list = field(default_factory=list)


class ReplayEnv:
    """One seeded pass over a sampled, standardized subset of a table."""

    def __init__(self, table: ReplayTable, seed: int, horizon: int):
        if table.features.shape[0] < horizon:
            raise LoadError(
                f"need at least {horizon} rows, have {table.features.shape[0]}")
        rng = Rng(seed)
        order = rng.permutation(table.features.shape[0])[:horizon]
        feats = table.features[order].astype(float)
        mean = feats.mean(axis=0)
        sd = feats.std(axis=0)
        self.constant_columns = np.flatnonzero(sd == 0)
        sd = np.where(sd == 0, 1.0, sd)
        self.features = (feats - mean) / sd
        self.labels = table.labels[order]
        self.order = order
        self.cursor = 0
        self.horizon = horizon

    def draw_round(self):
        """Returns ``(context, per-arm rewards, noise)`` like
        :meth:`SyntheticEnv.draw_round`: the 0/1 rewards are the arms' means
        and the noise is 0.0.  Each row is consumed once."""
        if self.cursor >= self.horizon:
            raise DomainError("trajectory exhausted")
        x = self.features[self.cursor]
        label = int(self.labels[self.cursor])
        self.cursor += 1
        rewards = np.array([1.0 if label == i else 0.0 for i in (0, 1)])
        return x, rewards, 0.0


@contextmanager
def open_input(path, error):
    """Open ``path`` to read as UTF-8, byte-order mark or not, raising
    ``error("cannot read <path>: <reason>")`` if opening or decoding it fails."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def load_csv(path, label_column, feature_columns=None,
             label_map=None) -> ReplayTable:
    """Parse a headered CSV into a replay table.

    ``label_column``/``feature_columns`` are header names;
    ``feature_columns=None`` takes every non-label column.
    ``label_map`` maps raw label strings to 0/1 (binary labels required).
    """
    with open_input(path, LoadError) as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise LoadError(f"{path}: need a header row plus data rows")
    header = [h.strip() for h in rows[0]]

    def col_index(selector):
        if selector not in header:
            raise LoadError(f"column {selector!r} not in header {header}")
        return header.index(selector)

    label_idx = col_index(label_column)
    feat_idx = ([i for i in range(len(header)) if i != label_idx]
                if feature_columns is None else [col_index(c) for c in feature_columns])

    feats, labels = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise LoadError(f"{path}:{lineno}: expected {len(header)} fields")
        try:
            feats.append([float(row[i]) for i in feat_idx])
        except ValueError as exc:
            raise LoadError(f"{path}:{lineno}: non-numeric feature: {exc}") from exc
        bad = [header[i] for i, v in zip(feat_idx, feats[-1]) if not np.isfinite(v)]
        if bad:
            raise LoadError(f"{path}:{lineno}: feature {bad[0]!r} is not finite")
        raw = row[label_idx].strip()
        if label_map is not None:
            if raw not in label_map:
                raise LoadError(f"{path}:{lineno}: unmapped label {raw!r}")
            label = label_map[raw]
        else:
            try:
                label = float(raw)
            except ValueError as exc:
                raise LoadError(
                    f"{path}:{lineno}: label {raw!r} is not numeric; the label column "
                    "must hold 0/1 labels, or load_csv callers pass label_map") from exc
        if label not in (0, 1):   # int() would truncate 0.7 to 0
            raise LoadError(f"{path}:{lineno}: label {raw!r} is not 0 or 1")
        labels.append(int(label))
    if len(set(labels)) < 2:
        raise LoadError(f"labels must hold both 0 and 1, got only {labels[0]}")
    return ReplayTable(np.asarray(feats, dtype=float), np.asarray(labels),
                       [header[i] for i in feat_idx])
