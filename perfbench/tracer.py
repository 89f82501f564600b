"""In-memory span tracer that wraps ksib's public functions from outside.

A layer is one public function or method of a ``ksib`` module, named
``<module>.<function>``.  :meth:`Tracer.patch` replaces a module-level
function in every ``ksib`` module that holds a reference to it (so
``ksib.policy.fit`` is wrapped together with ``ksib.kernel_ridge.fit``) and
a method on its class; :meth:`Tracer.restore` puts the original objects back.

A span is ``[layer, start, end, parent, run_id, size, flops]``: ``parent``
is the index of the enclosing span (-1 at top level), ``run_id`` the
benchmark unit the span belongs to, ``size`` a per-layer probe (support
size for ``kernel_ridge.fit``, bytes written for ``harness.export``) and
``flops`` the dense Cholesky work reached below the span through
``scipy.linalg.cho_factor``/``cho_solve`` as imported by ksib: ``n^3/3``
per factorization of an n x n matrix and ``2 n^2 k`` per solve with k
right-hand sides.  These counts are computed from array shapes, not read
from hardware counters.  Spans stay in a list until :meth:`write_spans`.

The module imports neither numpy nor ksib, so it can be loaded before the
benchmark has pinned the BLAS thread count.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

# (layer name, defining module, attribute or Class.method)
LAYERS = (
    ("policy.step", "ksib.policy", "EpsilonGreedyPolicy.step"),
    ("policy.select", "ksib.policy", "EpsilonGreedyPolicy.select"),
    ("policy.force_refit", "ksib.policy", "EpsilonGreedyPolicy.force_refit"),
    ("kernel_ridge.fit", "ksib.kernel_ridge", "fit"),
    ("kernel_ridge.median_bandwidth", "ksib.kernel_ridge", "median_bandwidth"),
    ("kernel_ridge.predict", "ksib.kernel_ridge", "KrrModel.predict"),
    ("np_inference.build_covariance", "ksib.np_inference", "build_covariance"),
    ("np_inference.pointwise_ci", "ksib.np_inference", "pointwise_ci"),
    ("np_inference.as_band_ci", "ksib.np_inference", "as_band_ci"),
    ("score_features.update", "ksib.score_features", "EmpiricalWhiteningScore.update"),
    ("score_features.score", "ksib.score_features", "EmpiricalWhiteningScore.score"),
    ("index_estimation.observe", "ksib.index_estimation", "IndexAccumulator.observe"),
    ("index_estimation.estimate_beta", "ksib.index_estimation",
     "IndexAccumulator.estimate_beta"),
    ("index_estimation.estimate_from_arrays", "ksib.index_estimation",
     "estimate_from_arrays"),
    ("index_inference.build_influence", "ksib.index_inference", "build_influence"),
    ("index_inference.directional_report", "ksib.index_inference",
     "directional_report"),
    ("index_inference.ellipsoid_covers", "ksib.index_inference", "ellipsoid_covers"),
    ("numerics.solve_spd", "ksib.numerics", "solve_spd"),
    ("environment.draw_round", "ksib.environment", "SyntheticEnv.draw_round"),
    ("harness.inference_snapshot", "ksib.harness", "inference_snapshot"),
    ("harness.run_trajectory", "ksib.harness", "run_trajectory"),
    ("harness.aggregate", "ksib.harness", "aggregate"),
    ("harness.export", "ksib.harness", "export"),
    ("harness.run_scenario", "ksib.harness", "run_scenario"),
    ("cli.read_audit", "ksib.cli", "read_audit"),
)
LAYER_NAMES = tuple(name for name, _, _ in LAYERS)


def _dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


# probe(args) -> the span's ``size`` field, taken after the call returns
_PROBES = {
    "kernel_ridge.fit": lambda args: len(args[0]),
    "harness.export": lambda args: _dir_bytes(args[1]),
}


def _cho_factor_flops(args):
    n = args[0].shape[0]
    return n * n * n // 3


def _cho_solve_flops(args):
    factor, rhs = args[0][0], args[1]
    k = 1 if rhs.ndim == 1 else rhs.shape[1]
    return 2 * factor.shape[0] ** 2 * k


_COUNTED = (("cho_factor", _cho_factor_flops), ("cho_solve", _cho_solve_flops))


def _ksib_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ksib" or name.startswith("ksib."))]


class Tracer:
    """Patch a set of layers, record spans while patched, then restore.

    One tracer serves one process and one thread; ``run_id`` is set by the
    caller before each unit of work so its spans share an identifier.
    """

    def __init__(self, layers=LAYER_NAMES, count_flops: bool = True):
        unknown = set(layers) - set(LAYER_NAMES)
        if unknown:
            raise ValueError(f"unknown layers {sorted(unknown)}")
        self.layers = [spec for spec in LAYERS if spec[0] in layers]
        self.count_flops = count_flops
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = 0
        self._patched: list[tuple] = []   # (owner, attribute, original)

    # -- patching -------------------------------------------------------

    def _span_wrapper(self, layer: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        probe = _PROBES.get(layer)

        def wrapper(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1,
                    self.run_id, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                span[5] = probe(args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, cost, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            flops = cost(args)
            for pos in stack:
                spans[pos][6] += flops
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace_everywhere(self, original, replacement) -> None:
        for module in _ksib_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def patch(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already patched")
        try:
            for layer, modname, attr in self.layers:
                owner = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._span_wrapper(layer, original))
                    self._patched.append((cls, meth, original))
                else:
                    original = getattr(owner, attr)
                    self._replace_everywhere(
                        original, self._span_wrapper(layer, original))
            if self.count_flops:
                import scipy.linalg
                for name, cost in _COUNTED:
                    original = getattr(scipy.linalg, name)
                    self._replace_everywhere(
                        original, self._count_wrapper(cost, original))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.patch()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results --------------------------------------------------------

    def durations(self, layer: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == layer]

    def summary(self) -> dict:
        """Per layer: calls, inclusive seconds, self seconds, size and flops sums."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0,
                      "flops": 0} for name, _, _ in self.layers}
        for pos, span in enumerate(self.spans):
            rec = out[span[0]]
            dur = span[2] - span[1]
            rec["calls"] += 1
            rec["s"] += dur
            rec["self_s"] += dur - child_time[pos]
            rec["size"] += span[5]
            rec["flops"] += span[6]
        return out

    def write_spans(self, path) -> None:
        """Write every span as CSV: layer,start,end,parent,run_id,size,flops."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("layer,start,end,parent,run_id,size,flops\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]!r},{s[2]!r},{s[3]},{s[4]},{s[5]},{s[6]}\n")

