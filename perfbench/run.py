"""Run one ksib benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``ksib`` from its
``src`` directory.  Readable lines (environment, per-workload extras,
``fail_frac``) come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass and writes its spans under ``.bench_out/``.
See NOTE.md for the workloads and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def set_blas_env() -> dict:
    """Pin BLAS to one thread; must run before numpy is imported."""
    os.environ.update(BLAS_ENV)
    return dict(BLAS_ENV)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ksib" / "__init__.py").is_file():
        print(f"error: no ksib sources under {SRC}", file=sys.stderr)
        return 2
    blas_env = set_blas_env()
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (numpy must load after set_blas_env)

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if not Path(workloads.ksib.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: ksib imported from {workloads.ksib.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        spans = (OUT / f"spans-{args.workload}-seed{args.seed}.csv"
                 if args.trace else None)
        result = workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.scale,
                               workloads.load_reference(REFERENCE), workdir,
                               SRC, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = workloads.environment(ROOT, blas_env)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} "
          f"trace {args.trace}")
    for key, (value, unit) in result["extras"].items():
        print(f"  {key} {value} {unit}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
