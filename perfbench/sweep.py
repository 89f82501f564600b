"""Run benchmark workloads over several seeds, each in a fresh process.

    python3 perfbench/sweep.py [--workloads a,b] [--seeds 1-10] [--trace 0]

Reads BENCHMARK.json for the command, workloads, run length and bounds.
Prints every metric of every run by name with its unit, then per workload
and metric the median, the quartiles and the spread (q3 - q1) / median as
``statistics.quantiles(values, n=4)`` gives them; with ``--trace 0`` each
spread is shown next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            shown = " ".join(f"{k}={v['value']:.6g}{v['unit']}"
                             for k, v in result["metrics"].items())
            print(f"{workload} seed {seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}",
                  flush=True)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
                units[k] = v["unit"]
        for k, vals in values.items():
            med = statistics.median(vals)
            if len(vals) < 2:
                print(f"  {workload} {k}: {med:.6g} {units[k]}")
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(k)
            note = "" if bound is None else f" bound {bound} ({spread / bound:.2f} of it)"
            print(f"  {workload} {k}: median {med:.6g} {units[k]} q1 {q1:.6g} "
                  f"q3 {q3:.6g} spread {spread:.4f}{note}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
