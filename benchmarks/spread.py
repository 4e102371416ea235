#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workload desk --seeds 0 1 2 3 4 --seconds 30

Runs one benchmark process per seed, one after another, from the checkout
root, and prints per metric the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the interquartile
range as a share of the median. It flags every end-to-end metric of
BENCHMARK.json whose spread is not below a third of its bound, and exits
with code 3 if there is one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int, default=30)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)

    steady = True
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        share = (q3 - q1) / med if med else float("nan")
        flag = ""
        if not share < bounds[name] / 3:
            flag = f"  NOT below bound/3 = {bounds[name] / 3:.4f}"
            steady = False
        print(f"{name:28s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {share:.4f}{flag}")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
