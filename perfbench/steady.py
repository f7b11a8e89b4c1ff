"""Steadiness check: run each workload once per seed and summarise the spread.

    python3 perfbench/steady.py --runs 10 [--first-seed 1] [--workload NAME ...]

Runs ``perfbench/run.py`` one process at a time, as BENCHMARK.json names it,
and prints, per workload and end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile range as a
share of the median, next to the metric's bound, and the same spread of
the unscaled wall-time figures the runs leave in ``perfbench/results/``
for comparison (see run.py on host-speed scaling).  It exits 1 when a spread
other than that of ``setup_s`` exceeds its bound, when a run's outputs were
not correct, or when runs failed different shares of their operations.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for name in names:
        values = {metric: [] for metric in bounds}
        unscaled = {}
        shares, correct = set(), True
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]  # fmt: skip
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if done.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}")
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                correct = False
                print(done.stderr, file=sys.stderr)
            shares.add(Fraction(result["failed"], result["attempted"]))
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
            saved = json.loads((ROOT / "perfbench" / "results" / f"{name}-seed{seed}-trace0.json").read_text())
            for metric, value in saved["unscaled"].items():
                unscaled.setdefault(metric, []).append(value)
            print(f"  {name} seed {seed}: " + ", ".join(f"{m}={v[-1]:.5g}" for m, v in values.items()), flush=True)
        steady &= correct and len(shares) == 1
        print(f"{name}: {args.runs} runs, all correct: {correct}, failed shares: {sorted(map(str, shares))}")
        for metric, series in values.items():
            q1, q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / q2
            if spread < bounds[metric] / 3:
                verdict = "steady"
            elif spread <= bounds[metric] or metric == "setup_s":
                verdict = "within bound"
            else:
                verdict, steady = "WIDER THAN BOUND", False
            print(
                f"  {metric:15s} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                f"spread {spread:.2%}  bound {bounds[metric]:.0%}  {verdict}"
            )
        for metric, series in unscaled.items():
            q1, q2, q3 = statistics.quantiles(series, n=4)
            print(f"  unscaled {metric:15s} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {(q3 - q1) / q2:.2%}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
