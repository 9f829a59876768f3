"""Run workloads k times on successive seeds and print each metric's spread.

    python3 perfbench/spread.py --runs 10 --seconds 30
    python3 perfbench/spread.py --workload popper --runs 5 --first-seed 11

Each run uses the next seed and ``--trace 0``.  For every end-to-end
metric: the median, the quartiles (``statistics.quantiles(n=4)``),
the quartile distance as a share of the median, and max/min; plus the
share of failed operations in each run.  These are the figures from which
the bounds in ``BENCHMARK.json`` are derived.  Runs go one after another,
never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(workload, results) -> None:
    shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
    correct = all(r["correct"] for r in results)
    print(f"{workload}: {len(results)} runs, correct={correct}, failed/attempted: {' '.join(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        iqr = (q3 - q1) / med if med else 0.0
        ratio = max(values) / min(values) if min(values) > 0 else float("nan")
        print(f"  {name:34s} median={med:12.5g} q1={q1:12.5g} q3={q3:12.5g} "
              f"iqr/median={iqr:7.4f} max/min={ratio:6.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    for workload in args.workload or WORKLOADS:
        results = [
            one_run(workload, args.first_seed + i, args.seconds) for i in range(args.runs)
        ]
        summarise(workload, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
