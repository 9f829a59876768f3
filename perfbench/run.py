"""Benchmark entry point: one run of one workload on one seed.

    python3 perfbench/run.py --workload lps_nps --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's ``src/`` only; without ``src/extprob`` this exits with code 2
and names the missing sources.  The measured run happens in a worker
process (``worker.py``) started with a fixed ``PYTHONHASHSEED``.  With
``--trace 0`` eight more fresh workers first stop after set-up: ``setup_s``
is the median of the nine calibrated set-up times.  The last line of
standard output is the JSON result; the lines before it give the raw
wall-clock figures, which are not metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from refloop import NOMINAL_REF_S  # noqa: E402
from worker import WORKLOADS, missing_sources  # noqa: E402

SETUP_PROBES = 8
# The whole run, the probes included, ends within this many seconds.
RUN_LIMIT_S = 175.0


def worker_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def start_worker(args, extra, deadline):
    """Run one worker; returns (launch time, its stdout lines)."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    launched = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - launched),
    )
    if proc.returncode != 0:
        raise SystemExit(proc.returncode or 1)
    return launched, proc.stdout.splitlines()


def calibrated_setup(launched: float, report: dict) -> float:
    """Seconds from launch until the worker was ready, calibrated by a
    reference loop run in that same worker."""
    return (report["ready"] - launched) / report["ref_s"] * NOMINAL_REF_S


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    problem = missing_sources()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            launched, lines = start_worker(args, ["--setup-only"], deadline)
            setups.append(calibrated_setup(launched, json.loads(lines[-1])))
    launched, lines = start_worker(args, [], deadline)
    result = json.loads(lines[-1])
    setups.append(calibrated_setup(launched, result.pop("setup")))
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        print("# setup: calibrated samples_s=" + " ".join(f"{s:.4f}" for s in setups))
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
