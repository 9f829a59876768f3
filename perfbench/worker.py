"""One measured run of one workload: a closed loop in one process and one
thread, each item starting after the previous one completed.

``run.py`` starts this file with a fixed ``PYTHONHASHSEED``; run it
through ``run.py``.  The loop repeats whole rounds (the workload's item
list) until ``--seconds`` have passed and at least ``MIN_ITEMS`` items
completed.  Inside a round, slices of the reference loop run between
chunks of about ``CHUNK_S`` of items, and each chunk is scaled by the
slices on either side into calibrated seconds (see ``refloop``).
Outputs are checked after each round, outside the timed window.

With ``--trace 1`` every round runs twice, untraced and then traced, and
the per-layer figures are reported per traced round; the difference
between the two is the tracing overhead.  One more untimed pass with
only note-taking hooks gives the ``poly_gcd`` degree and the
``event_mass`` repeat share.  With ``--setup-only`` the
worker stops after set-up and reports when it was ready and one
reference time, for ``run.py``'s set-up samples.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import refloop
import tracer as tracer_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKLOADS = ("lps_nps", "popper", "cli")
MIN_ITEMS = 200
# Items run between two reference slices.
CHUNK_S = 0.05
# The loop stops here even short of MIN_ITEMS, to end in bounded time.
HARD_STOP_S = 60.0


def missing_sources() -> str:
    init = SRC / "extprob" / "__init__.py"
    return "" if init.is_file() else f"missing program sources: {init} not found"


def import_program():
    """Import extprob from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import extprob

    where = Path(extprob.__file__).resolve().parent
    if where != (SRC / "extprob").resolve():
        raise SystemExit(f"extprob was imported from {where}, not from {SRC / 'extprob'}")
    return extprob


class Run:
    """Tallies of one run."""

    def __init__(self, items, tracer):
        self.items = items
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.untraced = []
        self.traced = []
        self.first_spans = None

    def round(self, traced: bool) -> None:
        """Time one round of every item, calibrated chunk by chunk.

        A reference slice runs before the first item, after the last,
        and between items whenever CHUNK_S of items have run since the
        last slice; each chunk is scaled by the mean of its two slices.
        """
        gc.collect()
        tracer = self.tracer if traced else None
        if tracer:
            tracer.reset()
            tracer.install()
        clock = time.perf_counter
        outputs, latencies, pending = [], [], []
        wall = calibrated = 0.0
        before = refloop.slice_seconds()
        refs = [before]
        if tracer:
            tracer.set_speed(before)
        chunk_start = clock()
        for index, item in enumerate(self.items):
            span = tracer.open(tracer_mod.ITEM) if tracer else None
            start = clock()
            try:
                out, error = item.run(), None
            except Exception as exc:  # one failed operation; the loop goes on
                out, error = None, exc
            took = clock() - start
            if tracer:
                tracer.close(span)
            outputs.append((out, error))
            if error is None:
                pending.append(took)
            now = clock()
            if now - chunk_start < CHUNK_S and index + 1 < len(self.items):
                continue
            after = refloop.slice_seconds()
            refs.append(after)
            scale = refloop.NOMINAL_REF_S / ((before + after) / 2)
            wall += now - chunk_start
            calibrated += (now - chunk_start) * scale
            latencies += [lat * scale for lat in pending]
            pending = []
            before = after
            chunk_start = clock()
        if tracer:
            tracer.uninstall()
        rec = {
            "wall": wall,
            "calibrated": calibrated,
            "ref": statistics.median(refs),
            "latencies": latencies,
        }
        if tracer:
            scale = calibrated / wall
            rec["calls"] = Counter(tracer.calls)
            rec["direct"] = Counter(tracer.direct)
            rec["self_s"] = {k: v * scale for k, v in tracer.self_time.items()}
            if self.first_spans is None:
                self.first_spans = [list(span) for span in tracer.spans]
        self.check(outputs)
        (self.traced if traced else self.untraced).append(rec)

    def check(self, outputs) -> None:
        for item, (out, error) in zip(self.items, outputs):
            self.attempted += 1
            if error is not None:
                self.failed += 1
                if item.known_fault is None:
                    self.note("unexpected failure", item, "".join(
                        traceback.format_exception(type(error), error, error.__traceback__)))
                continue
            try:
                item.check(item.plain(out))
            except Exception as exc:  # CheckFailed, or output too malformed to read
                self.note("wrong output", item, f"{type(exc).__name__}: {exc}")

    def note(self, what, item, detail) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{what} from {getattr(item, 'name', item.kind)}: {detail}")

    def completed(self) -> int:
        return sum(len(r["latencies"]) for r in self.untraced)


def end_to_end(run: Run) -> dict:
    rounds = run.untraced
    latencies = sorted(lat for r in rounds for lat in r["latencies"])
    # Every round completes the same items; the median round resists the
    # odd round that the machine slowed more than its reference slices show.
    per_round = statistics.median(r["calibrated"] for r in rounds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "items_per_s": {"value": len(rounds[0]["latencies"]) / per_round, "unit": "1/s"},
        "item_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
        "item_p95_ms": {"value": 1000 * statistics.quantiles(latencies, n=20)[18], "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def per_layer(run: Run) -> dict:
    rounds = run.traced
    k = len(rounds)
    out = {}
    for label in tracer_mod.TARGETS:
        calls = sum(r["calls"][label] for r in rounds)
        busy = sum(r["self_s"].get(label, 0.0) for r in rounds)
        out[f"{label}.calls"] = {"value": calls / k, "unit": "count"}
        out[f"{label}.self_s"] = {"value": busy / k, "unit": "s"}
    out["field.poly_gcd.max_degree"] = {"value": run.tracer.max_gcd_degree, "unit": "count"}
    out["spaces.event_mass.repeat_share"] = {
        "value": run.tracer.mass_repeat_share(), "unit": "ratio"}
    traced = sum(r["calibrated"] for r in rounds)
    untraced = sum(r["calibrated"] for r in run.untraced[-k:])
    out["trace.overhead_s"] = {"value": (traced - untraced) / k, "unit": "s"}
    return out


def direct_call_problems(run: Run) -> list:
    """Direct calls counted by the trace against the item list."""
    expected = Counter()
    for item in run.items:
        for label, count in item.direct.items():
            expected[label] += count * len(run.traced)
    seen = Counter()
    for r in run.traced:
        seen.update(r["direct"])
    return [
        f"{label}: {seen[label]} direct calls traced, {expected[label]} expected"
        for label in sorted(set(expected) | set(seen))
        if seen[label] != expected[label]
    ]


def write_trace(run: Run, workload: str, seed: int) -> Path:
    spans = run.first_spans or []
    origin = spans[0][1] if spans else 0.0
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "fields": ["name", "start_s", "end_s", "parent"],
        "spans": [[n, s - origin, e - origin, p] for n, s, e, p in spans],
    }), encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    problem = missing_sources()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    import_program()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        items = importlib.import_module(f"wl_{args.workload}").build(args.seed, workdir)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready, "ref_s": refloop.reference_seconds()}))
            return 0
        return measure(args, items, ready)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, items, ready) -> int:
    run = Run(items, tracer_mod.Tracer() if args.trace else None)
    setup_ref = refloop.reference_seconds()
    began = time.monotonic()
    while True:
        run.round(traced=False)
        if args.trace:
            run.round(traced=True)
        elapsed = time.monotonic() - began
        if elapsed >= args.seconds and run.completed() >= MIN_ITEMS:
            break
        if elapsed >= args.seconds + HARD_STOP_S:
            break

    problems = list(run.problems)
    if args.trace:
        run.tracer.tally(items)
        problems += direct_call_problems(run)
        metrics = per_layer(run)
        print(f"# trace: spans of the first traced round in {write_trace(run, args.workload, args.seed)}")
        outside, whole = (c * refloop.NOMINAL_REF_S * 1e9 for c in run.tracer.cost_per_ref)
        print(f"# trace: leaf wrapper cost per call, taken out of the self times: "
              f"{whole:.0f} calibrated ns, {outside:.0f} of it outside its clock readings")
    else:
        metrics = end_to_end(run)
    for line in problems:
        print(f"# problem: {line}", file=sys.stderr)
    rounds = run.untraced + run.traced
    refs = sorted(r["ref"] for r in rounds)
    walls = sorted(r["wall"] for r in run.untraced)
    calibrated = statistics.median(r["calibrated"] for r in run.untraced)
    ratios = sorted(r["calibrated"] / r["wall"] for r in run.untraced)
    print(
        f"# raw: rounds={len(run.untraced)} traced_rounds={len(run.traced)} "
        f"items={run.completed()} round_wall_s min={walls[0]:.4f} "
        f"median={statistics.median(walls):.4f} max={walls[-1]:.4f} "
        f"round_calibrated_s median={calibrated:.4f} "
        f"ref_s min={refs[0]:.4f} median={statistics.median(refs):.4f} max={refs[-1]:.4f} "
        f"calibrated/raw min={ratios[0]:.3f} median={statistics.median(ratios):.3f} max={ratios[-1]:.3f}"
    )
    print(json.dumps({
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "setup": {"ready": ready, "ref_s": setup_ref},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
