"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

For every item of every workload (seed 1): the genuine output must pass
its check, and every corrupted copy (one mass off, a flipped verdict, a
dropped table row, a wrong exit code, ...) must fail it.  The three
malformed-input commands of the ``cli`` workload raise today, so their
check is fed a made-up correct output (exit 3 and a message) instead.
Exits 1 if any check accepts a corrupted output or rejects a genuine one.
"""

from __future__ import annotations

import importlib
import shutil
import sys

from worker import WORK, WORKLOADS, import_program, missing_sources


def corrupted_outputs_rejected(item, p) -> list:
    """Indices of the corruptions that the check wrongly accepts."""
    import checks

    accepted = []
    for i, bad in enumerate(item.corruptions(p)):
        try:
            item.check(bad)
        except checks.CheckFailed:
            continue
        accepted.append(i)
    return accepted


def genuine_output(item):
    if item.known_fault is None:
        return item.plain(item.run())
    from wl_cli import parse_output

    item.reference = ""
    return {"rc": item.expected_rc(), "out": "", "err": "bad input", "data": parse_output("")}


def main() -> int:
    problem = missing_sources()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    import_program()
    import checks

    bad = 0
    for workload in WORKLOADS:
        workdir = WORK / f"selftest-{workload}"
        try:
            items = importlib.import_module(f"wl_{workload}").build(1, workdir)
            unique = list({id(item): item for item in items}.values())
            tried = failures = 0
            for item in unique:
                name = getattr(item, "name", item.kind)
                try:
                    p = genuine_output(item)
                    item.check(p)
                except checks.CheckFailed as exc:
                    print(f"FAIL {workload}/{name}: genuine output rejected: {exc}")
                    failures += 1
                    continue
                accepted = corrupted_outputs_rejected(item, p)
                tried += len(item.corruptions(p))
                if accepted:
                    print(f"FAIL {workload}/{name}: corruptions {accepted} accepted")
                    failures += 1
            print(f"{workload}: {len(unique)} items, {tried} corrupted outputs, "
                  f"{'each rejected' if not failures else f'{failures} items failed'}")
            bad += failures
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print("self-test " + ("passed" if not bad else f"FAILED ({bad} items)"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
