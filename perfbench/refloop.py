"""Stdlib-only reference loop used to calibrate every timed figure.

It never imports ``extprob``.  Its work is fixed: ``Fraction`` and int
arithmetic with dict and tuple churn, the same kinds of work the program
does.  Timing it just before and just after a stretch of timed work tells
how fast the machine ran at that moment, so the work's wall time divided
by the mean of its two reference times is a ratio that cancels most of
the machine's drift.  The ratio times ``NOMINAL_REF_S`` is a calibrated
time.

The full loop takes about 0.1 s.  Inside a round the benchmark runs a
slice of it, 1/18 of the passes, after every 50 ms or so of items, and
counts each slice as the full loop's equivalent time: on a shared host
the machine's speed changes within a second, and short stretches of work
between slices track it much better than one loop at each end of a
round does.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Calibrated seconds are ratios to the reference loop scaled by this
# constant; the loop takes about this long on an idle 2-CPU x86 host
# with CPython 3.11.
NOMINAL_REF_S = 0.1

_PASSES = 90
_SLICE_PASSES = 5


def _work(passes: int) -> int:
    total = 0
    for p in range(passes):
        table: dict = {}
        acc = Fraction(0)
        for i in range(120):
            key = (i % 11, (i * p) % 7)
            q = Fraction(i + p + 1, i % 9 + 2)
            acc = acc * Fraction(1, 2) + q
            table[key] = table.get(key, 0) + q.numerator * q.denominator
            if i % 5 == 0:
                table.pop(((i + 3) % 11, p % 7), None)
        total += len(table) + acc.denominator % 97
    return total


def reference_seconds() -> float:
    """Wall time of the full reference loop."""
    start = time.perf_counter()
    _work(_PASSES)
    return time.perf_counter() - start


def slice_seconds() -> float:
    """Wall time of one slice of the loop, scaled to the full loop."""
    start = time.perf_counter()
    _work(_SLICE_PASSES)
    return (time.perf_counter() - start) * _PASSES / _SLICE_PASSES


if __name__ == "__main__":
    print(" ".join(f"{reference_seconds():.4f}" for _ in range(8)))
