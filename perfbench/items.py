"""The unit of work the benchmark times, and plain views of program outputs.

An item is one user-level operation.  ``run`` is the only part inside the
timed window; ``plain`` turns its output into plain data, ``check``
raises ``checks.CheckFailed`` when that data is wrong, and
``corruptions`` returns damaged copies that ``check`` must reject (the
self-test feeds them in).  ``direct`` counts the traced entry points that
one ``run`` calls itself.
"""

from __future__ import annotations

from fractions import Fraction


class Item:
    kind = "item"
    direct: dict = {}
    # Set on operations that fail every time through a known program fault.
    known_fault = None

    def run(self):
        raise NotImplementedError

    def plain(self, out):
        return out

    def check(self, p) -> None:
        raise NotImplementedError

    def corruptions(self, p) -> list:
        raise NotImplementedError


# -------------------------------------------------------- plain views

def field_value(x):
    """A NonstdNumber as (num terms, den terms)."""
    return (tuple(x.num.terms), tuple(x.den.terms))


def field_masses(measure):
    return [field_value(m) for m in measure.mass]


def rows(system):
    return [tuple(m.mass) for m in system.measures]


def table(space):
    return {tuple(sorted(ev)): tuple(space.table[ev].mass) for ev in space.conditioning_events}


def certificate(cert):
    out = {"verdict": cert.verdict, "lhs": rows(cert.lhs), "rhs": rows(cert.rhs)}
    if cert.equivalent:
        out["forward"] = [tuple(r) for r in cert.forward_matrix]
        out["backward"] = [tuple(r) for r in cert.backward_matrix]
    else:
        x, y = cert.witness
        out["witness"] = (tuple(x.values), tuple(y.values))
    return out


# -------------------------------------------------------- corruptions

def bump(value):
    """A field pair (num, den) with its numerator's first coefficient
    moved off by 1/7."""
    num, den = value
    if not num:
        return (((0, Fraction(1, 7)),), den)
    (e, c), *rest = num
    return (((e, c + Fraction(1, 7)),) + tuple(rest), den)


def mass_off(row, at: int = 0):
    """A mass row with one entry moved off by 1/7."""
    row = list(row)
    row[at] += Fraction(1, 7)
    return tuple(row)


def drop_row(tab: dict) -> dict:
    out = dict(tab)
    del out[sorted(out)[-1]]
    return out


def flip(verdict: str) -> str:
    return "inequivalent" if verdict == "equivalent" else "equivalent"
