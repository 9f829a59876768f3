"""Belief operators over the three model classes.

For a lexicographic system: certain belief (measure one at every level),
weak belief (measure one at the first level), and assumption (measure one
up to some level, zero after it, with the event covered by the supports of
the prefix levels; the covering condition is checked even on finite inputs
because arbitrary measures need not exhaust the space).  For a
conditional-probability space: strong belief (conditional one given every
family event) and its weak variant (only given family events of positive
unconditional probability).  For an infinitesimal-valued measure: certain
belief is mass exactly one, weak belief mass with standard part one.
"""

from __future__ import annotations

from typing import Optional

from .errors import KindMismatchError
from .lps import LPS
from .popper import PopperSpace
from .spaces import Event, NonstdMeasure

LPS_KINDS = ("certain", "weak", "assumed")
POPPER_KINDS = ("popper-strong", "popper-weak")
NPS_KINDS = ("nps-certain", "nps-weak")


def believes(model, event: Event, kind: str) -> tuple[bool, Optional[int]]:
    """Evaluate a belief operator; returns (holds, level).

    ``level`` is the witnessing level for a successful assumption query and
    None otherwise.
    """
    if kind in LPS_KINDS:
        if not isinstance(model, LPS):
            raise KindMismatchError(f"{kind} belief needs an LPS model")
        return _lps_belief(model, event, kind)
    if kind in POPPER_KINDS:
        if not isinstance(model, PopperSpace):
            raise KindMismatchError(f"{kind} belief needs a PopperSpace model")
        return _popper_belief(model, event, kind)
    if kind in NPS_KINDS:
        if not isinstance(model, NonstdMeasure):
            raise KindMismatchError(f"{kind} belief needs a NonstdMeasure model")
        return _nps_belief(model, event, kind)
    raise KindMismatchError(f"unknown belief kind {kind!r}")


def _lps_belief(model: LPS, event: Event, kind: str):
    masses = [m.event_mass(event) for m in model.measures]
    if kind == "certain":
        return (all(v == 1 for v in masses), None)
    if kind == "weak":
        return (masses[0] == 1, None)
    for beta in range(len(model)):
        prefix_one = all(v == 1 for v in masses[: beta + 1])
        suffix_zero = all(v == 0 for v in masses[beta + 1 :])
        if not (prefix_one and suffix_zero):
            continue
        covered = frozenset().union(
            *(m.support() for m in model.measures[: beta + 1])
        )
        if event <= covered:
            return (True, beta)
    return (False, None)


def _popper_belief(model: PopperSpace, event: Event, kind: str):
    family = model.conditioning_events
    if kind == "popper-strong":
        return (all(model.conditional(event, v) == 1 for v in family), None)
    full = model.algebra.full_event()
    relevant = [v for v in family if model.conditional(v, full) > 0]
    return (all(model.conditional(event, v) == 1 for v in relevant), None)


def _nps_belief(model: NonstdMeasure, event: Event, kind: str):
    mass = model.event_mass(event)
    if kind == "nps-certain":
        return (mass == 1, None)
    return (mass.is_limited and mass.standard_part() == 1, None)
