"""Independence notions for events and random variables.

Three gradations of conditional independence for events: exact field
equality of conditionals, equality of their standard parts (approximate),
and equality inside a conditional-probability space.  Conditioning on a
zero-mass (or non-conditionable) event makes independence hold vacuously.

For random variables: weak independence checks approximate independence of
the point events in both directions; the set variant quantifies over all
value subsets and conditioning product sets, which weak independence does
not imply.  For nonnegative masses it is decided on single values of x,
joint values of the other variables and the boxes two such values span,
in time polynomial in the range sizes (see :func:`approx_indep_set`).
The nested mixture operator collapses a lexicographic system to a
single standard measure, and the witness verifier discharges the finite
obligations behind the two strong-independence characterizations (the
existence halves rest on compactness and stay with the caller).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .errors import AlgebraMismatchError, LengthMismatchError
from .field import st_ratio
from .lps import LPS, equivalence
from .npsbridge import nps_to_lps, nps_to_popper
from .popper import PopperSpace
from .spaces import Event, NonstdMeasure, RandomVariable, StdMeasure


def _exact_conditional_match(nu: NonstdMeasure, u: Event, v: Event, given: Event) -> bool:
    ug = nu.event_mass(u & given)
    if ug.is_zero:
        return True
    # Cross-multiplied form of nu(v | u & given) == nu(v | given).
    return nu.event_mass(v & u & given) * nu.event_mass(given) == nu.event_mass(
        v & given
    ) * ug


def _approx_conditional_match(nu: NonstdMeasure, u: Event, v: Event, given: Event) -> bool:
    ug = nu.event_mass(u & given)
    if ug.is_zero:
        return True
    return st_ratio(nu.event_mass(v & u & given), ug) == st_ratio(
        nu.event_mass(v & given), nu.event_mass(given)
    )


def _popper_conditional_match(space: PopperSpace, u: Event, v: Event, given: Event) -> bool:
    if (u & given) not in space.family():
        return True
    return space.conditional(v, u & given) == space.conditional(v, given)


def indep_events(model, u: Event, v: Event, given: Event = None, mode: str = "exact") -> bool:
    """Is u independent of v given the conditioning event?

    ``exact`` and ``approx`` expect an infinitesimal-valued measure,
    ``popper`` a conditional-probability space.  The relation is not
    symmetric in u and v.
    """
    if mode == "popper":
        if not isinstance(model, PopperSpace):
            raise TypeError("popper mode needs a PopperSpace")
        given = model.algebra.full_event() if given is None else given
        return _popper_conditional_match(model, u, v, given)
    if not isinstance(model, NonstdMeasure):
        raise TypeError(f"{mode} mode needs a NonstdMeasure")
    given = model.algebra.full_event() if given is None else given
    if mode == "exact":
        return _exact_conditional_match(model, u, v, given)
    if mode == "approx":
        return _approx_conditional_match(model, u, v, given)
    raise ValueError(f"unknown mode {mode!r}")


def weak_indep(
    nu: NonstdMeasure,
    x: RandomVariable,
    y: RandomVariable,
    require_product_range: bool = False,
) -> bool:
    """Point events of the two variables are approximately independent in
    both directions.  The optional flag additionally requires the joint
    range to be the full product of the individual ranges."""
    if x.algebra != nu.algebra or y.algebra != nu.algebra:
        raise AlgebraMismatchError("variables on a different algebra")
    full = nu.algebra.full_event()
    for xv in x.range_values():
        for yv in y.range_values():
            ex, ey = x.level_event(xv), y.level_event(yv)
            if require_product_range and not (ex & ey):
                return False
            if not _approx_conditional_match(nu, ex, ey, full):
                return False
            if not _approx_conditional_match(nu, ey, ex, full):
                return False
    return True


def approx_indep_set(nu: NonstdMeasure, x: RandomVariable, ys) -> bool:
    """Is x approximately independent of the whole set of variables?

    The definition asks, for every value set U of x and every pair of
    product sets V, V' of values of the ys, that st(nu(V | U & V')) equal
    st(nu(V | V')) whenever U & V' has nonzero mass.  For nonnegative
    masses, which this requires (as :func:`npsbridge.nps_equiv_simeq`
    does; the CLI validates every measure it loads), three reductions
    leave a check on value points and the boxes they span:

    - V reduces to points (joint values of the ys), because the standard
      part of a conditional is additive in the conditioned event.
    - U reduces to single values of x, because nu(V | U & V') is a
      mixture of the nu(V | u & V') with weights summing to one.
    - V' reduces to the boxes spanned by two distinct points (the points
      whose every coordinate is one of theirs).  For a value u the
      standard conditional on V' sits on the points of least order in V',
      in the ratio of their lowest-order coefficients.  Two points least
      in V' are least in the box they span, and a point least in V' is
      least in its box with any other point of V'; so the boxes fix,
      under each u as under nu, which points of V' are least and their
      ratios.  A box of one point conditions trivially.

    That is |range x| * N^2 * 2^k conditional reads for N points of k ys.
    """
    ys = list(ys)
    for rv in [x] + ys:
        if rv.algebra != nu.algebra:
            raise AlgebraMismatchError("variables on a different algebra")
    points = {}
    for atom, point in enumerate(zip(*(y.values for y in ys))):
        points[point] = points.get(point, frozenset()) | {atom}
    x_events = [x.level_event(u) for u in x.range_values()]
    for t, s in combinations(points, 2):
        spanned = [p for p in product(*({a, b} for a, b in zip(t, s))) if p in points]
        box = frozenset().union(*(points[p] for p in spanned))
        for u in x_events:
            for p in spanned:
                if not _approx_conditional_match(nu, u, points[p], box):
                    return False
    return True


def approx_indep_mutual(nu: NonstdMeasure, xs) -> bool:
    """Every variable approximately independent of all the others."""
    xs = list(xs)
    return all(
        approx_indep_set(nu, x, xs[:i] + xs[i + 1 :]) for i, x in enumerate(xs)
    )


def box_combine(lps: LPS, weights) -> StdMeasure:
    """Nested mixture: (1-r0) mu0 + r0 [(1-r1) mu1 + r1 [...]].

    Needs one weight per step down, so len(weights) == len(lps) - 1; every
    weight must lie strictly between 0 and 1.
    """
    weights = [Fraction(w) for w in weights]
    if len(weights) != len(lps) - 1:
        raise LengthMismatchError(
            f"{len(weights)} weights for a system of length {len(lps)}"
        )
    for w in weights:
        if not 0 < w < 1:
            raise ValueError(f"mixing weight {w} outside (0, 1)")
    acc = lps.measures[-1].mass
    for i in range(len(weights) - 1, -1, -1):
        r = weights[i]
        base = lps.measures[i].mass
        acc = tuple((1 - r) * b + r * a for b, a in zip(base, acc))
    return StdMeasure(lps.algebra, acc)


def exact_variable_independence(measure, xs) -> bool:
    """Joint mass factors into marginal masses for every value tuple."""
    xs = list(xs)
    ranges = [x.range_values() for x in xs]
    for combo in product(*ranges):
        joint = measure.algebra.full_event()
        for x, val in zip(xs, combo):
            joint &= x.level_event(val)
        lhs = measure.event_mass(joint)
        rhs = measure.event_mass(xs[0].level_event(combo[0]))
        for x, val in list(zip(xs, combo))[1:]:
            rhs = rhs * measure.event_mass(x.level_event(val))
        if lhs != rhs:
            return False
    return True


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of checking a strong-independence witness.

    ``checks`` holds (label, passed, detail) triples; ``caveats`` names the
    obligations that are inherently outside finite verification.
    """

    kind: str
    accepted: bool
    checks: tuple
    caveats: tuple

    def lines(self):
        out = [f"kind: {self.kind}", f"accepted: {str(self.accepted).lower()}"]
        for label, passed, detail in self.checks:
            status = "pass" if passed else "fail"
            out.append(f"{label}: {status}" + (f" ({detail})" if detail else ""))
        for c in self.caveats:
            out.append(f"caveat: {c}")
        return out


def _report(kind, checks, caveats):
    return WitnessReport(
        kind, all(ok for _, ok, _ in checks), tuple(checks), tuple(caveats)
    )


def verify_indep_witness(kind: str, target, xs, witness) -> WitnessReport:
    """Discharge the finite obligations of a strong-independence claim.

    - ``bbd-r``: target is a lexicographic system, witness a finite list of
      mixing-weight vectors; each mixture must make the variables exactly
      independent.
    - ``bbd-nps``: target is a lexicographic system, witness an
      infinitesimal-valued measure that must be equivalent to it and make
      the variables exactly independent.  Whether the witness's field is an
      elementary extension of the reals is not machine-checkable, and the
      rational-function field used here is not one; only equivalence and
      independence are verified.
    - ``kr-nps``: target is a conditional-probability space, witness a
      measure whose conditional-space image must equal it, with exact
      independence.
    - ``kr-seq``: target is a conditional-probability space, witness a
      finite list of standard measures, each positive on every family event
      and making the variables exactly independent; convergence of the
      infinite sequence is asserted by the caller, not verified.
    """
    xs = list(xs)
    if kind == "bbd-r":
        if not isinstance(target, LPS):
            raise TypeError("bbd-r target must be an LPS")
        checks = []
        for idx, weights in enumerate(witness):
            mixture = box_combine(target, weights)
            ok = exact_variable_independence(mixture, xs)
            checks.append(
                (f"mixture[{idx}] independence", ok, _weights_str(weights))
            )
        return _report(
            kind,
            checks,
            ["only a finite prefix of the weight sequence is checked; "
             "convergence to zero is asserted by the caller"],
        )
    if kind == "bbd-nps":
        if not isinstance(target, LPS) or not isinstance(witness, NonstdMeasure):
            raise TypeError("bbd-nps needs an LPS target and a NonstdMeasure witness")
        cert = equivalence(nps_to_lps(witness).lps, target)
        checks = [
            ("witness equivalent to target", cert.equivalent, cert.verdict),
            (
                "exact independence under witness",
                exact_variable_independence(witness, xs),
                "",
            ),
        ]
        return _report(
            kind,
            checks,
            ["elementarity of the witness field is not machine-checkable; "
             "the rational-function field is not an elementary extension, "
             "so only equivalence and independence were verified"],
        )
    if kind == "kr-nps":
        if not isinstance(target, PopperSpace) or not isinstance(witness, NonstdMeasure):
            raise TypeError("kr-nps needs a PopperSpace target and a NonstdMeasure witness")
        image = nps_to_popper(witness)
        checks = [
            ("conditional-space image equals target", image == target, ""),
            (
                "exact independence under witness",
                exact_variable_independence(witness, xs),
                "",
            ),
        ]
        return _report(kind, checks, [])
    if kind == "kr-seq":
        if not isinstance(target, PopperSpace):
            raise TypeError("kr-seq target must be a PopperSpace")
        checks = []
        for idx, m in enumerate(witness):
            positive = all(m.event_mass(ev) > 0 for ev in target.conditioning_events)
            indep = exact_variable_independence(m, xs)
            checks.append((f"measure[{idx}] positive on family", positive, ""))
            checks.append((f"measure[{idx}] independence", indep, ""))
        return _report(
            kind,
            checks,
            ["convergence of the measure sequence to the target is asserted "
             "by the caller, not verified"],
        )
    raise ValueError(f"unknown witness kind {kind!r}")


def _weights_str(weights):
    return "r=(" + ", ".join(str(Fraction(w)) for w in weights) + ")"
