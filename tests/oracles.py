"""Reference implementations that decide a result from its definition.

They are slow and written for clarity; the tests compare the library's
fast paths against them on small seeded spaces.
"""

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from extprob.errors import AlgebraMismatchError, LengthMismatchError, UnlimitedError
from extprob.jsonio import RATIONAL_MAX_DIGITS, ParseError
from extprob.field import ONE, ZERO, NonstdNumber, st_ratio
from extprob.lps import LPS, EquivCertificate, _split_witness, equivalence
from extprob.npsbridge import Decomposition, nps_to_lps
from extprob.popper import (
    PopperSpace,
    _chain_rule_on_atoms,
    _cp_findings,
    _integer_rows,
    _nested_pairs,
    _treelike_findings,
)
from extprob.spaces import (
    NonstdMeasure,
    StdMeasure,
    algebra_findings,
    refuse_over_limit,
    subsets,
)


def _key(ev):
    return tuple(sorted(ev))


def label_family(space):
    """Forest labelling by fixpoint: level k starts from the maximal
    unlabelled events (at level 0 these are the roots), and every event some
    level-k event gives positive probability joins level k."""
    fam = list(space.conditioning_events)
    labels = {}
    level = 0
    while len(labels) < len(fam):
        unlabelled = [u for u in fam if u not in labels]
        seeds = [u for u in unlabelled if not any(u < v for v in unlabelled)]
        for u in seeds:
            labels[u] = level
        changed = True
        while changed:
            changed = False
            for u in fam:
                if u in labels:
                    continue
                for v in fam:
                    if labels.get(v) == level and space.conditional(u, v) > 0:
                        labels[u] = level
                        changed = True
                        break
        level += 1
    return labels


def treelike_levels(space):
    """Mass rows of the forest construction built from :func:`label_family`:
    level k mixes, with uniform weights, the conditionals given the maximal
    events labelled k, taken in sorted order."""
    labels = label_family(space)
    rows = []
    for k in range(max(labels.values()) + 1):
        at_level = [u for u, lab in labels.items() if lab == k]
        maximal = sorted(
            (u for u in at_level if not any(u < v for v in at_level)), key=_key
        )
        weight = Fraction(1, len(maximal))
        rows.append(tuple(
            sum((space.table[u].mass[a] * weight for u in maximal), Fraction(0))
            for a in range(space.algebra.n_atoms)
        ))
    return tuple(rows)


def _cps_findings(space):
    out = []
    fam = space.conditioning_events
    if frozenset() in fam:
        out.append("conditioning family contains the empty event")
    for u in fam:
        row = space.table.get(u)
        if row is None:
            out.append(f"no conditional stored for {sorted(u)}")
            continue
        out.extend(row.invariant_findings(where=f"conditional given {sorted(u)}"))
        if row.event_mass(u) != 1:
            out.append(
                f"CP1: mu({sorted(u)} | {sorted(u)}) = {row.event_mass(u)}, not 1"
            )
    # Chain rule over nested pairs of conditioning events, all sub-events.
    for u in fam:
        if u not in space.table:
            continue
        for x in fam:
            if x not in space.table or not (x <= u):
                continue
            x_given_u = space.conditional(x, u)
            for v_tuple in subsets(sorted(x)):
                v = frozenset(v_tuple)
                lhs = space.conditional(v, u)
                rhs = space.conditional(v, x) * x_given_u
                if lhs != rhs:
                    out.append(
                        f"CP3: mu({sorted(v)}|{sorted(u)}) = {lhs} but "
                        f"mu({sorted(v)}|{sorted(x)}) * mu({sorted(x)}|{sorted(u)}) = {rhs}"
                    )
    return out


def _popper_closure_findings(space):
    out = []
    fam = space.family()
    full = space.algebra.full_event()
    for u in space.conditioning_events:
        for extra in subsets(sorted(full - u)):
            v = u | frozenset(extra)
            if v not in fam:
                out.append(
                    f"closure: {sorted(u)} in family but superset {sorted(v)} is not"
                )
        if u not in space.table:
            continue
        for v_tuple in subsets(sorted(u)):
            v = frozenset(v_tuple)
            if v and space.conditional(v, u) != 0 and v not in fam:
                out.append(
                    f"closure: mu({sorted(v)}|{sorted(u)}) > 0 but {sorted(v)} not in family"
                )
    return out


def _closure_by_frozensets(space):
    """``popper._popper_closure_findings`` by its earlier route: the
    one-atom and singleton shortcuts on a ``frozenset`` per (event, atom)
    pair and on the ``Fraction`` masses."""
    fam = space.family()
    full = space.algebra.full_event()
    closed = all(u | {a} in fam for u in fam for a in full - u)
    out = []
    for u in space.conditioning_events:
        if not closed:
            for extra in subsets(sorted(full - u)):
                v = u | frozenset(extra)
                if v not in fam:
                    out.append(
                        f"closure: {sorted(u)} in family but superset {sorted(v)} is not"
                    )
        row = space.table.get(u)
        if row is None:
            continue
        if closed and all(frozenset({a}) in fam for a in u if row.mass[a] != 0):
            continue
        for v_tuple in subsets(sorted(u)):
            v = frozenset(v_tuple)
            if v and space.conditional(v, u) != 0 and v not in fam:
                out.append(
                    f"closure: mu({sorted(v)}|{sorted(u)}) > 0 but {sorted(v)} not in family"
                )
    return out


def popper_findings(space, level):
    """Findings of Popper validation at ``level``, from the exhaustive
    check: the chain rule on every sub-event of every nested pair, and
    closure over every superset and every positive sub-event.  The
    treelike findings are the library's own (no shortcut touches them)."""
    findings = algebra_findings(space.algebra)
    if findings:
        return findings
    findings = _cps_findings(space)
    if level == "popper":
        findings += _popper_closure_findings(space)
    elif level == "treelike":
        findings += _treelike_findings(space)
    return findings


def _cp3_findings_by_fractions(space, rows, pairs):
    out = []
    for x, u in pairs:
        if _chain_rule_on_atoms(rows, x, u):
            continue
        x_given_u = space.conditional(x, u)
        refuse_over_limit(f"listing the CP3 findings on {sorted(x)}", 2 ** len(x))
        for v_tuple in subsets(sorted(x)):
            v = frozenset(v_tuple)
            lhs = space.conditional(v, u)
            rhs = space.conditional(v, x) * x_given_u
            if lhs != rhs:
                out.append(
                    f"CP3: mu({sorted(v)}|{sorted(u)}) = {lhs} but "
                    f"mu({sorted(v)}|{sorted(x)}) * mu({sorted(x)}|{sorted(u)}) = {rhs}"
                )
    return out


def validate_popper_by_covering_pairs(space, level):
    """Findings of ``validate_popper`` by its earlier route: at the popper
    level the chain rule on every covering pair (x, x | {a}) stands for a
    closed family with CP1 and no other finding, and otherwise every nested
    pair is tested, each failing one worded sub-event by sub-event on
    ``Fraction``s."""
    findings = algebra_findings(space.algebra)
    if findings:
        return findings
    rows = _integer_rows(space)
    findings = _cp_findings(space, rows)
    if rows is None:
        return findings
    if level == "popper":
        closure = _closure_by_frozensets(space)
        full = space.algebra.full_event()
        covering = [(x, x | {a}) for x in space.conditioning_events for a in full - x]
        if not findings and not closure and all(
            _chain_rule_on_atoms(rows, x, u) for x, u in covering
        ):
            return []
        findings += _cp3_findings_by_fractions(space, rows, _nested_pairs(space))
        findings += closure
    else:
        findings += _cp3_findings_by_fractions(space, rows, _nested_pairs(space))
        if level == "treelike":
            findings += _treelike_findings(space)
    return findings


def slps_to_popper_by_condition(slps):
    """The forward map in the measures' own arithmetic: every event is
    conditioned on by the first level whose event mass is positive."""
    table = {}
    for ev in slps.algebra.events():
        for m in slps.measures:
            if m.event_mass(ev) > 0:
                table[ev] = m.condition(ev)
                break
    return PopperSpace(slps.algebra, tuple(table), table)


def nps_to_popper_by_event_mass(nu):
    """The conditional-space image in the field's own arithmetic: every
    event of nonzero mass, each conditional the ``st_ratio`` of an atom's
    mass and the event's."""
    table = {}
    for ev in nu.algebra.events():
        total = nu.event_mass(ev)
        if total.is_zero:
            continue
        row = tuple(
            st_ratio(nu.mass[a], total) if a in ev else Fraction(0)
            for a in range(nu.algebra.n_atoms)
        )
        table[ev] = StdMeasure(nu.algebra, row)
    return PopperSpace(nu.algebra, tuple(table), table)


def simeq_by_images(a, b):
    """Coarse equivalence from its definition: the conditional-space images,
    built over every event of nonzero mass, are equal."""
    return nps_to_popper_by_event_mass(a) == nps_to_popper_by_event_mass(b)


def pair_standard_part_by_sum(nu, i, j):
    """Standard part of nu({i} | {i, j}) from the summed pair mass, or None
    when it is zero."""
    total = nu.mass[i] + nu.mass[j]
    return None if total.is_zero else st_ratio(nu.mass[i], total)


def simeq_by_pair_sums(a, b):
    """``npsbridge.nps_equiv_simeq`` with every pair conditional read off
    the summed pair mass."""
    n = a.algebra.n_atoms
    for i in range(n):
        if a.mass[i].is_zero != b.mass[i].is_zero:
            return False
        for j in range(i + 1, n):
            if pair_standard_part_by_sum(a, i, j) != pair_standard_part_by_sum(b, i, j):
                return False
    return True


def compose_by_numbers(lps, coefficients):
    """The weighted sum ``sum(coefficients[i] * lps[i])`` in field
    arithmetic, atom by atom."""
    masses = tuple(
        sum((c * m.mass[a] for c, m in zip(coefficients, lps.measures, strict=True)), ZERO)
        for a in range(lps.algebra.n_atoms)
    )
    return NonstdMeasure(lps.algebra, masses)


def verify_aeqchar_by_equivalence(lps, coefficients):
    """``npsbridge.verify_aeqchar`` re-proving the embedding: after the
    schedule checks (positive, summing to one, orders strictly rising),
    the weighted sum is decomposed and its layers are decided equivalent
    to the system."""
    coeffs = tuple(NonstdNumber.coerce(c) for c in coefficients)
    if len(coeffs) != len(lps):
        raise LengthMismatchError(f"{len(coeffs)} coefficients for {len(lps)} measures")
    if any(c.sign() <= 0 for c in coeffs) or sum(coeffs, ZERO) != ONE:
        return False
    if any(late.order() <= early.order() for early, late in zip(coeffs, coeffs[1:])):
        return False
    return equivalence(nps_to_lps(compose_by_numbers(lps, coeffs)).lps, lps).equivalent


def standard_layers_by_st_ratio(nu):
    """Layered peeling in field arithmetic without division: layer k is
    the ``st_ratio`` of each residual entry and scale k, the largest
    residual entry in absolute value."""
    layers = []
    scales = []
    residual = list(nu.mass)
    scale = ONE
    for _ in range(nu.algebra.n_atoms + 1):
        layer = [st_ratio(r, scale) for r in residual]
        layers.append(layer)
        scales.append(scale)
        residual = [r - scale * s for r, s in zip(residual, layer)]
        scale = max((abs(r) for r in residual), default=ZERO)
        if scale.is_zero:
            break
    else:
        raise AssertionError("residual failed to vanish within the atom bound")
    return layers, scales


def nps_to_lps_by_numbers(nu):
    """``npsbridge.nps_to_lps`` in field and ``Fraction`` arithmetic: each
    negative layer entry is repaired with the sum of every earlier layer,
    summed afresh for each atom."""
    layers, scales = standard_layers_by_st_ratio(nu)
    measures = [StdMeasure(nu.algebra, tuple(layers[0]))]
    coeffs = [scales[0]]
    for m in range(1, len(layers)):
        layer = layers[m]
        scale = scales[m]
        shortfall = Fraction(0)
        for i, value in enumerate(layer):
            if value < 0:
                cushion = sum((mu.mass[i] for mu in measures), Fraction(0))
                shortfall = max(shortfall, -value / cushion)
        if shortfall:
            layer = [
                value + shortfall * sum((mu.mass[i] for mu in measures), Fraction(0))
                for i, value in enumerate(layer)
            ]
            coeffs = [c - shortfall * scale for c in coeffs]
        total = sum(layer, Fraction(0))
        measures.append(StdMeasure(nu.algebra, tuple(v / total for v in layer)))
        coeffs.append(scale * total)
    return Decomposition(LPS(nu.algebra, tuple(measures)), tuple(coeffs))


def standard_layers(nu):
    """Layered peeling by exact division: the residual is divided by its
    largest entry at every step, the layer is its standard part, and the
    scale is the running product of the divisors."""
    layers = []
    scales = []
    current = list(nu.mass)
    scale = ONE
    for _ in range(nu.algebra.n_atoms + 1):
        std = [m.standard_part() for m in current]
        layers.append(std)
        scales.append(scale)
        residual = [m - NonstdNumber.from_fraction(s) for m, s in zip(current, std)]
        step = max((abs(r) for r in residual), default=ZERO)
        if step.is_zero:
            break
        current = [r / step for r in residual]
        scale = scale * step
    else:
        raise AssertionError("residual failed to vanish within the atom bound")
    return layers, scales


def reduce_lps_by_levels(lps):
    """``lps.reduce_lps`` level by level: a level is kept when it is not a
    combination of the levels kept before it, one solve per level."""
    kept = []
    rows = []
    for m in lps.measures:
        if solve_combination_over_fractions(rows, m.mass) is None:
            kept.append(m)
            rows.append(m.mass)
    return LPS(lps.algebra, tuple(kept))


def triangular_coeffs_by_prefix(src_rows, dst_rows):
    """``lps._triangular_coeffs`` prefix by prefix: level i of dst is
    solved over src_rows[0..i] alone.  Returns the lower-triangular rows
    and the first level that fails (None when none does)."""
    out = []
    for i in range(max(len(src_rows), len(dst_rows))):
        if i >= len(src_rows) or i >= len(dst_rows):
            return tuple(out), i
        coeffs = solve_combination_over_fractions(src_rows[: i + 1], dst_rows[i])
        if coeffs is None or coeffs[i] <= 0:
            return tuple(out), i
        padded = tuple(coeffs) + tuple(Fraction(0) for _ in range(len(dst_rows) - i - 1))
        out.append(padded)
    return tuple(out), None


def separating_vector(rows_a, rows_b, n):
    """Atom vector z whose first nonzero level signs differ between the
    two row families, or None when the lexicographic sign functions agree.

    Enumerates the candidate decision levels (i, j); for each it solves, on
    the subspace annihilated by the earlier rows of both families, for a
    vector that is strictly positive at level i of one family and strictly
    negative (or absent) at level j of the other.
    """
    ha, hb = len(rows_a), len(rows_b)
    for i in range(ha + 1):
        for j in range(hb + 1):
            if i == ha and j == hb:
                continue
            constraints = list(rows_a[:i]) + list(rows_b[:j])
            basis = nullspace_basis_over_fractions(constraints, n)
            if not basis:
                continue
            f = _restrict_over_fractions(rows_a[i], basis) if i < ha else None
            g = _restrict_over_fractions(rows_b[j], basis) if j < hb else None
            z = _pick_signed(f, g, basis, n)
            if z is not None:
                return z
    return None


def _pick_signed(f, g, basis, n):
    """Coordinates in span(basis) with f > 0 and g < 0 (None = unconstrained)."""
    def assemble(coords):
        vec = [Fraction(0)] * n
        for c, b in zip(coords, basis):
            for a in range(n):
                vec[a] += c * b[a]
        return tuple(vec)

    m = len(basis)
    if f is not None and g is not None:
        if all(x == 0 for x in f) or all(x == 0 for x in g):
            return None
        columns = [(f[j], g[j]) for j in range(m)]
        coords = solve_combination_over_fractions(columns, (Fraction(1), Fraction(-1)))
        if coords is not None:
            return assemble(coords)
        # g proportional to f; separation only if the factor is negative.
        k = next(i for i in range(m) if f[i] != 0)
        lam = g[k] / f[k]
        if lam >= 0:
            return None
        coords = solve_combination_over_fractions([(x,) for x in f], (Fraction(1),))
        return assemble(coords)
    h, want = (f, Fraction(1)) if f is not None else (g, Fraction(-1))
    if all(x == 0 for x in h):
        return None
    coords = solve_combination_over_fractions([(x,) for x in h], (want,))
    return assemble(coords)


def matrix_rebuilds_by_fractions(matrix, src, dst):
    """``lps._matrix_rebuilds`` in Fraction arithmetic: each row is zero
    above the diagonal, positive on it, and its weighted sum of the
    ``src`` levels is the ``dst`` level, atom by atom."""
    if matrix is None or len(matrix) != len(dst) or len(src) != len(dst):
        return False
    n = src.algebra.n_atoms
    for i, row in enumerate(matrix):
        if len(row) != len(dst):
            return False
        if row[i] <= 0 or any(row[j] != 0 for j in range(i + 1, len(row))):
            return False
        built = tuple(
            sum((row[j] * src.measures[j].mass[a] for j in range(i + 1)), Fraction(0))
            for a in range(n)
        )
        if built != dst.measures[i].mass:
            return False
    return True


def equivalence_by_search(a, b):
    """Equivalence certificate from the two-sided triangular test and, when
    it fails, a search over every pair of levels (i, j) for a separating
    vector on the null space of the rows above them."""
    rows_a = [m.mass for m in reduce_lps_by_levels(a).measures]
    rows_b = [m.mass for m in reduce_lps_by_levels(b).measures]
    forward, level = triangular_coeffs_by_prefix(rows_a, rows_b)
    backward, back_level = triangular_coeffs_by_prefix(rows_b, rows_a)
    if level is None and back_level is None:
        return EquivCertificate(
            "equivalent", a, b, forward_matrix=forward, backward_matrix=backward
        )
    z = separating_vector(rows_a, rows_b, a.algebra.n_atoms)
    assert z is not None, "triangular criterion failed but no separating variable exists"
    return EquivCertificate("inequivalent", a, b, witness=_split_witness(a.algebra, z))


def _reduce_over_fractions(mat, ncols):
    """Gauss-Jordan on ``mat`` in place over its first ``ncols`` columns.

    Columns are taken left to right, each pivoting on the first nonzero row
    at or below the current one.  Returns the pivot columns; pivot row i is
    row i of the reduced matrix.
    """
    piv_cols = []
    for col in range(ncols):
        r = len(piv_cols)
        if r == len(mat):
            break
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        factor = mat[r][col]
        mat[r] = [x / factor for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        piv_cols.append(col)
    return piv_cols


def _fractions(rows):
    """Rows as lists of Fractions: dividing two int entries would give a
    float, so the Gauss-Jordan above takes Fractions only."""
    return [[Fraction(x) for x in row] for row in rows]


def solve_combination_over_fractions(rows, target):
    """``_linalg.solve_combination`` by Gauss-Jordan over Fractions."""
    if not rows:
        return [] if all(x == 0 for x in target) else None
    m = len(rows)
    aug = _fractions([[row[i] for row in rows] + [target[i]] for i in range(len(rows[0]))])
    piv_cols = _reduce_over_fractions(aug, m)
    if any(row[m] != 0 for row in aug[len(piv_cols):]):
        return None
    coeffs = [Fraction(0)] * m
    for row, col in enumerate(piv_cols):
        coeffs[col] = aug[row][m]
    return coeffs


def nullspace_basis_over_fractions(rows, n):
    """``_linalg.nullspace_basis`` by Gauss-Jordan over Fractions."""
    mat = _fractions(row for row in rows if any(x != 0 for x in row))
    piv_cols = _reduce_over_fractions(mat, n)
    basis = []
    for fc in (c for c in range(n) if c not in piv_cols):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(piv_cols):
            vec[pc] = -mat[row_idx][fc]
        basis.append(tuple(vec))
    return basis


def solve_combinations_over_fractions(rows, targets):
    """``_linalg.solve_combinations`` on rational rows, one Gauss-Jordan
    over Fractions per target."""
    return [solve_combination_over_fractions(rows, t) for t in targets]


def reduce_lps_over_fractions(lps):
    """``lps.reduce_lps`` by its earlier route: the pivot columns of the
    transposed ``Fraction`` masses, by Gauss-Jordan over Fractions."""
    columns = _fractions(
        [m.mass[a] for m in lps.measures] for a in range(lps.algebra.n_atoms)
    )
    kept = _reduce_over_fractions(columns, len(lps.measures))
    return LPS(lps.algebra, tuple(lps.measures[i] for i in kept))


def _restrict_over_fractions(functional, basis):
    return tuple(
        sum((functional[a] * vec[a] for a in range(len(functional))), Fraction(0))
        for vec in basis
    )


def separate_at_over_fractions(rows_a, rows_b, i, n):
    """``lps._separate_at`` by its earlier route, on rational rows: a
    ``Fraction`` null-space basis, level i restricted to it by ``Fraction``
    sums and solved for (1, -1), or the one present level for +1 or -1."""
    basis = nullspace_basis_over_fractions(rows_a[:i] + rows_b[:i], n)
    f = _restrict_over_fractions(rows_a[i], basis) if i < len(rows_a) else None
    g = _restrict_over_fractions(rows_b[i], basis) if i < len(rows_b) else None
    coords = None
    if f is not None and g is not None:
        coords = solve_combination_over_fractions(
            list(zip(f, g)), (Fraction(1), Fraction(-1))
        )
    if coords is None:
        h, want = (f, Fraction(1)) if f is not None else (g, Fraction(-1))
        coords = solve_combination_over_fractions([(x,) for x in h], (want,))
    return tuple(
        sum((c * vec[a] for c, vec in zip(coords, basis)), Fraction(0)) for a in range(n)
    )


def shortfall_over_fractions(row, d, cushion, cushion_den):
    """The repair step of ``npsbridge.nps_to_lps`` by its earlier route:
    the largest of 0 and ``-(x / d) / (c / cushion_den)`` over the negative
    entries x of the layer, as ``Fraction``s."""
    shortfall = Fraction(0)
    for x, c in zip(row, cushion):
        if x < 0:
            shortfall = max(shortfall, -Fraction(x, d) / Fraction(c, cushion_den))
    return shortfall


_RATIONAL_TEXT = re.compile(rf"-?[0-9]{{1,{RATIONAL_MAX_DIGITS}}}(?:/[0-9]{{1,{RATIONAL_MAX_DIGITS}}})?")


def parse_rational_by_str(text):
    """``jsonio.parse_rational`` read in two passes: the grammar matched,
    then the whole text parsed again by ``Fraction(str)``."""
    if not _RATIONAL_TEXT.fullmatch(str(text)):
        raise ParseError(
            f"bad rational {text!r}: expected an integer or a/b with at most "
            f"{RATIONAL_MAX_DIGITS} digits in each part"
        )
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None


# ------------------------------------------------ the field over Fractions

def _accumulate(acc, exp, coeff):
    if exp in acc:
        c = acc[exp] + coeff
        if c:
            acc[exp] = c
        else:
            del acc[exp]
    elif coeff:
        acc[exp] = coeff


def _norm_terms(pairs):
    combined = {}
    for exp, coeff in pairs:
        _accumulate(combined, exp, coeff)
    return tuple(sorted(combined.items()))


@dataclass(frozen=True)
class FractionPolynomial:
    """Polynomial in eps with ``Fraction`` coefficients: ``terms`` is a
    tuple of ``(exponent, coefficient)`` pairs, exponents increasing, no
    zero coefficient."""

    terms: tuple

    @classmethod
    def from_pairs(cls, pairs):
        return cls(_norm_terms((int(e), Fraction(c)) for e, c in pairs))

    @property
    def is_zero(self):
        return not self.terms

    def order(self):
        return self.terms[0][0] if self.terms else math.inf

    def degree(self):
        return self.terms[-1][0] if self.terms else -1

    def trailing_coeff(self):
        return self.terms[0][1] if self.terms else Fraction(0)

    def leading_coeff(self):
        return self.terms[-1][1] if self.terms else Fraction(0)

    def __add__(self, other):
        return FractionPolynomial(_norm_terms(self.terms + other.terms))

    def __neg__(self):
        return FractionPolynomial(tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other):
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                _accumulate(acc, e1 + e2, c1 * c2)
        return FractionPolynomial(tuple(sorted(acc.items())))

    def scale(self, k):
        if k == 0:
            return _FP_ZERO
        return FractionPolynomial(tuple((e, c * k) for e, c in self.terms))

    def shift(self, k):
        return FractionPolynomial(tuple((e + k, c) for e, c in self.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for i, (e, c) in enumerate(self.terms):
            if e == 0:
                body = str(c)
            else:
                mag = "eps" if e == 1 else f"eps^{e}"
                if c == 1:
                    body = mag
                elif c == -1:
                    body = f"-{mag}"
                else:
                    body = f"{c}*{mag}"
            if i == 0:
                parts.append(body)
            elif body.startswith("-"):
                parts.append(f" - {body[1:]}")
            else:
                parts.append(f" + {body}")
        return "".join(parts)


_FP_ZERO = FractionPolynomial(())
_FP_ONE = FractionPolynomial(((0, Fraction(1)),))


def fraction_divmod(a, b):
    """Quotient and remainder of long division over the rationals."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = dict(a.terms)
    quo = {}
    b_deg = b.degree()
    b_lead = b.leading_coeff()
    while rem:
        r_deg = max(rem)
        if r_deg < b_deg:
            break
        factor = rem[r_deg] / b_lead
        shift = r_deg - b_deg
        _accumulate(quo, shift, factor)
        factor = -factor
        for e, c in b.terms:
            _accumulate(rem, e + shift, factor * c)
    return (
        FractionPolynomial(tuple(sorted(quo.items()))),
        FractionPolynomial(tuple(sorted(rem.items()))),
    )


def fraction_poly_gcd(a, b):
    """Monic gcd by Euclid's algorithm over the rationals."""
    while not b.is_zero:
        a, b = b, fraction_divmod(a, b)[1]
    if a.is_zero:
        return _FP_ZERO
    return a.scale(1 / a.leading_coeff())


@dataclass(frozen=True)
class FractionNumber:
    """``field.NonstdNumber`` over :class:`FractionPolynomial`, in the same
    canonical form; every operation is the general one, through
    :meth:`make`, with no shortcut for a rational operand or a shared
    denominator, and ordering is the sign of the difference."""

    num: FractionPolynomial
    den: FractionPolynomial

    @staticmethod
    def make(num, den):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            return FractionNumber(_FP_ZERO, _FP_ONE)
        k = min(num.order(), den.order())
        num, den = num.shift(-k), den.shift(-k)
        g = fraction_poly_gcd(num, den)
        if g.degree() > 0:
            num = fraction_divmod(num, g)[0]
            den = fraction_divmod(den, g)[0]
        t = den.trailing_coeff()
        return FractionNumber(num.scale(1 / t), den.scale(1 / t))

    @classmethod
    def of(cls, value):
        """The number with the terms of a ``NonstdNumber``, or a rational."""
        if isinstance(value, NonstdNumber):
            num, den = value.num.terms, value.den.terms
        else:
            num, den = ((0, Fraction(value)),), ((0, Fraction(1)),)
        return cls.make(FractionPolynomial.from_pairs(num), FractionPolynomial.from_pairs(den))

    @property
    def is_zero(self):
        return self.num.is_zero

    def __add__(self, other):
        return FractionNumber.make(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return FractionNumber(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return FractionNumber.make(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("division by zero")
        return FractionNumber.make(self.num * other.den, self.den * other.num)

    def sign(self):
        if self.num.is_zero:
            return 0
        return 1 if self.num.trailing_coeff() > 0 else -1

    def compare(self, other):
        return (self - other).sign()

    def standard_part(self):
        if self.num.is_zero:
            return Fraction(0)
        o = self.num.order() - self.den.order()
        if o > 0:
            return Fraction(0)
        if o < 0:
            raise UnlimitedError(f"{self} has no standard part")
        return self.num.trailing_coeff() / self.den.trailing_coeff()

    def __hash__(self):
        if self.den == _FP_ONE and self.num.degree() <= 0:
            return hash(self.num.trailing_coeff())
        return hash((self.num.terms, self.den.terms))

    def __str__(self):
        if self.den == _FP_ONE:
            return str(self.num)
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = f"({num})"
        return f"{num}/({self.den})"


def fraction_st_ratio(a, b):
    """Standard part of the exact quotient."""
    return (a / b).standard_part()


def invariant_findings_by_fractions(measure, where="measure"):
    """``StdMeasure.invariant_findings`` mass by mass: each mass compared
    with zero and the masses summed as ``Fraction``s."""
    out = []
    if len(measure.mass) != measure.algebra.n_atoms:
        out.append(f"{where}: {len(measure.mass)} masses for {measure.algebra.n_atoms} atoms")
        return out
    for i, m in enumerate(measure.mass):
        if m < 0:
            out.append(f"{where}: negative mass {m} at atom {i}")
    total = sum(measure.mass, start=Fraction(0))
    if not isinstance(total, Fraction):
        return out + [
            f"{where}: mass {m!r} at atom {i} is neither int nor Fraction"
            for i, m in enumerate(measure.mass)
            if not isinstance(m, (int, Fraction))
        ]
    if total != 1:
        out.append(f"{where}: masses sum to {total}, not 1")
    return out


def event_mass_by_fractions(measure, ev):
    """The mass of ``ev`` under a ``StdMeasure``, summed as ``Fraction``s."""
    return sum((measure.mass[i] for i in ev), start=Fraction(0))


def expectation_by_fractions(measure, rv):
    """E(rv) under a ``StdMeasure``, summed as ``Fraction``s."""
    if rv.algebra != measure.algebra:
        raise AlgebraMismatchError("random variable on a different algebra")
    return sum(
        (measure.mass[i] * rv.values[i] for i in range(len(measure.mass))),
        start=Fraction(0),
    )


def _approx_match_by_st_ratio(nu, u, v, given):
    """Standard parts of nu(v | u & given) and nu(v | given) agree, or
    u & given has mass zero."""
    ug = nu.event_mass(u & given)
    if ug.is_zero:
        return True
    return st_ratio(nu.event_mass(v & u & given), ug) == st_ratio(
        nu.event_mass(v & given), nu.event_mass(given)
    )


def approx_indep_set_by_enumeration(nu, x, ys):
    """``independence.approx_indep_set`` from its definition: every value
    subset of x against every pair of product sets of values of the ys,
    one inside the compared event and one in the conditioning event.  Each
    product set's event is built once per call."""
    ys = list(ys)
    for rv in [x] + ys:
        if rv.algebra != nu.algebra:
            raise AlgebraMismatchError("variables on a different algebra")
    y_ranges = [y.range_values() for y in ys]
    refuse_over_limit(
        f"checking set independence on {len(x.range_values())} values of x "
        f"and {[len(r) for r in y_ranges]} values of ys",
        2 ** len(x.range_values()) * 4 ** sum(len(r) for r in y_ranges),
        unit="event triples",
    )
    product_sets = []
    for choice in product(*(subsets(r) for r in y_ranges)):
        event = nu.algebra.full_event()
        for y, vals in zip(ys, choice):
            event &= y.preimage_event(vals)
        product_sets.append(event)
    for u_values in subsets(x.range_values()):
        u_event = x.preimage_event(u_values)
        for v_event in product_sets:
            for given in product_sets:
                if not _approx_match_by_st_ratio(nu, u_event, v_event, given):
                    return False
    return True
