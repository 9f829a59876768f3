"""Reference implementations that decide a result from its definition.

They are slow and written for clarity; the tests compare the library's
fast paths against them on small seeded spaces.
"""

import re
from fractions import Fraction

from extprob import _linalg
from extprob.jsonio import RATIONAL_MAX_DIGITS, ParseError
from extprob.field import ONE, ZERO, NonstdNumber
from extprob.lps import EquivCertificate, _restrict, _split_witness, reduce_lps
from extprob.npsbridge import nps_to_popper
from extprob.popper import PopperSpace, _treelike_findings
from extprob.spaces import algebra_findings, subsets


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


def simeq_by_images(a, b):
    """Coarse equivalence from its definition: the conditional-space images,
    built over every event of nonzero mass, are equal."""
    return nps_to_popper(a) == nps_to_popper(b)


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


def _triangular_coeffs(src_rows, dst_rows):
    """Lower-triangular rows expressing dst over src, or None."""
    out = []
    for i, target in enumerate(dst_rows):
        coeffs = _linalg.solve_combination(src_rows[: i + 1], target)
        if coeffs is None or coeffs[i] <= 0:
            return None
        padded = tuple(coeffs) + tuple(Fraction(0) for _ in range(len(dst_rows) - i - 1))
        out.append(padded)
    return tuple(out)


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
            basis = _linalg.nullspace_basis(constraints, n)
            if not basis:
                continue
            f = _restrict(rows_a[i], basis) if i < ha else None
            g = _restrict(rows_b[j], basis) if j < hb else None
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
        coords = _linalg.solve_combination(columns, (Fraction(1), Fraction(-1)))
        if coords is not None:
            return assemble(coords)
        # g proportional to f; separation only if the factor is negative.
        k = next(i for i in range(m) if f[i] != 0)
        lam = g[k] / f[k]
        if lam >= 0:
            return None
        coords = _linalg.solve_combination([(x,) for x in f], (Fraction(1),))
        return assemble(coords)
    h, want = (f, Fraction(1)) if f is not None else (g, Fraction(-1))
    if all(x == 0 for x in h):
        return None
    coords = _linalg.solve_combination([(x,) for x in h], (want,))
    return assemble(coords)


def equivalence_by_search(a, b):
    """Equivalence certificate from the two-sided triangular test and, when
    it fails, a search over every pair of levels (i, j) for a separating
    vector on the null space of the rows above them."""
    rows_a = [m.mass for m in reduce_lps(a).measures]
    rows_b = [m.mass for m in reduce_lps(b).measures]
    forward = backward = None
    if len(rows_a) == len(rows_b):
        forward = _triangular_coeffs(rows_a, rows_b)
        backward = _triangular_coeffs(rows_b, rows_a) if forward else None
    if forward and backward:
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
