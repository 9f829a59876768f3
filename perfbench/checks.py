"""Output checks, computed apart from the program.

Every check takes plain data (tuples of ``Fraction``, dicts keyed by
sorted index tuples, strings) and raises :class:`CheckFailed` with a
reason when the output is wrong.  The expected values come from
:mod:`gen`, never from the program, or from a property the method must
have (a certificate that rebuilds its rows, coefficients that sum to one).
"""

from __future__ import annotations

from fractions import Fraction

import gen

ZERO = Fraction(0)


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------- field values
# A field element is a pair (num, den) of polynomial term tuples.

def _max_degree(value) -> int:
    num, den = value
    return max(gen.poly_degree(num), gen.poly_degree(den))


def check_field_masses(masses, schedule, rows, what: str) -> None:
    """Each mass equals sum(schedule[i] * rows[i][a]) as a rational
    function: both sides agree at more than 2*d values of eps."""
    reference = gen.embed(schedule, rows)
    expect(len(masses) == len(reference), f"{what}: {len(masses)} masses for {len(reference)} atoms")
    for a, (value, ref) in enumerate(zip(masses, reference)):
        num, den = value
        expect(den, f"{what}[{a}]: empty denominator")
        d = max(_max_degree(value), gen.poly_degree(ref))
        for t in gen.sample_points(2 * d + 1, [den]):
            expect(
                gen.poly_eval(num, t) == gen.poly_eval(den, t) * gen.poly_eval(ref, t),
                f"{what}[{a}] differs from the weighted sum at eps={t}",
            )


def _is_distribution(row) -> bool:
    return all(x >= 0 for x in row) and sum(row, ZERO) == 1


def check_decomposition(coeffs, layers, schedule, rows, what: str) -> None:
    """Coefficients are positive with strictly rising order, sum to one,
    and with the layers rebuild the source measure."""
    expect(coeffs and len(coeffs) == len(layers), f"{what}: {len(coeffs)} coefficients for {len(layers)} layers")
    for i, layer in enumerate(layers):
        expect(_is_distribution(layer), f"{what}: layer {i} is not a probability vector")
    orders = []
    for i, (num, den) in enumerate(coeffs):
        expect(num and den, f"{what}: coefficient {i} is zero")
        sign = (num[0][1] > 0) == (den[0][1] > 0)
        expect(sign, f"{what}: coefficient {i} is not positive")
        orders.append(num[0][0] - den[0][0])
    expect(
        all(a < b for a, b in zip(orders, orders[1:])),
        f"{what}: coefficient orders {orders} do not rise strictly",
    )
    reference = gen.embed(schedule, rows)
    dens = [den for _, den in coeffs]
    bound = sum(_max_degree(c) for c in coeffs) + max(gen.poly_degree(r) for r in reference)
    for t in gen.sample_points(bound + 1, dens):
        values = [gen.poly_eval(n, t) / gen.poly_eval(d, t) for n, d in coeffs]
        expect(sum(values, ZERO) == 1, f"{what}: coefficients do not sum to 1 at eps={t}")
        for a, ref in enumerate(reference):
            built = sum((v * layer[a] for v, layer in zip(values, layers)), ZERO)
            expect(built == gen.poly_eval(ref, t), f"{what}: layers do not rebuild atom {a} at eps={t}")


# ---------------------------------------------------------------- certificates

def _triangular(matrix) -> bool:
    return all(
        row[i] > 0 and all(x == 0 for x in row[i + 1:]) for i, row in enumerate(matrix)
    )


def check_equivalent(cert: dict, src_rows, dst_rows, what: str) -> None:
    """An 'equivalent' certificate whose matrices rebuild each side from
    the other, on systems linked to the benchmark's own source rows."""
    expect(cert["verdict"] == "equivalent", f"{what}: verdict {cert['verdict']}, expected equivalent")
    expect("forward" in cert and "backward" in cert, f"{what}: no transform matrices")
    lhs, rhs = cert["lhs"], cert["rhs"]
    for name, matrix, a, b in (("forward", cert["forward"], lhs, rhs), ("backward", cert["backward"], rhs, lhs)):
        expect(len(matrix) == len(b) == len(a), f"{what}: {name} matrix has the wrong size")
        expect(_triangular(matrix), f"{what}: {name} matrix is not lower triangular with positive diagonal")
        for i, row in enumerate(matrix):
            expect(gen.combine(row, a) == tuple(b[i]), f"{what}: {name} matrix does not rebuild row {i}")
    expect(gen.triangular_link(src_rows, lhs), f"{what}: left system is not a transform of its source")
    expect(gen.triangular_link(dst_rows, rhs), f"{what}: right system is not a transform of its source")


def check_aeq(cert: dict, rows_a, rows_b, what: str) -> None:
    """Either verdict, proven by its certificate: matrices for
    'equivalent', a witness the two sources order differently otherwise."""
    if cert["verdict"] == "equivalent":
        check_equivalent(cert, rows_a, rows_b, what)
        return
    expect(cert["verdict"] == "inequivalent", f"{what}: unknown verdict {cert['verdict']}")
    expect(cert.get("witness") is not None, f"{what}: no witness")
    x, y = cert["witness"]
    expect(
        gen.lex_sign(rows_a, x, y) != gen.lex_sign(rows_b, x, y),
        f"{what}: witness does not separate the systems",
    )


# ---------------------------------------------------------------- tables

def check_table(table: dict, expected: dict, what: str) -> None:
    missing = sorted(set(expected) - set(table))
    extra = sorted(set(table) - set(expected))
    expect(not missing, f"{what}: no row for {missing[:3]}")
    expect(not extra, f"{what}: unexpected rows for {extra[:3]}")
    for ev in sorted(expected):
        expect(tuple(table[ev]) == expected[ev], f"{what}: row for {list(ev)} differs")


def check_rows(rows, expected, what: str) -> None:
    expect(len(rows) == len(expected), f"{what}: {len(rows)} levels, expected {len(expected)}")
    for i, (row, ref) in enumerate(zip(rows, expected)):
        expect(tuple(row) == tuple(ref), f"{what}: level {i} differs")


def check_treelike(levels, table: dict, what: str) -> None:
    """The first level positive on u, conditioned on u, is the table row."""
    n = len(next(iter(table.values())))
    for i, row in enumerate(levels):
        expect(_is_distribution(row), f"{what}: level {i} is not a probability vector")
    for u, expected in sorted(table.items()):
        first = next((row for row in levels if sum((row[a] for a in u), ZERO) > 0), None)
        expect(first is not None, f"{what}: no level is positive on {list(u)}")
        total = sum((first[a] for a in u), ZERO)
        got = tuple(first[a] / total if a in u else ZERO for a in range(n))
        expect(got == tuple(expected), f"{what}: first positive level given {list(u)} differs from the table")


def popper_indep(table: dict, n: int, u, v, given) -> bool:
    """Independence of u from v given an event, in the conditional space
    ``table``: vacuous when u & given is not conditionable."""
    given = tuple(range(n)) if given is None else given
    ug = tuple(sorted(set(u) & set(given)))
    if ug not in table:
        return True
    return sum((table[ug][a] for a in v), ZERO) == sum((table[given][a] for a in v), ZERO)


def fincof_counting(v, u) -> Fraction:
    """|v & u| / |u| for a finite u, v finite or cofinite."""
    (v_mode, vs), (_, us) = v, u
    meet = us & vs if v_mode == "finite" else us - vs
    return Fraction(len(meet), len(us))
