"""Exact linear feasibility over rationals, from integer rows.

Phase one of a dense-tableau primal simplex with Bland's anti-cycling rule.
Every variable is nonnegative and there is no objective: the solver returns
either a point that satisfies the constraints exactly or a Farkas
certificate of infeasibility that replays by pure arithmetic.  There is no
tolerance anywhere.

The tableau has four groups of columns: x; one surplus column per >=-row
(a.x - s = b); one artificial column per equality row; the right side.  A
>=-row's artificial is basic at the start like any other row's, but gets no
column: no pivot enters an artificial, so its column would only be read at
the end.  On an infeasible phase one, a >=-row's Farkas multiplier is the
reduced cost of its surplus column, and an equality row's comes from the
reduced cost of its artificial.

The rows go in as Python ints, coefficients and right side.  The point comes
out as `Fraction`s and the multipliers as ints: those of the final tableau,
all over its one positive denominator, which the certificate leaves out, for
a positive multiple of a Farkas certificate is one too.  The multipliers
are thus fixed only up to a positive factor.  A caller with rational rows
scales each one to integers itself, so a row's scale never depends on the
other rows: the tableau is the rows as given (a row with a negative right
side negated), every artificial costs 1, and a row added between solves
changes no other row.  Pivots are fraction-free (Edmonds/Bareiss): every
entry is an integer over one shared denominator, the previous pivot, which
each update divides out exactly, so no operation pays a gcd.  Both answers
replay in integers before they are returned: `check_point` puts the point
over one common denominator d and compares each integer row sum with the
right side times d, and `check_farkas` sums the integer rows with the
integer multipliers.

Built for the small, dense systems of the cutting-plane loop (tens of
variables, up to a few hundred rows), not for sparse large-scale work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

ZERO = Fraction(0)

Row = tuple[tuple[int, ...], int]


@dataclass
class LinearProgram:
    """Find x >= 0 with every equality row and every >=-row satisfied.
    A row is (coefficients, right side), all of type int."""

    num_vars: int
    eq_rows: list[Row] = field(default_factory=list)
    ge_rows: list[Row] = field(default_factory=list)

    def __post_init__(self):
        # fresh lists of Row tuples: adding a row never changes the caller's
        self.eq_rows = [self._row(coeffs, rhs) for coeffs, rhs in self.eq_rows]
        self.ge_rows = [self._row(coeffs, rhs) for coeffs, rhs in self.ge_rows]

    def add_ge(self, coeffs: Sequence[int], rhs: int) -> None:
        self.ge_rows.append(self._row(coeffs, rhs))

    def _row(self, coeffs: Sequence[int], rhs: int) -> Row:
        row = tuple(coeffs)
        if len(row) != self.num_vars:
            raise ValueError("row length does not match variable count")
        if any(type(x) is not int for x in (*row, rhs)):
            raise ValueError("LP rows take int coefficients and right sides only")
        return row, rhs


@dataclass(frozen=True)
class Feasible:
    point: tuple[Fraction, ...]


@dataclass(frozen=True)
class Infeasible:
    """A Farkas certificate: with y >= 0 on the >=-rows and free lambda on
    the equality rows, the combination sum(y_l * g_l) + sum(lambda_k * e_k)
    has a nonpositive coefficient on every variable and a strictly positive
    right side.  The multipliers are integers, fixed only up to a positive
    factor."""

    ge_multipliers: tuple[int, ...]
    eq_multipliers: tuple[int, ...]


LPResult = Union[Feasible, Infeasible]


def check_point(lp: LinearProgram, point: Sequence[Fraction]) -> bool:
    """Exact feasibility of a point, in integers: each entry, read exactly
    as `Fraction(x)`, is put over the point's one common denominator d, and
    each integer row sum is compared with the right side times d."""
    if len(point) != lp.num_vars:
        return False
    try:
        xs = [Fraction(x) for x in point]
    except (ValueError, OverflowError):  # a float nan or infinity is no point
        return False
    if any(x < 0 for x in xs):
        return False
    d = math.lcm(*(x.denominator for x in xs))
    nums = [x.numerator * (d // x.denominator) for x in xs]
    for coeffs, rhs in lp.eq_rows:
        if sum(c * x for c, x in zip(coeffs, nums)) != rhs * d:
            return False
    for coeffs, rhs in lp.ge_rows:
        if sum(c * x for c, x in zip(coeffs, nums)) < rhs * d:
            return False
    return True


def check_farkas(lp: LinearProgram, cert: Infeasible) -> bool:
    """Exact replay of a Farkas certificate, in integers: the integer rows
    are summed with the integer multipliers.  These are fixed only up to a
    positive factor, which changes no sign of the sum."""
    if len(cert.ge_multipliers) != len(lp.ge_rows):
        return False
    if len(cert.eq_multipliers) != len(lp.eq_rows):
        return False
    if any(y < 0 for y in cert.ge_multipliers):
        return False
    agg = [0] * (lp.num_vars + 1)
    for y, (coeffs, b) in zip(cert.ge_multipliers + cert.eq_multipliers, lp.ge_rows + lp.eq_rows):
        if y:
            agg = [a + y * c for a, c in zip(agg, (*coeffs, b))]
    return all(a <= 0 for a in agg[:-1]) and agg[-1] > 0


def lp_solve(lp: LinearProgram) -> LPResult:
    """Decide feasibility exactly: a point, or a Farkas certificate."""
    n = lp.num_vars
    ncols = n + len(lp.ge_rows)  # x, then one surplus column per >=-row
    neq = len(lp.eq_rows)
    rhs_col = ncols + neq  # then one artificial per equality row, then the rhs

    # the equality rows come first; a row with a negative rhs is negated, so
    # the artificial basis starts feasible
    rows: list[list[int]] = []
    for r, (coeffs, rhs) in enumerate(lp.eq_rows + lp.ge_rows):
        f = -1 if rhs < 0 else 1
        row = [f * c for c in coeffs] + [0] * (rhs_col + 1 - n)
        if r < neq:
            row[ncols + r] = 1
        else:
            row[n + r - neq] = -f
        row[rhs_col] = f * rhs
        rows.append(row)
    # reduced costs for the artificial basis, and minus the objective value
    obj = [0] * (rhs_col + 1)
    for row in rows:
        for j in (*range(ncols), rhs_col):
            obj[j] -= row[j]

    # Bareiss pivoting: the tableau is the integer rows divided by d, the
    # previous pivot, and every update divides by d exactly.  d stays
    # positive because every pivot is, so signs and ratios read off directly.
    # Row r's artificial is basic variable ncols + r, for Bland's tie-break,
    # even where it has no column: no pivot enters an artificial.
    basis = list(range(ncols, ncols + len(rows)))
    d = 1
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), -1)
        if enter < 0:
            break
        leave = -1
        for r, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave = r
                    continue
                lhs, best = row[rhs_col] * rows[leave][enter], rows[leave][rhs_col] * a
                if lhs < best or (lhs == best and basis[r] < basis[leave]):
                    leave = r
        if leave < 0:
            raise RuntimeError("phase one found no leaving row, but it cannot be unbounded")
        prow = rows[leave]
        p = prow[enter]
        for other in rows + [obj]:
            if other is not prow:
                f = other[enter]
                if f:
                    other[:] = [(p * a - f * b) // d for a, b in zip(other, prow)]
                elif p != d:
                    other[:] = [p * a // d for a in other]
        basis[leave] = enter
        d = p

    if obj[rhs_col] < 0:
        # infeasible: with y' the phase-one dual of the rows as negated and
        # s_r = -1 for a negated row, else 1, row r's multiplier is s_r y'_r.
        # A >=-row's surplus column, -s_r e_r at cost 0, has that as its
        # reduced cost; an equality row's artificial, e_r at cost 1, has 1 - y'_r.
        # Each is an integer over d > 0, and the certificate is the integers
        cert = Infeasible(tuple(obj[n:ncols]),
                          tuple(d - obj[ncols + r] if rhs >= 0 else obj[ncols + r] - d
                                for r, (_, rhs) in enumerate(lp.eq_rows)))
        if not check_farkas(lp, cert):
            raise RuntimeError("extracted Farkas certificate failed to replay")
        return cert

    vals = [ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            vals[b] = Fraction(rows[r][rhs_col], d)
    point = tuple(vals)
    if not check_point(lp, point):
        raise RuntimeError("simplex point failed to replay")
    return Feasible(point)
