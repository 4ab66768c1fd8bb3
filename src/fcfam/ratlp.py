"""Exact linear feasibility over rationals, from integer rows.

Phase one of a dense-tableau primal simplex with Bland's anti-cycling rule.
Every variable is nonnegative and there is no objective: the solver returns
either a point that satisfies the constraints exactly or a Farkas
certificate of infeasibility that replays by pure arithmetic.  There is no
tolerance anywhere.  Each inequality a.x >= b gets a surplus variable.

The rows go in as Python ints, coefficients and right side, and the point
and the multipliers come out as `Fraction`s.  A caller with rational rows
scales each one to integers itself, so a row's scale never depends on the
other rows: the tableau is the rows as given (a row with a negative right
side negated), every artificial costs 1, and a row added between solves
changes no other row.  Pivots are fraction-free (Edmonds/Bareiss): every
entry is an integer over one shared denominator, the previous pivot, which
each update divides out exactly, so no operation pays a gcd.  `check_point`
and `check_farkas`, which sums in integers over one common denominator,
replay every answer before it is returned.

Built for the small, dense systems of the cutting-plane loop (tens of
variables, up to a few hundred rows), not for sparse large-scale work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
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
        for coeffs, rhs in list(self.eq_rows) + list(self.ge_rows):
            self._row(coeffs, rhs)

    def add_eq(self, coeffs: Sequence[int], rhs: int) -> None:
        self.eq_rows.append(self._row(coeffs, rhs))

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
class FarkasCertificate:
    """Multipliers proving infeasibility.

    With y >= 0 on the >=-rows and free lambda on the equality rows, the
    aggregated combination sum(y_l * g_l) + sum(lambda_k * e_k) has a
    nonpositive coefficient on every variable and a strictly positive right
    side.
    """

    ge_multipliers: tuple[Fraction, ...]
    eq_multipliers: tuple[Fraction, ...]


@dataclass(frozen=True)
class Feasible:
    point: tuple[Fraction, ...]


@dataclass(frozen=True)
class Infeasible:
    certificate: FarkasCertificate


LPResult = Union[Feasible, Infeasible]


def check_point(lp: LinearProgram, point: Sequence[Fraction]) -> bool:
    """Exact feasibility of a point."""
    if len(point) != lp.num_vars:
        return False
    if any(x < 0 for x in point):
        return False
    for coeffs, rhs in lp.eq_rows:
        if sum(c * x for c, x in zip(coeffs, point)) != rhs:
            return False
    for coeffs, rhs in lp.ge_rows:
        if sum(c * x for c, x in zip(coeffs, point)) < rhs:
            return False
    return True


def check_farkas(lp: LinearProgram, cert: FarkasCertificate) -> bool:
    """Exact replay of a Farkas certificate, in integers: the multipliers
    are put over one common denominator, which changes no sign, and the
    integer rows are summed with the numerators."""
    if len(cert.ge_multipliers) != len(lp.ge_rows):
        return False
    if len(cert.eq_multipliers) != len(lp.eq_rows):
        return False
    if any(y < 0 for y in cert.ge_multipliers):
        return False
    mults = cert.ge_multipliers + cert.eq_multipliers
    common = lcm(*(y.denominator for y in mults))
    agg = [0] * (lp.num_vars + 1)
    for y, (coeffs, b) in zip(mults, lp.ge_rows + lp.eq_rows):
        if y:
            k = y.numerator * (common // y.denominator)
            agg = [a + k * c for a, c in zip(agg, (*coeffs, b))]
    return all(a <= 0 for a in agg[:-1]) and agg[-1] > 0


def lp_solve(lp: LinearProgram) -> LPResult:
    """Decide feasibility exactly: a point, or a Farkas certificate."""
    n = lp.num_vars
    ncols = n + len(lp.ge_rows)  # x, then one surplus column per >=-row
    raw_rows = [(coeffs, rhs, -1) for coeffs, rhs in lp.eq_rows]
    raw_rows += [(coeffs, rhs, idx) for idx, (coeffs, rhs) in enumerate(lp.ge_rows)]
    m = len(raw_rows)
    rhs_col = ncols + m  # x, surplus, one artificial per row, then the rhs

    # row r is multiplied by sigma_r = -1 if its rhs is negative, so the
    # artificial basis starts feasible; every artificial costs 1
    sigma = [-1 if rhs < 0 else 1 for _, rhs, _ in raw_rows]
    rows: list[list[int]] = []
    for r, (coeffs, rhs, ge_idx) in enumerate(raw_rows):
        f = sigma[r]
        row = [f * c for c in coeffs] + [0] * (rhs_col + 1 - n)
        if ge_idx >= 0:
            row[n + ge_idx] = -f
        row[ncols + r] = 1
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
    basis = list(range(ncols, rhs_col))
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
        # infeasible: the reduced cost of artificial r is 1 - y_r for the
        # phase-one dual y of the sign-flipped rows; undo sigma_r
        ge_mult = [ZERO] * len(lp.ge_rows)
        eq_mult = [ZERO] * len(lp.eq_rows)
        for r, (_, _, ge_idx) in enumerate(raw_rows):
            y = Fraction(sigma[r] * (d - obj[ncols + r]), d)
            if ge_idx >= 0:
                ge_mult[ge_idx] = y
            else:
                eq_mult[r] = y
        cert = FarkasCertificate(tuple(ge_mult), tuple(eq_mult))
        if not check_farkas(lp, cert):
            raise RuntimeError("extracted Farkas certificate failed to replay")
        return Infeasible(cert)

    vals = [ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            vals[b] = Fraction(rows[r][rhs_col], d)
    point = tuple(vals)
    if not check_point(lp, point):
        raise RuntimeError("simplex point failed to replay")
    return Feasible(point)
