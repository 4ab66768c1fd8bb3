"""Exact linear feasibility over rationals.

Phase one of a dense-tableau primal simplex with Bland's anti-cycling rule.
Every variable is nonnegative and there is no objective: the solver returns
either a point that satisfies the constraints exactly or a Farkas
certificate of infeasibility that replays by pure arithmetic.  There is no
tolerance anywhere.  Each inequality a.x >= b gets a surplus variable.

The tableau holds Python ints only.  Each row is scaled to integers once,
and pivots are fraction-free (Edmonds/Bareiss): every entry is an integer
over one shared denominator, the previous pivot, which each update divides
out exactly, so no operation pays a gcd.  `Fraction` appears only where the
rows are read in, where the point or the multipliers are written out, and
in `check_point`.  It and `check_farkas`, which sums in integers over one
common denominator, replay every answer before it is returned.

Built for the small, dense systems of the cutting-plane loop (tens of
variables, up to a few hundred rows), not for sparse large-scale work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence, Union

Rat = Union[int, str, Fraction]

ZERO = Fraction(0)


def frac(x: Rat) -> Fraction:
    """Coerce ints and "p/q" strings to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def frac_str(x: Fraction) -> str:
    """Serialize with an explicit denominator, e.g. "0/1", "1/3"."""
    return f"{x.numerator}/{x.denominator}"


@dataclass
class LinearProgram:
    """Find x >= 0 with every equality row and every >=-row satisfied."""

    num_vars: int
    eq_rows: list[tuple[tuple[Fraction, ...], Fraction]] = field(default_factory=list)
    ge_rows: list[tuple[tuple[Fraction, ...], Fraction]] = field(default_factory=list)

    def __post_init__(self):
        for coeffs, _ in list(self.eq_rows) + list(self.ge_rows):
            self._check_len(coeffs)

    def add_eq(self, coeffs: Sequence[Rat], rhs: Rat) -> None:
        self._check_len(coeffs)
        self.eq_rows.append((tuple(frac(c) for c in coeffs), frac(rhs)))

    def add_ge(self, coeffs: Sequence[Rat], rhs: Rat) -> None:
        self._check_len(coeffs)
        self.ge_rows.append((tuple(frac(c) for c in coeffs), frac(rhs)))

    def _check_len(self, coeffs: Sequence[Rat]) -> None:
        if len(coeffs) != self.num_vars:
            raise ValueError("row length does not match variable count")


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
    """Exact replay of a Farkas certificate, in integers: y * row is
    (y / L) * (L * row) with L the lcm of the row's denominators, and the
    y / L are put over one common denominator, which changes no sign."""
    if len(cert.ge_multipliers) != len(lp.ge_rows):
        return False
    if len(cert.eq_multipliers) != len(lp.eq_rows):
        return False
    if any(y < 0 for y in cert.ge_multipliers):
        return False
    terms = []  # (y / L, L * row), the right side last
    for y, (coeffs, b) in zip(cert.ge_multipliers + cert.eq_multipliers,
                              lp.ge_rows + lp.eq_rows):
        if y:
            row = (*coeffs, b)
            scale = lcm(*(c.denominator for c in row))
            terms.append((Fraction(y, scale),
                          [c.numerator * (scale // c.denominator) for c in row]))
    common = lcm(*(z.denominator for z, _ in terms))
    agg = [0] * (lp.num_vars + 1)
    for z, row in terms:
        k = z.numerator * (common // z.denominator)
        agg = [a + k * c for a, c in zip(agg, row)]
    return all(a <= 0 for a in agg[:-1]) and agg[-1] > 0


def lp_solve(lp: LinearProgram) -> LPResult:
    """Decide feasibility exactly: a point, or a Farkas certificate."""
    n = lp.num_vars
    ncols = n + len(lp.ge_rows)  # x, then one surplus column per >=-row
    raw_rows = [(coeffs, rhs, -1) for coeffs, rhs in lp.eq_rows]
    raw_rows += [(coeffs, rhs, idx) for idx, (coeffs, rhs) in enumerate(lp.ge_rows)]
    m = len(raw_rows)
    rhs_col = ncols + m  # x, surplus, one artificial per row, then the rhs

    # Row r is multiplied by sigma_r = -1 if its rhs is negative and by L_r,
    # the lcm of its denominators; its artificial keeps coefficient 1, so it
    # stands for L_r times the unscaled one.  Costing that artificial
    # lcm(L) / L_r gives phase one's objective times lcm(L), and Bland's rule
    # then makes the same choices as on the unscaled rows.
    sigma = [-1 if rhs < 0 else 1 for _, rhs, _ in raw_rows]
    scale = [lcm(rhs.denominator, *(c.denominator for c in coeffs))
             for coeffs, rhs, _ in raw_rows]
    big = lcm(*scale)
    cost = [big // s for s in scale]
    rows: list[list[int]] = []
    for r, (coeffs, rhs, ge_idx) in enumerate(raw_rows):
        f = sigma[r] * scale[r]
        row = [f * c.numerator // c.denominator for c in coeffs] + [0] * (rhs_col + 1 - n)
        if ge_idx >= 0:
            row[n + ge_idx] = -f
        row[ncols + r] = 1
        row[rhs_col] = f * rhs.numerator // rhs.denominator
        rows.append(row)
    # reduced costs for the artificial basis, and minus the objective value
    obj = [0] * (rhs_col + 1)
    for c, row in zip(cost, rows):
        for j in (*range(ncols), rhs_col):
            obj[j] -= c * row[j]

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
        # infeasible: the reduced cost of artificial r is cost_r - y_r for
        # the scaled phase-one dual y; undo sigma_r, L_r and lcm(L)
        ge_mult = [ZERO] * len(lp.ge_rows)
        eq_mult = [ZERO] * len(lp.eq_rows)
        for r, (_, _, ge_idx) in enumerate(raw_rows):
            y = Fraction(sigma[r] * (cost[r] * d - obj[ncols + r]) * scale[r], d * big)
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
