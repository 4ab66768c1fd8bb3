"""Exact linear feasibility over rationals.

Phase one of a dense-tableau primal simplex with Bland's anti-cycling rule,
all arithmetic in `fractions.Fraction`.  Every variable is nonnegative and
there is no objective: the solver returns either a point that satisfies the
constraints exactly or a Farkas certificate of infeasibility that replays by
pure arithmetic.  There is no tolerance anywhere.  Each inequality a.x >= b
gets a surplus variable.

Built for the small, dense systems of the cutting-plane loop (tens of
variables, up to a few hundred rows), not for sparse large-scale work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

Rat = Union[int, str, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


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
            if len(coeffs) != self.num_vars:
                raise ValueError("row length does not match variable count")

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
    """Exact replay of a Farkas certificate."""
    if len(cert.ge_multipliers) != len(lp.ge_rows):
        return False
    if len(cert.eq_multipliers) != len(lp.eq_rows):
        return False
    if any(y < 0 for y in cert.ge_multipliers):
        return False
    agg = [ZERO] * lp.num_vars
    rhs = ZERO
    for y, (coeffs, b) in zip(cert.ge_multipliers, lp.ge_rows):
        for j, c in enumerate(coeffs):
            agg[j] += y * c
        rhs += y * b
    for lam, (coeffs, b) in zip(cert.eq_multipliers, lp.eq_rows):
        for j, c in enumerate(coeffs):
            agg[j] += lam * c
        rhs += lam * b
    return all(a <= 0 for a in agg) and rhs > 0


class _Tableau:
    """Dense simplex tableau in standard form min c.x, Ax = b, x >= 0."""

    def __init__(self, rows: list[list[Fraction]], rhs: list[Fraction]):
        self.rows = rows
        self.rhs = rhs
        self.ncols = len(rows[0]) if rows else 0
        self.basis: list[int] = []
        self.obj: list[Fraction] = []
        self.obj_val = ZERO

    def set_costs(self, costs: list[Fraction]) -> None:
        """Recompute reduced costs/objective for the current basis."""
        m = len(self.rows)
        self.obj = list(costs)
        self.obj_val = ZERO
        for r in range(m):
            cb = costs[self.basis[r]]
            if cb:
                row = self.rows[r]
                for j in range(self.ncols):
                    self.obj[j] -= cb * row[j]
                self.obj_val += cb * self.rhs[r]

    def pivot(self, r: int, c: int) -> None:
        row = self.rows[r]
        piv = row[c]
        inv = ONE / piv
        for j in range(self.ncols):
            if row[j]:
                row[j] *= inv
        self.rhs[r] *= inv
        for i, other in enumerate(self.rows):
            if i != r and other[c]:
                f = other[c]
                for j in range(self.ncols):
                    if row[j]:
                        other[j] -= f * row[j]
                self.rhs[i] -= f * self.rhs[r]
        f = self.obj[c]
        if f:
            for j in range(self.ncols):
                if row[j]:
                    self.obj[j] -= f * row[j]
            self.obj_val += f * self.rhs[r]
        self.basis[r] = c

    def run(self, allowed_cols: int) -> None:
        """Bland-rule simplex to optimality of a bounded-below objective."""
        while True:
            enter = -1
            for j in range(allowed_cols):
                if self.obj[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return
            leave = -1
            best = None
            for r in range(len(self.rows)):
                a = self.rows[r][enter]
                if a > 0:
                    ratio = self.rhs[r] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[r] < self.basis[leave]
                    ):
                        best = ratio
                        leave = r
            assert leave >= 0, "phase one cannot be unbounded"
            self.pivot(leave, enter)


def lp_solve(lp: LinearProgram) -> LPResult:
    """Decide feasibility exactly: a point, or a Farkas certificate."""
    n = lp.num_vars
    ncols = n + len(lp.ge_rows)  # x, then one surplus column per >=-row

    raw_rows: list[tuple[tuple[Fraction, ...], Fraction, int]] = []
    for coeffs, rhs in lp.eq_rows:
        raw_rows.append((coeffs, rhs, -1))
    for idx, (coeffs, rhs) in enumerate(lp.ge_rows):
        raw_rows.append((coeffs, rhs, idx))
    m = len(raw_rows)

    sigma = [ONE] * m
    rows: list[list[Fraction]] = []
    rhs_v: list[Fraction] = []
    for r, (coeffs, rhs, ge_idx) in enumerate(raw_rows):
        if rhs < 0:
            sigma[r] = -ONE
        row = [ZERO] * (ncols + m)
        for j, c in enumerate(coeffs):
            if c:
                row[j] = sigma[r] * c
        if ge_idx >= 0:
            row[n + ge_idx] = -sigma[r]
        row[ncols + r] = ONE  # artificial
        rows.append(row)
        rhs_v.append(sigma[r] * rhs)

    tab = _Tableau(rows, rhs_v)
    tab.basis = [ncols + r for r in range(m)]
    tab.set_costs([ZERO] * ncols + [ONE] * m)
    tab.run(allowed_cols=ncols)

    if tab.obj_val > 0:
        # infeasible: dual y of phase one; reduced cost of artificial r is 1 - y_r
        ge_mult = [ZERO] * len(lp.ge_rows)
        eq_mult = [ZERO] * len(lp.eq_rows)
        for r in range(m):
            y = ONE - tab.obj[ncols + r]
            mult = sigma[r] * y
            ge_idx = raw_rows[r][2]
            if ge_idx >= 0:
                ge_mult[ge_idx] = mult
            else:
                eq_mult[r] = mult
        cert = FarkasCertificate(tuple(ge_mult), tuple(eq_mult))
        assert check_farkas(lp, cert), "extracted Farkas certificate failed to replay"
        return Infeasible(cert)

    vals = [ZERO] * n
    for r, b in enumerate(tab.basis):
        if b < n:
            vals[b] = tab.rhs[r]
    point = tuple(vals)
    assert check_point(lp, point)
    return Feasible(point)
