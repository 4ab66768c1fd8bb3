import itertools
import random
from fractions import Fraction

import pytest

from fcfam.ratlp import (
    FarkasCertificate,
    Feasible,
    Infeasible,
    LinearProgram,
    check_farkas,
    check_point,
    frac,
    frac_str,
    lp_solve,
)


class TestExamples:
    def test_unique_feasible_point(self):
        lp = LinearProgram(2)
        lp.add_eq([1, 1], 1)
        lp.add_ge([2, 0], 1)
        lp.add_ge([0, 2], 1)
        res = lp_solve(lp)
        assert isinstance(res, Feasible)
        assert res.point == (Fraction(1, 2), Fraction(1, 2))

    def test_infeasible_with_farkas(self):
        lp = LinearProgram(2)
        lp.add_eq([1, 1], 1)
        lp.add_ge([1, 0], Fraction(2, 3))
        lp.add_ge([0, 1], Fraction(2, 3))
        res = lp_solve(lp)
        assert isinstance(res, Infeasible)
        assert check_farkas(lp, res.certificate)
        # the canonical multipliers here: (1, 1) on the bounds, -1 on the equality
        assert res.certificate.ge_multipliers == (Fraction(1), Fraction(1))
        assert res.certificate.eq_multipliers == (Fraction(-1),)


class TestExactness:
    def test_points_satisfy_exactly(self):
        rng = random.Random(2)
        for _ in range(100):
            n = rng.randint(1, 4)
            lp = LinearProgram(n)
            lp.add_eq([1] * n, 1)
            for _ in range(rng.randint(0, 4)):
                lp.add_ge([rng.randint(0, 5) for _ in range(n)], Fraction(rng.randint(0, 4), 3))
            res = lp_solve(lp)
            if isinstance(res, Feasible):
                assert check_point(lp, res.point)
            else:
                assert isinstance(res, Infeasible)
                assert check_farkas(lp, res.certificate)


def gauss_solve(rows, rhs, n):
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [v / pv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def brute_boxed_feasible(lp):
    """Whether a bounded region has a vertex, by solving every active set."""
    n = lp.num_vars
    rows = [(c, r) for c, r in lp.eq_rows] + [(c, r) for c, r in lp.ge_rows]
    for j in range(n):
        e = [Fraction(0)] * n
        e[j] = Fraction(1)
        rows.append((tuple(e), Fraction(0)))
    for active in itertools.combinations(range(len(rows)), n):
        x = gauss_solve([rows[i][0] for i in active], [rows[i][1] for i in active], n)
        if x is not None and check_point(lp, tuple(x)):
            return True
    return False


class TestBruteForceCrossCheck:
    def test_random_boxed_lps(self):
        # 0 <= x <= U bounds the region, so it is nonempty iff it has a vertex
        rng = random.Random(7)
        feasible_seen = infeasible_seen = 0
        for _ in range(200):
            n = rng.randint(1, 4)
            lp = LinearProgram(n)
            for j in range(n):
                e = [0] * n
                e[j] = -1
                lp.add_ge(e, -rng.randint(1, 4))  # x_j <= U
            for _ in range(rng.randint(0, 5)):
                lp.add_ge([rng.randint(-3, 3) for _ in range(n)], rng.randint(-4, 4))
            if rng.random() < 0.4:
                lp.add_eq([rng.randint(-2, 2) for _ in range(n)], rng.randint(-2, 3))
            res = lp_solve(lp)
            feasible = brute_boxed_feasible(lp)
            if isinstance(res, Infeasible):
                assert not feasible
                assert check_farkas(lp, res.certificate)
                infeasible_seen += 1
            else:
                assert isinstance(res, Feasible)
                assert feasible and check_point(lp, res.point)
                feasible_seen += 1
        assert feasible_seen > 50 and infeasible_seen > 20


class TestSerialization:
    def test_frac_str(self):
        assert frac_str(Fraction(0)) == "0/1"
        assert frac_str(Fraction(1, 3)) == "1/3"
        assert frac_str(Fraction(-7, 2)) == "-7/2"

    def test_frac_parse(self):
        assert frac("1/3") == Fraction(1, 3)
        assert frac(2) == Fraction(2)

    def test_bad_farkas_rejected(self):
        lp = LinearProgram(1)
        lp.add_ge([1], 1)
        cert = FarkasCertificate((Fraction(-1),), ())
        assert not check_farkas(lp, cert)
