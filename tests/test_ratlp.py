import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import fcfam.fcsolve
import fcfam.ratlp
from fcfam.fcsolve import is_fc
from fcfam.ratlp import (
    Feasible,
    Infeasible,
    LinearProgram,
    check_farkas,
    check_point,
    lp_solve,
)
from fcfam.setfam import Family, no_singletons_family

from oracles import fraction_check_farkas, fraction_phase_one, same_result


def integer_row(coeffs, rhs):
    """A rational row scaled to integers by the lcm of its denominators."""
    scale = math.lcm(*(Fraction(x).denominator for x in (*coeffs, rhs)))
    return [int(c * scale) for c in coeffs], int(rhs * scale)


class TestExamples:
    def test_unique_feasible_point(self):
        lp = LinearProgram(2, [([1, 1], 1)])
        lp.add_ge([2, 0], 1)
        lp.add_ge([0, 2], 1)
        res = lp_solve(lp)
        assert isinstance(res, Feasible)
        assert res.point == (Fraction(1, 2), Fraction(1, 2))
        # rows given to the constructor are copied into Row tuples, so adding
        # a row leaves the caller's list as it was
        given = [([2, 0], 1)]
        lp = LinearProgram(2, [([1, 1], 1)], given)
        lp.add_ge([0, 2], 1)
        assert given == [([2, 0], 1)]
        assert lp.eq_rows == [((1, 1), 1)]
        assert lp.ge_rows == [((2, 0), 1), ((0, 2), 1)]
        assert lp_solve(lp) == res

    def test_infeasible_with_farkas(self):
        # x + y = 1 with x, y >= 2/3, the bounds given as 3x >= 2 and 3y >= 2
        lp = LinearProgram(2, [([1, 1], 1)], [([3, 0], 2), ([0, 3], 2)])
        res = lp_solve(lp)
        assert isinstance(res, Infeasible)
        assert check_farkas(lp, res)
        # the canonical multipliers here, up to a positive factor: (1, 1) on
        # the bounds, -3 on the equality
        assert same_result(res, Infeasible((1, 1), (-3,)))
        assert same_result(res, fraction_phase_one(lp))


class TestExactness:
    def test_points_satisfy_exactly(self):
        rng = random.Random(2)
        for _ in range(100):
            n = rng.randint(1, 4)
            lp = LinearProgram(n, [([1] * n, 1)])
            for _ in range(rng.randint(0, 4)):
                # a.x >= r/3, scaled by 3
                lp.add_ge([3 * rng.randint(0, 5) for _ in range(n)], rng.randint(0, 4))
            res = lp_solve(lp)
            assert same_result(res, fraction_phase_one(lp))
            if isinstance(res, Feasible):
                assert check_point(lp, res.point)
            else:
                assert isinstance(res, Infeasible)
                assert check_farkas(lp, res)


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
    rows = [(tuple(map(Fraction, c)), Fraction(r)) for c, r in lp.eq_rows + lp.ge_rows]
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
                lp = LinearProgram(n, [([rng.randint(-2, 2) for _ in range(n)], rng.randint(-2, 3))],
                                   lp.ge_rows)
            res = lp_solve(lp)
            feasible = brute_boxed_feasible(lp)
            if isinstance(res, Infeasible):
                assert not feasible
                assert check_farkas(lp, res)
                infeasible_seen += 1
            else:
                assert isinstance(res, Feasible)
                assert feasible and check_point(lp, res.point)
                feasible_seen += 1
        assert feasible_seen > 50 and infeasible_seen > 20

    def test_random_rational_boxed_lps(self):
        # non-integer bounds and coefficients with several denominators per
        # row, each row scaled to integers by its own lcm, and equality rows
        # with negative right sides, so rows of unrelated scales and the sign
        # flip of a negative right side both meet the oracles
        rng = random.Random(11)

        def rat(lo, hi):
            return Fraction(rng.randint(lo, hi), rng.choice((2, 3, 4, 5, 6, 7)))

        feasible_seen = infeasible_seen = 0
        for _ in range(150):
            n = rng.randint(1, 3)
            lp = LinearProgram(n)
            for j in range(n):
                e = [0] * n
                e[j] = -1
                lp.add_ge(*integer_row(e, -rat(1, 20)))  # x_j <= U, U not an integer
            for _ in range(rng.randint(0, 4)):
                lp.add_ge(*integer_row([rat(-12, 12) for _ in range(n)], rat(-12, 12)))
            if rng.random() < 0.6:
                lp = LinearProgram(n, [integer_row([rat(-9, 9) for _ in range(n)], -rat(0, 12))],
                                   lp.ge_rows)
            res = lp_solve(lp)
            assert same_result(res, fraction_phase_one(lp))
            feasible = brute_boxed_feasible(lp)
            if isinstance(res, Infeasible):
                assert not feasible
                assert check_farkas(lp, res)
                infeasible_seen += 1
            else:
                assert isinstance(res, Feasible)
                assert feasible and check_point(lp, res.point)
                feasible_seen += 1
        assert feasible_seen > 30 and infeasible_seen > 30


class TestSerialization:
    def test_bad_farkas_rejected(self):
        lp = LinearProgram(1)
        lp.add_ge([1], 1)
        assert not check_farkas(lp, Infeasible((-1,), ()))
        # x >= -1 holds at x = 0, and -1 times it sums to -x >= 1, a valid
        # combination that only the multiplier's sign refuses
        assert not check_farkas(LinearProgram(1, [], [([1], -1)]), Infeasible((-1,), ()))

    def test_wrong_lengths_rejected(self):
        # x + y = 1 and x >= 2 are infeasible; x >= 2 alone holds at (2, 0)
        one = Fraction(1)
        lp = LinearProgram(2)
        lp.add_ge([1, 0], 2)
        assert check_point(lp, (2 * one, 0 * one))
        assert not check_point(lp, (2 * one,))
        assert not check_point(lp, (2 * one, 0 * one, 0 * one))
        lp = LinearProgram(2, [([1, 1], 1)], lp.ge_rows)
        assert check_farkas(lp, Infeasible((1,), (-1,)))
        # one multiplier too few or too many, on either kind of row
        assert not check_farkas(lp, Infeasible((), (-1,)))
        assert not check_farkas(lp, Infeasible((1, 1), (-1,)))
        assert not check_farkas(lp, Infeasible((1,), ()))
        assert not check_farkas(lp, Infeasible((1,), (-1, -1)))


def _seeded_lps(seed=10, count=300):
    """Small LPs drawn with denominators 1-7, each row then scaled to
    integers by its lcm, with negative right sides, 0-2 equality rows, zero
    right sides and repeated rows, so that ratio ties occur."""
    rng = random.Random(seed)

    def rat():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 7))

    for _ in range(count):
        n = rng.randint(1, 5)
        lp = LinearProgram(n, [integer_row([rat() for _ in range(n)], rat())
                               for _ in range(rng.randint(0, 2))])
        for _ in range(rng.randint(1, 5)):
            coeffs, rhs = integer_row([rat() if rng.random() < 0.7 else 0 for _ in range(n)],
                                      0 if rng.random() < 0.3 else rat())
            lp.add_ge(coeffs, rhs)
            if rng.random() < 0.25:
                k = rng.randint(1, 3)
                lp.add_ge([k * c for c in coeffs], k * rhs)
        yield lp


def _decision_lps(monkeypatch):
    """Every LP of one V-FC decision, {124, 2345, 12356} over the subsets of
    [6] without singletons, whose barycenter B_6 rules out: one equality
    row, positive right sides and up to 14 >=-rows, a shape `_seeded_lps`
    never draws.  Each is copied when it is solved, since the decision's LP
    grows between rounds."""
    lps = []
    solve = fcfam.fcsolve.lp_solve

    def recorded(lp):
        lps.append(LinearProgram(lp.num_vars, lp.eq_rows, lp.ge_rows))
        return solve(lp)

    monkeypatch.setattr(fcfam.fcsolve, "lp_solve", recorded)
    fam = Family.from_sets(6, [[1, 2, 4], [2, 3, 4, 5], [1, 2, 3, 5, 6]])
    assert is_fc(fam, domain=no_singletons_family(6)).kind == "fc"
    assert len(lps) == 9 and max(len(lp.ge_rows) for lp in lps) == 14
    return lps


class TestPivotIdentity:
    def test_seeded_results_match_fraction_tableau(self, monkeypatch):
        # the entering column, the ratio test, its tie-break and the unit
        # phase-one costs are those of the Fraction tableau, result by result
        kinds = set()
        for lp in [*_seeded_lps(), *_decision_lps(monkeypatch)]:
            res = lp_solve(lp)
            assert same_result(res, fraction_phase_one(lp)), lp
            kinds.add(type(res))
        assert kinds == {Feasible, Infeasible}


def _tampers(lp, cert, rng):
    """Single-field changes to an LP and its certificate: one multiplier, one
    coefficient or one right side moved by a small integer."""
    def nudged(x):
        return x + rng.choice((-1, 1)) * rng.randint(1, 3)

    ge, eq = list(cert.ge_multipliers), list(cert.eq_multipliers)
    for mult, make in ((ge, lambda m: Infeasible(tuple(m), tuple(eq))),
                       (eq, lambda m: Infeasible(tuple(ge), tuple(m)))):
        for i in range(len(mult)):
            changed = list(mult)
            changed[i] = nudged(changed[i])
            yield lp, make(changed)
    for rows in ("ge_rows", "eq_rows"):
        for r, (coeffs, rhs) in enumerate(getattr(lp, rows)):
            for j in range(len(coeffs) + 1):
                bad = LinearProgram(lp.num_vars, list(lp.eq_rows), list(lp.ge_rows))
                if j < len(coeffs):
                    row = (coeffs[:j] + (nudged(coeffs[j]),) + coeffs[j + 1:], rhs)
                else:
                    row = (coeffs, nudged(rhs))
                getattr(bad, rows)[r] = row
                yield bad, cert


class TestFarkasReplay:
    def test_integer_replay_matches_fraction_reference(self):
        # the certificates lp_solve returns, and every single-field tamper of
        # them, get the same verdict from the integer replay and from the
        # row-by-row Fraction reference
        rng = random.Random(12)
        verdicts = set()
        infeasible = 0
        for lp in _seeded_lps():
            res = lp_solve(lp)
            if isinstance(res, Feasible):
                continue
            infeasible += 1
            assert check_farkas(lp, res)
            assert fraction_check_farkas(lp, res)
            for bad_lp, bad_cert in _tampers(lp, res, rng):
                verdict = check_farkas(bad_lp, bad_cert)
                assert verdict == fraction_check_farkas(bad_lp, bad_cert)
                verdicts.add(verdict)
        assert infeasible > 50 and verdicts == {True, False}

    def test_random_multipliers_match_fraction_reference(self):
        rng = random.Random(13)
        verdicts = []
        for lp in _seeded_lps(seed=14):
            cert = Infeasible(tuple(rng.randint(-1, 6) for _ in lp.ge_rows),
                              tuple(rng.randint(-6, 6) for _ in lp.eq_rows))
            verdicts.append(check_farkas(lp, cert))
            assert verdicts[-1] == fraction_check_farkas(lp, cert)
        assert any(verdicts) and not all(verdicts)


class TestEdgeCases:
    def test_no_rows(self):
        assert lp_solve(LinearProgram(0)) == Feasible(())
        assert lp_solve(LinearProgram(2)) == Feasible((Fraction(0), Fraction(0)))

    def test_zero_row_with_positive_rhs(self):
        lp = LinearProgram(2)
        lp.add_ge([1, 0], 1)
        lp.add_ge([0, 0], 1)
        assert same_result(lp_solve(lp), Infeasible((0, 1), ()))
        assert same_result(lp_solve(lp), fraction_phase_one(lp))

    def test_zero_equality_row_with_negative_rhs(self):
        lp = LinearProgram(2, [([0, 0], -2)], [([1, 1], 1)])
        assert same_result(lp_solve(lp), Infeasible((0,), (-1,)))
        assert same_result(lp_solve(lp), fraction_phase_one(lp))

    def test_zero_rows_with_zero_rhs(self):
        lp = LinearProgram(2, [([0, 0], 0)], [([0, 0], 0), ([1, 1], 1)])
        assert lp_solve(lp) == Feasible((Fraction(1), Fraction(0)))

    def test_all_zero_column(self):
        lp = LinearProgram(3, [([1, 0, 1], 2)])
        lp.add_ge([3, 0, -6], 2)  # x/2 - z >= 1/3, scaled by 6
        assert lp_solve(lp) == Feasible((Fraction(14, 9), Fraction(0), Fraction(4, 9)))
        assert lp_solve(lp) == fraction_phase_one(lp)
        lp = LinearProgram(3)
        lp.add_ge([1, 0, 1], 2)
        lp.add_ge([-1, 0, -1], -1)
        assert same_result(lp_solve(lp), Infeasible((1, 1), ()))
        assert same_result(lp_solve(lp), fraction_phase_one(lp))

    def test_denominators_2_and_3_in_one_row(self):
        # rows with coefficients of denominators 2 and 3, each given scaled by 6
        lp = LinearProgram(2, [([3, 2], 6)])  # x/2 + y/3 = 1
        assert lp_solve(lp) == Feasible((Fraction(2), Fraction(0)))
        assert lp_solve(lp) == fraction_phase_one(lp)
        lp.add_ge([-2, -3], -1)  # -x/3 - y/2 >= -1/6
        assert same_result(lp_solve(lp), Infeasible((3,), (2,)))
        assert same_result(lp_solve(lp), fraction_phase_one(lp))
        lp = LinearProgram(2, [([1, 1], 1)])
        lp.add_ge([3, -2], 5)  # x/2 - y/3 >= 5/6
        lp.add_ge([-2, 3], 5)  # -x/3 + y/2 >= 5/6
        assert same_result(lp_solve(lp), Infeasible((1, 1), (-1,)))
        assert same_result(lp_solve(lp), fraction_phase_one(lp))


class TestReplayChecks:
    """lp_solve replays every answer with check_point or check_farkas and
    raises if the replay fails, also under python -O."""

    def test_rejected_point_raises(self, monkeypatch):
        monkeypatch.setattr(fcfam.ratlp, "check_point", lambda lp, point: False)
        lp = LinearProgram(1)
        lp.add_ge([1], 1)
        with pytest.raises(RuntimeError, match="point"):
            lp_solve(lp)

    def test_rejected_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(fcfam.ratlp, "check_farkas", lambda lp, cert: False)
        lp = LinearProgram(1)
        lp.add_ge([-1], 1)
        with pytest.raises(RuntimeError, match="Farkas"):
            lp_solve(lp)

    def test_checks_run_under_optimize(self):
        code = (
            "import fcfam.ratlp as r\n"
            "r.check_point = lambda lp, point: False\n"
            "try:\n"
            "    r.lp_solve(r.LinearProgram(1))\n"
            "except RuntimeError:\n"
            "    print('raised')\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"
