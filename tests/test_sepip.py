import math
import random
from fractions import Fraction

import pytest

from fcfam.setfam import (
    Family,
    is_union_closed,
    powerset_family,
    union_closure,
    uplus,
)
from fcfam.sepip import (
    brute_separation,
    build_separation,
    solve_separation,
)
from fcfam.verify import check_separation_proof

from oracles import family_value


def uniform(n):
    return [Fraction(1, n)] * n


def random_weights(rng, n, denom=12):
    cuts = sorted(rng.sample(range(1, denom), n - 1)) if n > 1 else []
    parts, prev = [], 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(denom - prev)
    return [Fraction(p, denom) for p in parts]


def random_instance(rng, n):
    gens = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 3))]
    gens.append((1 << n) - 1)
    base = union_closure(Family.from_masks(n, gens))
    if rng.random() < 0.7:
        dom = powerset_family(n)
    else:
        seeds = [rng.randrange(1 << n) for _ in range(4)]
        dm = set(union_closure(Family.from_masks(n, seeds)).members)
        dm |= {a | s for a in base.members for s in dm} | set(base.members)
        dom = Family(n, union_closure(Family.from_masks(n, dm)).members)
    return base, random_weights(rng, n), dom


def check_against_oracle(base, w, dom):
    """The solve finds a violated family iff the oracle's optimum is positive;
    the family is feasible and has the reported value, and otherwise the
    proof replays."""
    got = solve_separation(build_separation(base, dom), w)
    want = brute_separation(base, w, dom).optimum
    assert (got.optimum > 0) == (want > 0)
    if got.optimum > 0:
        wit = got.witness
        assert got.proof is None
        assert is_union_closed(wit)
        assert set(wit.members) <= set(dom.members)
        assert uplus(Family(base.n, base.members), wit) == wit
        assert family_value(wit, w) == got.optimum
    else:
        assert got.optimum == 0
        assert check_separation_proof(base, dom, w, got.proof) is None
    return got


class TestBuild:
    def test_domain_not_absorb_closed(self):
        base = union_closure(Family.from_sets(2, [[1, 2]]))
        with pytest.raises(ValueError, match="union with base"):
            build_separation(base, Family.from_masks(2, [0, 0b01]))

    def test_domain_not_union_closed(self):
        base = union_closure(Family.from_sets(2, [[1], [2]]))
        with pytest.raises(ValueError, match="not union-closed"):
            build_separation(base, Family.from_masks(2, [0, 1, 2]))

    def test_base_must_cover_ground(self):
        base = union_closure(Family.from_sets(3, [[1, 2]]))
        with pytest.raises(ValueError, match="universe"):
            build_separation(base, powerset_family(3))

    def test_weights_validated(self):
        base = union_closure(Family.from_sets(2, [[1, 2]]))
        prob = build_separation(base, powerset_family(2))
        with pytest.raises(ValueError, match="sum"):
            solve_separation(prob, [Fraction(1, 2), Fraction(1, 3)])


class TestKnownValues:
    def test_two_set_family_no_violation(self):
        # a 2-set family is FC; at (1/2, 1/2) nothing separates
        base = union_closure(Family.from_sets(2, [[1, 2]]))
        res = brute_separation(base, [Fraction(1, 2)] * 2, powerset_family(2))
        assert res.optimum == 0
        check_against_oracle(base, [Fraction(1, 2)] * 2, powerset_family(2))

    def test_three_set_uniform_violated(self):
        base = union_closure(Family.from_sets(3, [[1, 2, 3]]))
        res = brute_separation(base, uniform(3), powerset_family(3))
        assert res.optimum > 0
        assert check_against_oracle(base, uniform(3), powerset_family(3)).optimum > 0

    def test_single_element_ground(self):
        base = union_closure(Family.from_sets(1, [[1]]))
        res = brute_separation(base, [Fraction(1)], powerset_family(1))
        assert res.optimum == 0

    def test_base_itself_is_feasible(self):
        rng = random.Random(19)
        for _ in range(40):
            n = rng.choice([2, 3, 4])
            base, w, dom = random_instance(rng, n)
            if any(m not in set(dom.members) for m in base.members):
                continue
            if family_value(Family(n, base.members), w) > 0:
                assert solve_separation(build_separation(base, dom), w).optimum > 0


class TestOracleEquivalence:
    def test_exhaustive_small(self):
        # every union-closed base over [2] and [3] at a few weight vectors
        from oracles import uc_subfamilies

        for n in (2, 3):
            full = (1 << n) - 1
            weight_choices = [uniform(n)]
            if n == 3:
                weight_choices.append([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
            for members in uc_subfamilies(n):
                if not members:
                    continue
                uni = 0
                for m in members:
                    uni |= m
                if uni != full or 0 not in members:
                    continue
                base = union_closure(Family(n, members))
                for w in weight_choices:
                    check_against_oracle(base, w, powerset_family(n))

    def test_exhaustive_bases_up_to_four(self):
        # every union-closed base with universe [n], n <= 4, up to isomorphism,
        # at the uniform and a fully concentrated weight vector
        from fractions import Fraction

        from oracles import uc_reps_with_full_universe

        total = 0
        for n in (2, 3, 4):
            dom = powerset_family(n)
            vectors = [
                [Fraction(1, n)] * n,
                [Fraction(1)] + [Fraction(0)] * (n - 1),
            ]
            for rep in uc_reps_with_full_universe(n):
                base = union_closure(rep)
                for w in vectors:
                    check_against_oracle(base, w, dom)
                    total += 1
        assert total == 728

    def test_random_instances(self):
        rng = random.Random(42)
        violated = 0
        for _ in range(200):
            base, w, dom = random_instance(rng, 4)
            violated += check_against_oracle(base, w, dom).optimum > 0
        assert 20 < violated < 180


class TestMonotonicity:
    def test_enlarging_domain_never_decreases(self):
        rng = random.Random(45)
        for _ in range(40):
            n = 3
            base, w, _ = random_instance(rng, n)
            small = Family(n, union_closure(Family.from_masks(n, list(base.members))).members)
            big = powerset_family(n)
            if solve_separation(build_separation(base, small), w).optimum > 0:
                assert solve_separation(build_separation(base, big), w).optimum > 0


class TestCaps:
    def test_brute_domain_cap(self):
        base = union_closure(Family.from_sets(5, [[1, 2, 3, 4, 5]]))
        with pytest.raises(ValueError, match="too large"):
            brute_separation(base, uniform(5), powerset_family(5))

    def test_solve_ground_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_separation(
                union_closure(Family.from_sets(9, [list(range(1, 10))])),
                powerset_family(9),
            )
