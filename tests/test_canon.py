import itertools
import random

import pytest

from fcfam.setfam import (
    Family,
    compact_universe,
    frequencies,
    lex_ksets,
    lex_prefix,
    translates_family,
    union_closure,
)
from fcfam.canon import (
    apply_perm_family,
    are_isomorphic,
    automorphism_group,
    canonical_form,
    compose,
    family_orbit,
    generating_set,
    identity_perm,
    orbits,
)

from oracles import brute_automorphisms, brute_min_canonical, random_family


def generated_group(gens, n):
    group = {identity_perm(n)}
    frontier = [identity_perm(n)]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = compose(g, p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def random_perm(rng, n):
    return tuple(rng.sample(range(1, n + 1), n))


class TestCanonicalForm:
    def test_relabeled_pair(self):
        a = Family.from_sets(3, [[1, 2], [2, 3]])
        b = Family.from_sets(3, [[1, 3], [3, 2]])
        assert canonical_form(a).relabeled == canonical_form(b).relabeled

    def test_empty_set_family(self):
        cf = canonical_form(Family.from_masks(2, [0]))
        assert cf.relabeled.members == (0,)

    def test_two_4sets_over_five(self):
        a = Family.from_sets(5, [[1, 2, 3, 4], [1, 2, 3, 5]])
        b = Family.from_sets(5, [[2, 3, 4, 5], [1, 3, 4, 5]])
        # derived by exhibiting a bijection via brute force over 5! relabelings
        assert brute_min_canonical(a) == brute_min_canonical(b)
        assert canonical_form(a).relabeled == canonical_form(b).relabeled

    def test_matches_brute_minimum(self):
        rng = random.Random(17)
        for _ in range(150):
            fam = random_family(rng, max_n=5)
            assert canonical_form(fam).relabeled == brute_min_canonical(fam)

    def test_invariance_under_relabeling(self):
        rng = random.Random(29)
        for _ in range(200):
            fam = random_family(rng, max_n=7)
            perm = random_perm(rng, fam.n)
            assert canonical_form(apply_perm_family(perm, fam)).relabeled == canonical_form(fam).relabeled

    def test_witness_achieves_canonical_family(self):
        rng = random.Random(31)
        for _ in range(100):
            fam = random_family(rng, max_n=6)
            comp, _ = compact_universe(fam)
            cf = canonical_form(fam)
            assert apply_perm_family(cf.witness, comp) == cf.relabeled

    def test_canonical_form_is_a_fixed_point(self):
        rng = random.Random(47)
        for _ in range(200):
            cf = canonical_form(random_family(rng, max_n=7))
            assert canonical_form(cf.relabeled).relabeled == cf.relabeled

    def test_uniform_families_match_brute_minimum(self):
        # the distinct-low-parts bound prunes most where many members share
        # a size, so draw k-uniform families over 6 and 7 elements
        rng = random.Random(53)
        for trial in range(48):
            n = rng.choice((6, 7))
            k = rng.randint(2, 5)
            pool = [sum(1 << e for e in c) for c in itertools.combinations(range(n), k)]
            masks = rng.sample(pool, rng.randint(2, min(9, len(pool))))
            if trial % 4 == 0:
                masks.append(0)  # the empty set as a member
            fam = Family.from_masks(n, masks)
            comp, _ = compact_universe(fam)
            cf = canonical_form(fam)
            assert cf.relabeled == brute_min_canonical(fam)
            assert apply_perm_family(cf.witness, comp) == cf.relabeled


class TestIsomorphism:
    def test_same_class_different_grounds(self):
        assert are_isomorphic(Family.from_sets(2, [[1, 2]]), Family.from_sets(4, [[3, 4]]))

    def test_member_count_differs(self):
        assert not are_isomorphic(
            Family.from_sets(3, [[1, 2, 3]]), Family.from_sets(3, [[1, 2], [1, 3]])
        )

    def test_prefix_image(self):
        fam = lex_prefix(5, 4, 3)
        perm = (5, 4, 3, 2, 1)
        assert are_isomorphic(fam, apply_perm_family(perm, fam))

    def test_equivalence_relation(self):
        rng = random.Random(37)
        fams = [random_family(rng, max_n=5, max_members=4) for _ in range(30)]
        for a, b, c in zip(fams, fams[1:], fams[2:]):
            assert are_isomorphic(a, a)
            assert are_isomorphic(a, b) == are_isomorphic(b, a)
            if are_isomorphic(a, b) and are_isomorphic(b, c):
                assert are_isomorphic(a, c)


class TestAutomorphisms:
    def test_complete_2subsets(self):
        fam = Family.from_sets(3, [[1, 2], [1, 3], [2, 3]])
        assert len(automorphism_group(fam)) == 6

    def test_single_3set(self):
        assert len(automorphism_group(Family.from_sets(3, [[1, 2, 3]]))) == 6

    def test_group_axioms_and_brute_match(self):
        rng = random.Random(41)
        for _ in range(60):
            fam = random_family(rng, max_n=5)
            group = automorphism_group(fam)
            brute = brute_automorphisms(fam)
            assert sorted(group) == sorted(brute)
            n = fam.n
            assert identity_perm(n) in group
            gset = set(group)
            for p in group:
                assert any(compose(p, q) == identity_perm(n) for q in group)
            for p, q in zip(group, group[1:]):
                assert compose(p, q) in gset
            fact = 1
            for i in range(1, n + 1):
                fact *= i
            assert fact % len(group) == 0

    def test_universe_cap(self):
        with pytest.raises(ValueError, match="cap"):
            automorphism_group(translates_family(4, {0, 1, 2}))


class TestOrbits:
    def test_transitive_complete_family(self):
        fam = Family.from_sets(3, [[1, 2], [1, 3], [2, 3]])
        assert orbits(fam).orbit_sets() == [(1, 2, 3)]

    def test_path_family(self):
        assert orbits(Family.from_sets(3, [[1, 2], [2, 3]])).orbit_sets() == [(1, 3), (2,)]

    def test_translates_single_orbit(self):
        fam = translates_family(4, {0, 1, 2})
        part = orbits(fam)
        assert part.num_orbits == 1
        assert len(part.orbit_id) == 16

    def test_closure_of_three_5sets(self):
        fam = union_closure(
            Family.from_sets(6, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6], [1, 2, 3, 5, 6]])
        )
        # derived by brute force over all 6! permutations
        assert orbits(fam).orbit_sets() == [(1, 2, 3), (4, 5, 6)]

    def test_orbit_elements_share_frequency(self):
        rng = random.Random(43)
        for _ in range(50):
            fam = random_family(rng, max_n=6)
            part = orbits(fam)
            counts = frequencies(fam).counts
            for orbit in part.orbit_sets():
                assert len({counts[i - 1] for i in orbit}) == 1

    def test_matches_brute_orbits(self):
        rng = random.Random(61)
        for _ in range(60):
            fam = random_family(rng, max_n=6)
            group = brute_automorphisms(fam)
            # the orbit of i is {p(i)}; number orbits by first appearance
            first: dict[int, int] = {}
            expected = tuple(
                first.setdefault(min(p[i] for p in group), len(first)) for i in range(fam.n)
            )
            assert orbits(fam).orbit_id == expected

    def test_singletons_outside_universe(self):
        fam = Family.from_sets(4, [[2, 3]])
        assert orbits(fam).orbit_sets() == [(1,), (2, 3), (4,)]


class TestGroupHelpers:
    def test_generating_set_regenerates(self):
        rng = random.Random(59)
        fams = [Family.from_sets(4, [[1, 2], [3, 4]])]
        fams += [random_family(rng, max_n=6) for _ in range(40)]
        for fam in fams:
            assert generated_group(generating_set(fam), fam.n) == set(brute_automorphisms(fam))

    def test_family_orbit(self):
        fam = Family.from_sets(4, [[1, 2], [3, 4]])
        gens = generating_set(union_closure(Family.from_sets(4, [[1, 2, 3, 4]])))
        orbit = family_orbit(fam, gens)
        # images of {12},{34} under S_4: all perfect matchings of [4]
        assert len(orbit) == 3

    def test_closure_of_all_4sets_of_8(self):
        # |G| = 8! = 40,320: the chain reaches it without listing the group
        closure = union_closure(Family.from_masks(8, lex_ksets(8, 4)))
        gens = generating_set(closure)
        assert len(gens) <= 7
        assert all(apply_perm_family(g, closure) == closure for g in gens)
        assert orbits(closure).num_orbits == 1
        assert len(family_orbit(Family.from_sets(8, [[1, 2, 3, 4]]), gens)) == 70
