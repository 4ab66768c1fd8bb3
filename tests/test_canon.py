import itertools
import random

import pytest

import fcfam.enumfam
from fcfam.enumfam import fc_value, fcv_value
from fcfam.setfam import (
    Family,
    frequencies,
    lex_ksets,
    lex_prefix,
    no_singletons_family,
    powerset_family,
    translates_family,
    union_closure,
)
from fcfam.canon import (
    apply_perm_family,
    are_isomorphic,
    automorphism_group,
    canonical_form,
    compose,
    element_orbits,
    family_orbit,
    generating_set,
    identity_perm,
    orbits,
)

from oracles import (
    brute_automorphisms,
    brute_min_canonical,
    random_family,
    unpacked_canonical_form,
)


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
        assert canonical_form(a) == canonical_form(b)

    def test_empty_set_family(self):
        assert canonical_form(Family.from_masks(2, [0])).members == (0,)

    def test_two_4sets_over_five(self):
        a = Family.from_sets(5, [[1, 2, 3, 4], [1, 2, 3, 5]])
        b = Family.from_sets(5, [[2, 3, 4, 5], [1, 3, 4, 5]])
        # derived by exhibiting a bijection via brute force over 5! relabelings
        assert brute_min_canonical(a) == brute_min_canonical(b)
        assert canonical_form(a) == canonical_form(b)

    def test_matches_brute_minimum(self):
        rng = random.Random(17)
        for _ in range(150):
            fam = random_family(rng, max_n=5)
            assert canonical_form(fam) == brute_min_canonical(fam)

    def test_invariance_under_relabeling(self):
        rng = random.Random(29)
        for _ in range(200):
            fam = random_family(rng, max_n=7)
            perm = random_perm(rng, fam.n)
            assert canonical_form(apply_perm_family(perm, fam)) == canonical_form(fam)

    def test_canonical_form_is_a_fixed_point(self):
        rng = random.Random(47)
        for _ in range(200):
            canon = canonical_form(random_family(rng, max_n=7))
            assert canonical_form(canon) == canon

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
            assert canonical_form(fam) == brute_min_canonical(fam)


class TestPackedSearch:
    """The packed search against the per-member search it replaced, on
    universes up to the 16-element cap, where brute force is out of reach."""

    def test_random_families_up_to_16_elements(self):
        rng = random.Random(67)
        for trial in range(200):
            # one in four draws is over [16], with a member that holds bit
            # 15, and one in eight holds [16] itself, whose bound field
            # starts at 2^16 - 1
            n = 16 if trial % 4 == 0 else rng.randint(1, 15)
            masks = rng.sample(range(1 << n), min(rng.randint(1, 3), 1 << n))
            if n == 16:
                masks.append(1 << 15 | rng.getrandbits(15))
            if trial % 8 == 0:
                masks.append((1 << 16) - 1)
            if trial % 3 == 0:
                masks.append(0)  # the empty set as a member
            fam = Family.from_masks(n, masks)
            assert canonical_form(fam) == unpacked_canonical_form(fam), fam

    def test_families_of_64_or_more_members(self):
        rng = random.Random(71)
        fams = [powerset_family(6), no_singletons_family(7)]
        for _ in range(24):
            n = rng.randint(6, 8)
            count = rng.randint(64, min(100, 1 << n))
            fams.append(Family.from_masks(n, rng.sample(range(1 << n), count)))
        for fam in fams:
            assert len(fam.members) >= 64
            assert canonical_form(fam) == unpacked_canonical_form(fam), fam

    def test_fifteen_15_subsets_of_16(self):
        # [16] less one of the elements 2..16: element 1 lies in every
        # member, so it takes the lowest label and the family is canonical
        full = (1 << 16) - 1
        fam = Family.from_masks(16, [full ^ 1 << i for i in range(1, 16)])
        assert canonical_form(fam) == unpacked_canonical_form(fam) == fam
        perm = tuple(range(16, 0, -1))
        assert canonical_form(apply_perm_family(perm, fam)) == fam

    @pytest.mark.parametrize("run,k,n", [("fc", 4, 6), ("fcv", 5, 6)], ids=["fc46", "fcv56"])
    def test_every_extension_a_run_labels(self, monkeypatch, run, k, n):
        labeled = []
        real = fcfam.enumfam.canonical_form

        def checked(family):
            canon = real(family)
            assert canon == unpacked_canonical_form(family), family
            labeled.append(family)
            return canon

        monkeypatch.setattr(fcfam.enumfam, "canonical_form", checked)
        rep = fc_value(k, n) if run == "fc" else fcv_value(k, n)
        assert rep.status == "found"
        assert labeled


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
        assert orbits(fam) == [(1, 2, 3)]

    def test_path_family(self):
        assert orbits(Family.from_sets(3, [[1, 2], [2, 3]])) == [(1, 3), (2,)]

    def test_translates_single_orbit(self):
        fam = translates_family(4, {0, 1, 2})
        assert orbits(fam) == [tuple(range(1, 17))]

    def test_closure_of_three_5sets(self):
        fam = union_closure(
            Family.from_sets(6, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6], [1, 2, 3, 5, 6]])
        )
        # derived by brute force over all 6! permutations
        assert orbits(fam) == [(1, 2, 3), (4, 5, 6)]

    def test_orbit_elements_share_frequency(self):
        rng = random.Random(43)
        for _ in range(50):
            fam = random_family(rng, max_n=6)
            counts = frequencies(fam).counts
            for orbit in orbits(fam):
                assert len({counts[i - 1] for i in orbit}) == 1

    def test_matches_brute_orbits(self):
        rng = random.Random(61)
        for _ in range(60):
            fam = random_family(rng, max_n=6)
            group = brute_automorphisms(fam)
            # the orbit of i is {p(i)}; list orbits by least element
            expected = sorted({tuple(sorted({p[i] for p in group})) for i in range(fam.n)})
            assert orbits(fam) == expected

    def test_singletons_outside_universe(self):
        fam = Family.from_sets(4, [[2, 3]])
        assert orbits(fam) == [(1,), (2, 3), (4,)]

    def test_element_orbits(self):
        # no generators: the n singletons; generators that are not a whole
        # generating_set (as is_fc passes): a transposition, a 3-cycle, both
        assert element_orbits([], 4) == [(1,), (2,), (3,), (4,)]
        swap, cycle = (2, 1, 3, 4, 5), (1, 2, 4, 5, 3)
        assert element_orbits([swap], 5) == [(1, 2), (3,), (4,), (5,)]
        assert element_orbits([cycle], 5) == [(1,), (2,), (3, 4, 5)]
        assert element_orbits([swap, cycle], 5) == [(1, 2), (3, 4, 5)]


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
        assert len(orbits(closure)) == 1
        assert len(family_orbit(Family.from_sets(8, [[1, 2, 3, 4]]), gens)) == 70
