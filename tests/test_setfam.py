import random

import pytest

from fcfam.setfam import (
    Family,
    bits,
    compact_universe,
    format_family,
    frequencies,
    is_union_closed,
    lex_ksets,
    lex_prefix,
    mask_elements,
    mask_from_elements,
    no_singletons_family,
    parse_family,
    powerset_family,
    regular_3set_fc,
    regularity,
    restrict_fiber,
    translates_family,
    union_closure,
    universe,
    uplus,
)

from oracles import brute_union_closure, random_family


class TestParse:
    def test_two_members(self):
        fam = parse_family("1,2,3\n1,2,4", 4)
        assert fam == Family.from_sets(4, [[1, 2, 3], [1, 2, 4]])

    def test_empty_set_literal(self):
        fam = parse_family("{}", 2)
        assert fam == Family.from_masks(2, [0])

    def test_blank_line_is_empty_set(self):
        fam = parse_family("1,2\n\n", 2)
        assert fam == Family.from_masks(2, [0, 3])

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_family("1,5", 4)

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            parse_family("1,17", 17)

    def test_header_and_comments(self):
        text = "# a comment\nn=4\n1,2 # trailing\n3\n"
        fam = parse_family(text)
        assert fam.n == 4 and fam.member_sets() == [(1, 2), (3,)]
        # a header may be repeated with the same size
        assert parse_family(text + "n=4\n") == fam

    def test_header_conflict(self):
        with pytest.raises(ValueError, match="conflicts"):
            parse_family("n=3\n1,2", 4)

    def test_duplicates_merge_silently(self):
        assert len(parse_family("1,2\n2,1", 2)) == 1

    def test_default_ground_is_max_element(self):
        assert parse_family("2,5\n1").n == 5

    def test_round_trip(self):
        fam = Family.from_sets(5, [[], [1, 3], [2, 4, 5]])
        assert parse_family(format_family(fam)) == fam


class TestMasks:
    def test_elements_round_trip(self):
        assert mask_elements(mask_from_elements([3, 1], 4)) == (1, 3)

    def test_bits_lists_positions_ascending(self):
        # masks of families and 2^n-bit bitsets of sets, up to 256 bits
        rng = random.Random(26)
        assert bits(0) == []
        for width in (1, 8, 64, 256):
            for _ in range(50):
                x = rng.getrandbits(width)
                assert bits(x) == [i for i in range(width) if x >> i & 1]
                assert mask_elements(x) == tuple(i + 1 for i in bits(x))
        # every popcount from 0 to 256, at widths up to 256 bits
        for count in range(257):
            narrowest = max(count, 1)
            for width in (narrowest, rng.randint(narrowest, 256), 256):
                x = sum(1 << i for i in rng.sample(range(width), count))
                assert bits(x) == [i for i in range(width) if x >> i & 1], (count, width)
        assert bits(1 << 255) == [255]
        assert bits((1 << 256) - 1) == list(range(256))

    def test_family_normal_form(self):
        fam = Family.from_masks(3, [6, 1, 6])
        assert fam.members == (1, 6)

    def test_member_subset_validation(self):
        with pytest.raises(ValueError):
            Family(2, (4,))


class TestClosure:
    def test_two_generators(self):
        fam = union_closure(Family.from_sets(3, [[1, 2], [3]]))
        assert fam == Family.from_sets(3, [[], [1, 2], [3], [1, 2, 3]])

    def test_identity_on_empty_set_family(self):
        fam = union_closure(Family.from_masks(2, [0]))
        assert fam.members == (0,)

    def test_four_subsets_of_five(self):
        # oracle value: pairwise-union fixpoint of the 5 four-subsets of [5]
        base = Family.from_masks(5, [m for m in range(32) if bin(m).count("1") == 4])
        expected = brute_union_closure(base)
        got = union_closure(base)
        assert got == expected
        assert len(got) == 7

    def test_idempotent_and_monotone(self):
        rng = random.Random(11)
        for _ in range(200):
            fam = random_family(rng)
            closed = union_closure(fam)
            assert union_closure(closed) == closed
            assert closed == brute_union_closure(fam)
            bigger = Family.from_masks(
                fam.n, fam.members + (rng.randrange(1 << fam.n),)
            )
            assert set(closed.members) <= set(union_closure(bigger).members)


class TestUplus:
    def test_definition(self):
        a = Family.from_sets(3, [[1]])
        b = Family.from_sets(3, [[2], [1, 3]])
        assert uplus(a, b) == Family.from_sets(3, [[1, 2], [1, 3]])

    def test_identity(self):
        b = Family.from_sets(3, [[2], [1, 3]])
        assert uplus(Family.from_masks(3, [0]), b) == b

    def test_empty_family(self):
        assert len(uplus(Family.from_sets(2, [[1]]), Family(2, ()))) == 0

    def test_ground_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            uplus(Family.from_sets(2, [[1]]), Family.from_sets(3, [[1]]))


class TestFrequencies:
    def test_by_hand(self):
        fam = Family.from_sets(3, [[], [1, 2], [3], [1, 2, 3]])
        assert frequencies(fam).counts == (2, 2, 2)

    def test_empty_family(self):
        assert frequencies(Family(3, ())).counts == (0, 0, 0)

    def test_frankl_element(self):
        fam = Family.from_sets(3, [[1, 2], [1, 3], [2, 3]])
        table = frequencies(fam)
        assert table.counts == (2, 2, 2)
        assert table.frankl_element  # 2 >= 3/2

    def test_count_sum_equals_size_sum(self):
        rng = random.Random(5)
        for _ in range(100):
            fam = random_family(rng)
            assert sum(frequencies(fam).counts) == sum(
                m.bit_count() for m in fam.members
            )


class TestUniverse:
    def test_examples(self):
        assert universe(Family.from_sets(4, [[1, 2], [3]])) == 0b111
        assert universe(Family(4, ())) == 0
        assert universe(Family.from_masks(4, [0])) == 0

    def test_compact(self):
        fam = Family.from_sets(6, [[2, 5], [5, 6]])
        comp, elems = compact_universe(fam)
        assert elems == (2, 5, 6)
        assert comp == Family.from_sets(3, [[1, 2], [2, 3]])


class TestFiber:
    def test_by_definition(self):
        fam = Family.from_sets(4, [[1, 2, 4], [2, 4], [1, 3]])
        t = mask_from_elements([4], 4)
        assert restrict_fiber(fam, t, 3) == Family.from_sets(3, [[1, 2], [2]])

    def test_identity(self):
        fam = Family.from_sets(4, [[1, 2], [3, 4]])
        assert restrict_fiber(fam, 0, 4) == fam

    def test_no_match(self):
        fam = Family.from_sets(5, [[1, 2, 4]])
        assert len(restrict_fiber(fam, mask_from_elements([5], 5), 3)) == 0

    def test_tail_intersects_prefix(self):
        with pytest.raises(ValueError, match="intersects"):
            restrict_fiber(Family.from_sets(4, [[1]]), mask_from_elements([2], 4), 3)

    def test_fibers_of_closed_families_are_closed_and_absorbed(self):
        # for union-closed F containing A with U(A) = [n]: A |+| F^T = F^T
        rng = random.Random(23)
        for _ in range(50):
            n, extra = 3, 2
            total = n + extra
            a = union_closure(
                Family.from_masks(n, [rng.randrange(1 << n) for _ in range(2)] + [(1 << n) - 1])
            )
            lifted = [m | (rng.randrange(1 << extra) << n) for m in range(1 << n) if rng.random() < 0.4]
            f = union_closure(Family.from_masks(total, list(a.members) + lifted))
            for t_high in range(1 << extra):
                fiber = restrict_fiber(f, t_high << n, n)
                if not fiber.members:
                    continue
                assert is_union_closed(fiber)
                assert uplus(Family(n, a.members), fiber) == fiber


class TestLexOrder:
    def test_order_n4_k3(self):
        assert lex_prefix(4, 3, 4).member_sets() == [
            (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)
        ]

    def test_prefix_examples(self):
        assert lex_prefix(5, 4, 2).member_sets() == [(1, 2, 3, 4), (1, 2, 3, 5)]
        assert len(lex_prefix(5, 4, 5)) == 5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lex_prefix(4, 3, 5)

    def test_agrees_with_symmetric_difference_rule(self):
        # A < B iff min(A delta B) in A
        for n, k in [(5, 2), (5, 3), (6, 4)]:
            order = lex_ksets(n, k)
            for a, b in zip(order, order[1:]):
                delta = a ^ b
                low = delta & -delta
                assert a & low, (a, b)


class TestTranslates:
    def test_n4_consecutive(self):
        fam = translates_family(4, {0, 1, 2})
        assert len(fam) == 32
        assert regularity(fam) == 6
        assert regular_3set_fc(fam)

    def test_n5_spread(self):
        fam = translates_family(5, {0, 1, 3})
        # oracle: enumerate translates directly and count
        cells = set()
        rows = {(r % 5, c) for r in (0, 1, 3) for c in range(1)}
        got = set()
        for a in range(5):
            for b in range(5):
                got.add(frozenset(((a + x) % 5, b) for x in (0, 1, 3)))
                got.add(frozenset((a, (b + x) % 5) for x in (0, 1, 3)))
        assert len(fam) == len(got) == 50
        assert regularity(fam) == 6
        assert regular_3set_fc(fam)

    def test_requires_three_residues(self):
        with pytest.raises(ValueError):
            translates_family(4, {0, 1})

    def test_requires_n_at_least_4(self):
        with pytest.raises(ValueError):
            translates_family(3, {0, 1, 2})

    def test_always_regular_3sets(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(4, 8)
            r = rng.sample(range(n), 3)
            fam = translates_family(n, r)
            assert regularity(fam) is not None
            assert all(m.bit_count() == 3 for m in fam.members)


class TestRegularity:
    def test_irregular(self):
        assert regularity(Family.from_sets(3, [[1, 2], [2, 3]])) is None
        assert regularity(Family.from_masks(3, [0])) is None  # empty universe

    def test_single_3set(self):
        fam = Family.from_sets(3, [[1, 2, 3]])
        assert regularity(fam) == 1
        assert not regular_3set_fc(fam)  # degree < 2
        # regular of degree 2 on four elements, but of 2-sets
        cycle = Family.from_sets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
        assert regularity(cycle) == 2
        assert not regular_3set_fc(cycle)

    def test_small_universe_rejected(self):
        # regular 3-sets but universe of size 3
        fam = Family.from_sets(3, [[1, 2, 3]])
        assert not regular_3set_fc(fam)


class TestDomainHelpers:
    def test_powerset(self):
        assert len(powerset_family(3)) == 8

    def test_no_singletons(self):
        fam = no_singletons_family(3)
        assert len(fam) == 5
        assert all(m.bit_count() != 1 for m in fam.members)
