"""Acceptance suite: one test per release criterion, each printing a
single PASS line on success (run with `pytest -s tests/test_acceptance.py`
to see them)."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import fcfam.enumfam

from fcfam.setfam import (
    Family,
    no_singletons_family,
    powerset_family,
    regular_3set_fc,
    regularity,
    translates_family,
    union_closure,
    universe,
)
from fcfam.canon import apply_perm_family, automorphism_group, canonical_form, orbits
from fcfam.sepip import build_separation, solve_separation
from fcfam.fcsolve import is_fc, upper_bound
from fcfam.enumfam import fc_value, fcv_value, lex_scan
from fcfam.verify import verify_certificate

from oracles import (
    brute_automorphisms,
    brute_poonen_fc,
    gen_noniso_families,
    random_family,
    uc_reps_with_full_universe,
)
from test_verify import make_pool, refused, tamper


def report(line):
    print(f"\n[PASS] {line}")


def test_criterion_01_known_small_decisions():
    fc = is_fc(Family.from_sets(2, [[1, 2]]))
    assert fc.kind == "fc"
    assert verify_certificate(fc).passed
    nonfc = is_fc(Family.from_sets(3, [[1, 2, 3]]))
    assert nonfc.kind == "non-fc"
    assert verify_certificate(nonfc).passed
    report("criterion 1: {{1,2}} is FC and {{1,2,3}} is Non-FC, both certificates verified")


def test_criterion_02_fc3_values():
    got = {}
    for n, want in [(4, 3), (5, 3), (6, 4), (7, 4)]:
        rep = fc_value(3, n)
        got[n] = rep.value
        assert rep.value == want, (n, rep)
        assert verify_certificate(rep.witness_certificate).passed
    report(f"criterion 2: FC(3,n) for n=4..7 = {[got[n] for n in (4,5,6,7)]}")


def test_criterion_03_fc4_values():
    rep5 = fc_value(4, 5)
    assert rep5.value == 5
    rep6 = fc_value(4, 6)
    assert rep6.value == 7
    report("criterion 3: FC(4,5) = 5 and FC(4,6) = 7 "
           f"({rep5.wall_time:.1f}s, {rep6.wall_time:.1f}s)")


def test_criterion_04_vfc_results(monkeypatch):
    v3 = Family.from_masks(3, tuple(m for m in range(8) if m != 0b001))
    assert is_fc(Family.from_sets(3, [[1, 2, 3]]), domain=v3).kind == "fc"
    assert (
        is_fc(Family.from_sets(4, [[1, 2, 3, 4]]), domain=no_singletons_family(4)).kind
        == "fc"
    )
    v6 = no_singletons_family(6)
    assert (
        is_fc(
            Family.from_sets(6, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6], [1, 2, 3, 5, 6]]),
            domain=v6,
        ).kind
        == "fc"
    )
    assert (
        is_fc(Family.from_sets(6, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6]]), domain=v6).kind
        == "non-fc"
    )
    decided = []

    def counting(family, **kwargs):
        decided.append(family)
        return is_fc(family, **kwargs)

    monkeypatch.setattr(fcfam.enumfam, "is_fc", counting)
    values = [fcv_value(5, 6, "no-singletons").value]
    decided.clear()
    values.append(fcv_value(5, 7, "no-singletons").value)
    assert len(decided) == 15  # the FC_V(5,7) decisions
    values.append(fcv_value(6, 7, "no-singletons").value)
    assert values == [3, 5, 7]
    report(f"criterion 4: V-FC corollaries hold; FC_V(5,6),(5,7),(6,7) = {values}")


def test_criterion_05_upper_bound_formula():
    assert upper_bound(4, 9, 8, 12) == 21
    assert upper_bound(5, 8, 7, 14) == 36
    assert upper_bound(6, 9, 8, 26) == 76
    rng = random.Random(55)
    for _ in range(100):
        k = rng.randint(3, 6)
        n0 = rng.randint(k, k + 4)
        n = rng.randint(n0 + 1, n0 + 6)
        m0 = rng.randint(1, math.comb(n0, k))
        assert upper_bound(k, n, n0, m0) <= math.comb(n, k)
    report("criterion 5: upper bounds 21/36/76 reproduced; guard holds on 100 random tuples")


def _symmetry_corpus():
    fams = []
    for k in (2, 3, 4):
        for m in (1, 2):
            for n in range(k, 7):
                fams.extend(gen_noniso_families(n, k, m))
    rng = random.Random(66)
    count = 0
    while count < 50:
        fam = random_family(rng, max_n=6, max_members=5)
        fam = Family.from_masks(fam.n, fam.members + ((1 << fam.n) - 1,))
        fams.append(fam)
        count += 1
    return fams


def test_criterion_06_symmetry_equivalence():
    corpus = _symmetry_corpus()
    transitive_checked = 0
    for fam in corpus:
        with_sym = is_fc(fam, symmetry=True)
        without = is_fc(fam, symmetry=False)
        assert with_sym.kind == without.kind, fam
        closure = union_closure(fam)
        if len(orbits(closure)) == 1:
            n = fam.n
            uniform = [Fraction(1, n)] * n
            prob = build_separation(closure, powerset_family(n))
            no_violation = solve_separation(prob, uniform).optimum <= 0
            assert no_violation == (with_sym.kind == "fc"), fam
            transitive_checked += 1
    report(
        f"criterion 6: symmetry on/off verdicts agree on {len(corpus)} families; "
        f"{transitive_checked} transitive families match the uniform-weight check"
    )


def test_criterion_07_oracle_equivalence():
    total = 0
    for n in (1, 2, 3, 4):
        for fam in uc_reps_with_full_universe(n):
            verdict = is_fc(fam).kind == "fc"
            assert verdict == brute_poonen_fc(fam), fam
            total += 1
    report(
        f"criterion 7: cutting-plane verdict equals the definitional check on all "
        f"{total} union-closed families with universe [n], n <= 4, up to isomorphism"
    )


def test_criterion_08_canonical_suite():
    rng = random.Random(88)
    for _ in range(1000):
        fam = random_family(rng, max_n=7, max_members=8)
        perm = tuple(rng.sample(range(1, fam.n + 1), fam.n))
        assert canonical_form(fam) == canonical_form(apply_perm_family(perm, fam))
    checked = 0
    for _ in range(60):
        fam = random_family(rng, max_n=5, max_members=6)
        assert sorted(automorphism_group(fam)) == sorted(brute_automorphisms(fam))
        checked += 1
    report(
        "criterion 8: 1000 random relabelings leave canonical forms unchanged; "
        f"{checked} group orders match brute force"
    )


def test_criterion_09_translates():
    for n in range(4, 9):
        for r in itertools.combinations(range(n), 3):
            fam = translates_family(n, r)
            assert regular_3set_fc(fam), (n, r)
    four = translates_family(4, (0, 1, 2))
    assert len(four) == 32 and regularity(four) == 6
    report("criterion 9: all torus translate families for n = 4..8 certify FC by the "
           "regular 3-set bound; n = 4 has 32 members of degree 6")


def test_criterion_10_lex_scan():
    res = lex_scan(4, 5)
    assert res.m == 5
    assert verify_certificate(res.prefix_fc).passed
    assert res.prev_nonfc is not None and verify_certificate(res.prev_nonfc).passed
    for n in (4, 5, 6):
        scan = lex_scan(3, n)
        assert scan.m == n // 2 + 1, n
        assert scan.m == fc_value(3, n).value
    report("criterion 10: lex_scan(4,5) = 5 with verified certificates; "
           "lex_scan(3,n) matches floor(n/2)+1 and fc_value for n = 4..6")


def test_criterion_11_tamper_suite():
    rng = random.Random(7777)
    pool = make_pool(seed=200)
    detected = 0
    for _ in range(500):
        cert = rng.choice(pool)
        rep = verify_certificate(tamper(cert, rng))
        if not rep.passed:
            refused(rep)
            detected += 1
    assert detected == 500
    report("criterion 11: 500 random single-field certificate tampers all fail verification")
