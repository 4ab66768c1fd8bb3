import itertools
import math
import multiprocessing
import random
import re
import time

import pytest

import fcfam.enumfam
from fcfam.setfam import Family, lex_ksets, lex_prefix, no_singletons_family, universe
from fcfam.canon import canonical_form, canonical_key
from fcfam.fcsolve import certificate_to_dict, is_fc
from fcfam.verify import verify_certificate
from fcfam.enumfam import (
    EnumSession,
    NfcRegistry,
    _decide,
    fc_value,
    fcv_value,
    gen_noniso_families,
    get_nfc,
    lex_scan,
)

from oracles import brute_poonen_fc


def brute_classes(n, k, m):
    """All isomorphism classes of m k-subsets of [n] with universe [n]."""
    seen = {}
    for combo in itertools.combinations(lex_ksets(n, k), m):
        fam = Family.from_masks(n, combo)
        if universe(fam) != (1 << n) - 1:
            continue
        seen.setdefault(canonical_key(fam), fam)
    return seen


class TestGenNonIso:
    def test_single_class(self):
        assert gen_noniso_families(3, 3, 1) == [Family.from_sets(3, [[1, 2, 3]])]

    def test_universe_unreachable(self):
        assert gen_noniso_families(4, 3, 1) == []

    def test_pairs_in_four(self):
        # brute force: all 6 pairs of 3-subsets of [4] share exactly two
        # elements, so there is a single class
        fams = gen_noniso_families(4, 3, 2)
        assert len(fams) == len(brute_classes(4, 3, 2)) == 1

    def test_counts_match_brute_enumeration(self):
        for n, k, m in [(4, 3, 3), (5, 3, 2), (5, 3, 3), (5, 4, 3), (6, 3, 2), (6, 4, 2)]:
            got = gen_noniso_families(n, k, m)
            assert len(got) == len(brute_classes(n, k, m)), (n, k, m)

    def test_outputs_cover_universe_and_are_distinct(self):
        fams = gen_noniso_families(5, 3, 3)
        keys = {canonical_key(f) for f in fams}
        assert len(keys) == len(fams)
        assert all(universe(f) == (1 << 5) - 1 for f in fams)

    def test_outputs_are_canonical_forms(self):
        # get_nfc records base-level families without canonicalizing them again
        for n, k, m in [(5, 3, 2), (6, 4, 2), (7, 5, 2), (6, 3, 3)]:
            for fam in gen_noniso_families(n, k, m):
                assert canonical_form(fam).relabeled == fam

    def test_impossible_parameters(self):
        assert gen_noniso_families(4, 3, 5) == []  # m > C(4,3)
        assert gen_noniso_families(3, 4, 1) == []  # k > n


class TestGetNfc:
    def test_single_3set(self):
        assert get_nfc(3, 3, 1) == [Family.from_sets(3, [[1, 2, 3]])]

    def test_fc34_level(self):
        # FC(3,4) = 3: no Non-FC family of three 3-sets over [4]
        assert get_nfc(4, 3, 3) == []
        assert len(get_nfc(4, 3, 2)) >= 1

    def test_fc45_complete_level_empty(self):
        assert get_nfc(5, 4, 5) == []

    def test_fc36_level_empty(self):
        # every family of four 3-sets with universe [6] is FC
        assert get_nfc(6, 3, 4) == []

    def test_outputs_are_nonfc_and_noniso(self):
        fams = get_nfc(5, 3, 2)
        keys = set()
        for fam in fams:
            cert = is_fc(fam)
            assert cert.kind == "non-fc"
            assert verify_certificate(cert).passed
            keys.add(canonical_key(fam))
        assert len(keys) == len(fams)

    def test_matches_definitional_enumeration(self):
        # for small parameters: enumerate ALL families, filter Non-FC by the
        # exhaustive Poonen check, reduce by canonical form
        for n, k, m in [(3, 3, 1), (4, 3, 2), (4, 3, 3), (4, 4, 1)]:
            want = {
                key
                for key, fam in brute_classes(n, k, m).items()
                if not brute_poonen_fc(fam)
            }
            got = {canonical_key(f) for f in get_nfc(n, k, m)}
            assert got == want, (n, k, m)

    def test_matches_flat_enumeration_at_n5(self):
        # same classes as the one-shot enumeration (verdicts via is_fc, whose
        # own correctness is established against the definitional oracle)
        for n, k, m in [(5, 3, 2), (5, 3, 3), (5, 4, 3), (5, 4, 4)]:
            want = {
                key
                for key, fam in brute_classes(n, k, m).items()
                if is_fc(fam).kind == "non-fc"
            }
            got = {canonical_key(f) for f in get_nfc(n, k, m)}
            assert got == want, (n, k, m)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            get_nfc(3, 2, 1)

    def test_jobs_do_not_change_results(self):
        seq = get_nfc(4, 3, 2, jobs=1)
        par = get_nfc(4, 3, 2, jobs=2)
        assert seq == par

    def test_deadline_raises(self):
        import time

        with pytest.raises(TimeoutError):
            get_nfc(6, 3, 4, deadline=time.monotonic() - 1)


class TestDeadlines:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_deadline_stops_a_decision(self, jobs):
        fams = [lex_prefix(6, 4, 7), lex_prefix(6, 4, 8)]
        with EnumSession(jobs, deadline=time.monotonic() - 1) as session:
            with pytest.raises(TimeoutError):
                list(session.classify(fams))

    def test_decision_takes_the_earlier_deadline(self, monkeypatch):
        seen = []
        monkeypatch.setattr(fcfam.enumfam, "is_fc", lambda fam, **kw: seen.append(kw["deadline"]))
        fam = lex_prefix(5, 4, 5)
        start = time.monotonic()
        _decide((fam, None, False, True, start + 1000, 10))  # the time limit ends first
        _decide((fam, None, False, True, start + 5, 1000))  # the run deadline ends first
        _decide((fam, None, False, True, None, 10))
        _decide((fam, None, False, True, start + 5, None))
        end = time.monotonic()
        assert start + 10 <= seen[0] <= end + 10
        assert seen[1] == start + 5
        assert start + 10 <= seen[2] <= end + 10
        assert seen[3] == start + 5


class TestFcValue:
    def test_fc34(self):
        rep = fc_value(3, 4)
        assert rep.value == 3 and rep.status == "found"
        assert rep.witness is not None and len(rep.witness) == 2
        assert rep.witness_certificate is not None
        assert verify_certificate(rep.witness_certificate).passed

    def test_fc45(self):
        rep = fc_value(4, 5)
        assert rep.value == 5

    def test_m_max_exhausted(self):
        rep = fc_value(3, 6, m_max=2)
        assert rep.status == "exhausted" and rep.value is None

    def test_fc56_is_undefined(self):
        # the complete family of all 5-subsets of [6] is Non-FC
        rep = fc_value(5, 6)
        assert rep.status == "undefined" and rep.value is None

    def test_counts_recorded(self):
        rep = fc_value(3, 4)
        assert rep.counts[(3, 1)] == 1  # the single 3-set is Non-FC
        assert rep.counts[(4, 3)] == 0


class TestLexScan:
    def test_fc45_bundle(self):
        res = lex_scan(4, 5)
        assert res.m == 5
        assert verify_certificate(res.prefix_fc).passed
        assert res.prev_nonfc is not None
        assert verify_certificate(res.prev_nonfc).passed

    def test_k3_trivial_scans(self):
        assert lex_scan(3, 4).m == 3
        assert lex_scan(3, 5).m == 3
        res = lex_scan(3, 6)
        assert res.m == 4
        # the predecessor prefix lives on universe [5] and is FC there
        assert res.prev_nonfc is None


class TestFcvValue:
    def test_no_singleton_v56(self):
        rep = fcv_value(5, 6, "no-singletons")
        assert rep.value == 3 and rep.status == "found"
        assert rep.witness is not None
        assert verify_certificate(rep.witness_certificate).passed

    def test_asymmetric_domain_rejected(self):
        dom = Family.from_masks(4, tuple(m for m in range(16) if m != 0b0001))
        with pytest.raises(ValueError, match="symmetric"):
            fcv_value(3, 4, dom)


@pytest.fixture
def isfc_calls(monkeypatch):
    """Count the decisions the drivers make through enumfam.is_fc."""
    calls = []

    def counting(family, **kwargs):
        calls.append(family)
        return is_fc(family, **kwargs)

    monkeypatch.setattr(fcfam.enumfam, "is_fc", counting)
    return calls


def first_full_prefix(n, k):
    uni = 0
    for idx, s in enumerate(lex_ksets(n, k)):
        uni |= s
        if uni == (1 << n) - 1:
            return idx + 1


class TestOneDecisionPerFamily:
    def test_fcv_value_decides_each_family_once(self, isfc_calls):
        solved = []

        def count_solved(msg):
            solved.append(int(re.search(r"solved=(\d+)", msg)[1]))

        rep = fcv_value(5, 6, progress=count_solved)
        assert rep.value == 3
        assert len(isfc_calls) == sum(solved) > 0
        assert rep.witness in isfc_calls

    def test_fcv_witness_certificate_is_a_fresh_decision(self):
        rep = fcv_value(5, 6)
        fresh = is_fc(rep.witness, domain=no_singletons_family(6), warm_start=True)
        assert certificate_to_dict(rep.witness_certificate) == certificate_to_dict(fresh)

    @pytest.mark.parametrize("k,n", [(3, 5), (4, 6)])
    def test_fc_value_decides_each_family_once(self, isfc_calls, monkeypatch, k, n):
        recorded = []
        real = NfcRegistry.record

        def counting(self, key, fam, cert):
            recorded.append(fam)
            real(self, key, fam, cert)

        monkeypatch.setattr(NfcRegistry, "record", counting)
        rep = fc_value(k, n)
        assert rep.status == "found"
        assert isfc_calls == recorded
        assert rep.witness in isfc_calls
        fresh = is_fc(rep.witness, warm_start=True)
        assert certificate_to_dict(rep.witness_certificate) == certificate_to_dict(fresh)

    def test_lex_scan_decides_each_prefix_once(self, isfc_calls):
        res = lex_scan(4, 5)
        assert len(isfc_calls) == res.m - first_full_prefix(5, 4) + 1
        prev = Family.from_masks(5, lex_ksets(5, 4)[: res.m - 1])
        fresh = is_fc(prev, warm_start=True)
        assert certificate_to_dict(res.prev_nonfc) == certificate_to_dict(fresh)

    def test_lex_scan_decides_the_predecessor_on_its_own_universe(self, isfc_calls):
        res = lex_scan(3, 6)
        assert res.m == first_full_prefix(6, 3)
        assert res.prev_nonfc is None
        assert len(isfc_calls) == 2 and isfc_calls[1].n == 5


class TestWorkerPool:
    def test_fcv_value_jobs_do_not_change_results(self):
        seq = fcv_value(5, 6, jobs=1)
        par = fcv_value(5, 6, jobs=2)
        assert (par.value, par.status, par.counts, par.witness) == (
            seq.value, seq.status, seq.counts, seq.witness
        )
        assert certificate_to_dict(par.witness_certificate) == certificate_to_dict(
            seq.witness_certificate
        )

    @pytest.mark.parametrize("k,n", [(3, 5), (3, 6)])
    def test_fc_value_opens_one_pool(self, monkeypatch, k, n):
        # (3, 6) classifies two batches of several families each
        real = multiprocessing.Pool
        pools = []

        def counting(*args, **kwargs):
            pools.append(real(*args, **kwargs))
            return pools[-1]

        monkeypatch.setattr(multiprocessing, "Pool", counting)
        rep = fc_value(k, n, jobs=2)
        assert len(pools) == 1
        seq = fc_value(k, n)
        assert (rep.value, rep.counts, rep.witness) == (seq.value, seq.counts, seq.witness)
        assert certificate_to_dict(rep.witness_certificate) == certificate_to_dict(
            seq.witness_certificate
        )


class TestCanonicalLabelingCalls:
    def test_no_subfamily_lookups_into_empty_fc_tables(self, monkeypatch):
        session = EnumSession()
        for i in range(5, 8):
            session.get_nfc(i, 5, 3)
        assert all(not session.memo[(i, 5, 3)].fc for i in range(5, 8))
        seen = []
        real = fcfam.enumfam.canonical_form

        def recording(family):
            seen.append(family)
            return real(family)

        monkeypatch.setattr(fcfam.enumfam, "canonical_form", recording)
        session.get_nfc(7, 5, 4)
        assert seen
        assert all(len(f.members) == 4 for f in seen)
