import itertools
import math
import multiprocessing
import random
import time

import pytest

import fcfam.enumfam
from fcfam.setfam import (
    Family,
    lex_ksets,
    lex_prefix,
    no_singletons_family,
    powerset_family,
    universe,
)
from fcfam.canon import canonical_form, twin_classes
from fcfam.fcsolve import certificate_to_dict, fc3_value, is_fc
from fcfam.verify import verify_certificate
from fcfam.enumfam import (
    EnumSession,
    NfcRegistry,
    _decide,
    _member_invariant,
    _new_set_wins,
    _new_sets,
    _twin_gate,
    fc_value,
    fcv_value,
    get_nfc,
    lex_scan,
)

from oracles import (
    apply_perm_mask,
    brute_poonen_fc,
    full_candidates,
    gen_noniso_families,
    random_family,
    relabel,
)


def brute_classes(n, k, m):
    """All isomorphism classes of m k-subsets of [n] with universe [n]."""
    seen = {}
    for combo in itertools.combinations(lex_ksets(n, k), m):
        fam = Family.from_masks(n, combo)
        if universe(fam) != (1 << n) - 1:
            continue
        seen.setdefault(canonical_form(fam), fam)
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
        classes = {canonical_form(f) for f in fams}
        assert len(classes) == len(fams)
        assert all(universe(f) == (1 << 5) - 1 for f in fams)

    def test_outputs_are_canonical_forms(self):
        for n, k, m in [(5, 3, 2), (6, 4, 2), (7, 5, 2), (6, 3, 3)]:
            for fam in gen_noniso_families(n, k, m):
                assert canonical_form(fam) == fam

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
        classes = set()
        for fam in fams:
            cert = is_fc(fam)
            assert cert.kind == "non-fc"
            assert verify_certificate(cert).passed
            classes.add(canonical_form(fam))
        assert len(classes) == len(fams)

    def test_matches_definitional_enumeration(self):
        # for small parameters: enumerate ALL families, filter Non-FC by the
        # exhaustive Poonen check, reduce by canonical form
        for n, k, m in [(3, 3, 1), (4, 3, 2), (4, 3, 3), (4, 4, 1)]:
            want = {
                canon
                for canon, fam in brute_classes(n, k, m).items()
                if not brute_poonen_fc(fam)
            }
            got = {canonical_form(f) for f in get_nfc(n, k, m)}
            assert got == want, (n, k, m)

    def test_matches_flat_enumeration_at_n5(self):
        # same classes as the one-shot enumeration (verdicts via is_fc, whose
        # own correctness is established against the definitional oracle)
        for n, k, m in [(5, 3, 2), (5, 3, 3), (5, 4, 3), (5, 4, 4)]:
            want = {
                canon
                for canon, fam in brute_classes(n, k, m).items()
                if is_fc(fam).kind == "non-fc"
            }
            got = {canonical_form(f) for f in get_nfc(n, k, m)}
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

    @pytest.mark.parametrize("n,k,m", [(6, 3, 2), (7, 3, 2), (7, 3, 3), (6, 4, 2), (7, 4, 2)])
    def test_first_cells_over_n_match_the_flat_enumeration(self, n, k, m):
        # cells with k(m-1) < n, once listed by the flat enumeration, come
        # out of the recursion: every parent lies over a smaller universe
        # ((7,3,2) is empty, since two 3-sets cannot cover [7])
        want = [f for f in gen_noniso_families(n, k, m) if is_fc(f).kind == "non-fc"]
        assert get_nfc(n, k, m) == want


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
        config = dict(domain=None, symmetry=False, warm_start=True)
        _decide(fam, **config, deadline=start + 1000, time_limit=10)  # the time limit ends first
        _decide(fam, **config, deadline=start + 5, time_limit=1000)  # the run deadline ends first
        _decide(fam, **config, deadline=None, time_limit=10)
        _decide(fam, **config, deadline=start + 5, time_limit=None)
        end = time.monotonic()
        assert start + 10 <= seen[0] <= end + 10
        assert seen[1] == start + 5
        assert start + 10 <= seen[2] <= end + 10
        assert seen[3] == start + 5

    @pytest.mark.parametrize("time_limit", [0, -1])
    @pytest.mark.parametrize("run", [fc_value, fcv_value, lex_scan])
    def test_non_positive_time_limit_rejected(self, run, time_limit):
        # 0 is not "no limit": only None is
        with pytest.raises(ValueError, match="time_limit"):
            run(3, 5, time_limit=time_limit)


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

    @pytest.mark.parametrize("k,n,m_max,status", [(5, 6, None, "undefined"), (4, 6, 4, "exhausted")])
    def test_unresolved_runs_carry_the_witness_certificate(self, k, n, m_max, status):
        rep = fc_value(k, n, m_max)
        assert rep.status == status
        assert rep.witness_certificate is not None
        assert verify_certificate(rep.witness_certificate).passed
        assert rep.witness == rep.witness_certificate.family

    @pytest.mark.parametrize("m_max", [0, -1])
    def test_m_max_below_one_rejected(self, m_max):
        with pytest.raises(ValueError, match="m_max"):
            fc_value(4, 6, m_max=m_max)

    def test_m_max_past_the_complete_family(self):
        # levels beyond C(6,5) = 6 are empty, not clean
        rep = fc_value(5, 6, m_max=10)
        assert rep.status == "undefined" and rep.value is None
        assert max(m for _, m in rep.counts) == 6

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

    def test_no_fc_prefix(self):
        # even the complete family of 5-subsets of [6] is Non-FC
        with pytest.raises(ValueError, match=r"no FC prefix up to C\(6,5\)"):
            lex_scan(5, 6)


class TestFcvValue:
    def test_no_singleton_v56(self):
        rep = fcv_value(5, 6, "no-singletons")
        assert rep.value == 3 and rep.status == "found"
        assert rep.witness is not None
        assert verify_certificate(rep.witness_certificate).passed

    def test_witness_is_the_first_class_of_the_last_bad_level(self):
        rep = fcv_value(5, 7)
        assert (rep.value, rep.status) == (5, "found")
        assert rep.witness == Family.from_sets(
            7, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6], [1, 2, 3, 5, 6], [1, 2, 3, 4, 7]]
        )
        fresh = is_fc(rep.witness, domain=no_singletons_family(7), warm_start=True)
        assert certificate_to_dict(rep.witness_certificate) == certificate_to_dict(fresh)

    def test_asymmetric_domain_rejected(self):
        dom = Family.from_masks(4, tuple(m for m in range(16) if m != 0b0001))
        with pytest.raises(ValueError, match="symmetric"):
            fcv_value(3, 4, dom)

    def test_symmetric_domain_is_fixed_by_every_transposition(self):
        # the check by set sizes refuses exactly the domains that some
        # transposition (1 j) moves; those transpositions generate S_n
        rng = random.Random(11)
        n = 4
        swaps = [tuple(j if i == 1 else 1 if i == j else i for i in range(1, n + 1))
                 for j in range(2, n + 1)]
        for _ in range(40):
            sizes = [r for r in range(n + 1) if rng.random() < 0.5]
            masks = {s for s in range(1 << n) if s.bit_count() in sizes}
            if rng.random() < 0.5:
                masks ^= {rng.randrange(1 << n)}
            dom = Family.from_masks(n, masks)
            fixed = all(relabel(perm, dom) == dom for perm in swaps)
            try:
                fcv_value(3, n, dom)
                refused = False
            except ValueError as exc:  # a symmetric domain may still be invalid
                refused = "symmetric" in str(exc)
            assert refused == (not fixed), sorted(masks)

    def test_unknown_spec_and_foreign_ground_rejected(self):
        with pytest.raises(ValueError, match="unknown domain spec 'no-pairs'"):
            fcv_value(4, 6, "no-pairs")
        with pytest.raises(ValueError, match="domain ground size mismatch"):
            fcv_value(4, 6, no_singletons_family(5))

    @pytest.mark.parametrize(
        "k,n,domain",
        [(5, 6, no_singletons_family(6)), (4, 5, powerset_family(5)), (4, 6, powerset_family(6))],
        ids=["v56-no-singletons", "v45-powerset", "v46-powerset"],
    )
    def test_level_counts_match_the_flat_enumeration(self, k, n, domain):
        # every class over [n] of each level, decided over the domain
        rep = fcv_value(k, n, domain)
        assert rep.status == "found"
        assert sorted(rep.counts) == [(n, m) for m in range(1, len(rep.counts) + 1)]
        for (_, m), count in rep.counts.items():
            flat = gen_noniso_families(n, k, m)
            assert count == sum(is_fc(f, domain=domain).kind == "non-fc" for f in flat), m

    def test_powerset_domain_gives_the_fc_value(self):
        vrep = fcv_value(4, 6, powerset_family(6))
        rep = fc_value(4, 6)
        assert (vrep.status, vrep.value) == (rep.status, rep.value) == ("found", 7)
        assert vrep.counts == {(u, m): c for (u, m), c in rep.counts.items() if u == 6}

    @pytest.mark.parametrize("k,n", [(3, 6), (4, 6), (5, 7)])
    def test_cells_below_the_domain_keep_every_class_undecided(self, isfc_calls, k, n):
        with EnumSession(domain=no_singletons_family(n)) as session:
            for u in range(k, n):
                for m in range(1, math.comb(u, k) + 1):
                    reg = session.get_nfc(u, k, m)
                    assert reg.nfc == gen_noniso_families(u, k, m), (u, m)
                    assert not reg.fc and reg.witness_certificate is None
        assert isfc_calls == []


class TestDriverOptions:
    @pytest.mark.parametrize("run,k,n,option", [(fc_value, 3, 7, {"symmetry": True}),
                                                (fc_value, 3, 7, {"warm_start": False}),
                                                (fcv_value, 5, 6, {"warm_start": False})],
                             ids=["fc37-symmetry", "fc37-cold", "fcv56-cold"])
    def test_an_option_never_changes_the_report(self, run, k, n, option):
        # symmetry and the warm start change how a run decides, never what
        # it finds: the value, the status and every (u, m) count
        default, other = run(k, n), run(k, n, **option)
        assert (other.value, other.status, other.counts) == (
            default.value, default.status, default.counts)
        assert verify_certificate(other.witness_certificate).passed


@pytest.fixture
def isfc_calls(monkeypatch):
    """Count the decisions the drivers make through enumfam.is_fc."""
    calls = []

    def counting(family, **kwargs):
        calls.append(family)
        return is_fc(family, **kwargs)

    monkeypatch.setattr(fcfam.enumfam, "is_fc", counting)
    return calls


@pytest.fixture
def recorded(monkeypatch):
    """The families the getNFC cells record, decided FC or Non-FC."""
    fams = []
    real = NfcRegistry.record

    def recording(self, fam, cert):
        fams.append(fam)
        real(self, fam, cert)

    monkeypatch.setattr(NfcRegistry, "record", recording)
    return fams


def first_full_prefix(n, k):
    uni = 0
    for idx, s in enumerate(lex_ksets(n, k)):
        uni |= s
        if uni == (1 << n) - 1:
            return idx + 1


class TestOneDecisionPerFamily:
    def test_fcv_value_decides_each_family_once(self, isfc_calls, recorded):
        rep = fcv_value(5, 6)
        assert rep.value == 3
        assert isfc_calls == recorded
        assert len(recorded) == 2
        assert rep.witness in isfc_calls

    def test_fcv_witness_certificate_is_a_fresh_decision(self):
        rep = fcv_value(5, 6)
        fresh = is_fc(rep.witness, domain=no_singletons_family(6), warm_start=True)
        assert certificate_to_dict(rep.witness_certificate) == certificate_to_dict(fresh)

    @pytest.mark.parametrize("k,n,decided", [(3, 5, 7), (4, 6, 50)], ids=["3-5", "4-6"])
    def test_fc_value_decides_each_family_once(self, isfc_calls, recorded, k, n, decided):
        rep = fc_value(k, n)
        assert rep.status == "found"
        assert isfc_calls == recorded
        assert len(recorded) == decided
        assert rep.witness in isfc_calls
        fresh = is_fc(rep.witness, warm_start=True)
        assert certificate_to_dict(rep.witness_certificate) == certificate_to_dict(fresh)

    def test_fc_supersets_are_not_decided_again(self, isfc_calls, recorded):
        # {123, 124, 134, 567, 568} holds {123, 124, 134} two members down,
        # which is FC since FC(3,4) = 3; its n = 8 proof takes minutes, so
        # deciding it would raise TimeoutError here
        held = Family.from_sets(8, [[1, 2, 3], [1, 2, 4], [1, 3, 4], [5, 6, 7], [5, 6, 8]])
        rep = fc_value(3, 8, time_limit=30)
        assert (rep.status, rep.value) == ("found", fc3_value(8)) == ("found", 5)
        assert verify_certificate(rep.witness_certificate).passed
        assert isfc_calls == recorded
        assert len(recorded) == 22
        assert canonical_form(held) not in {canonical_form(f) for f in recorded}

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

    @pytest.mark.parametrize("k,n", [(3, 5), (3, 6), (4, 6)])
    def test_fc_value_opens_one_pool(self, monkeypatch, k, n):
        # (3, 6) classifies two batches of several families each; the
        # workers send (4, 6)'s Non-FC certificates pending, unbuilt
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

    @pytest.mark.parametrize("k,n,value,calls", [(3, 7, 4, 18), (4, 6, 7, 35)],
                             ids=["fc37", "fc46"])
    def test_one_subfamily_test_per_extension_class(self, monkeypatch, k, n, value, calls):
        # an extension class is tested for an FC subfamily once, whether it
        # is kept or rejected, in every cell whose previous level knows an
        # FC class; a cell whose previous level knows none tests nothing
        classes = []
        real = fcfam.enumfam._has_subfamily_in

        def recording(fam, old, tables):
            classes.append(canonical_form(fam))
            return real(fam, old, tables)

        monkeypatch.setattr(fcfam.enumfam, "_has_subfamily_in", recording)
        rep = fc_value(k, n)
        assert len(classes) == len(set(classes)) == calls
        assert rep.value == value

    @pytest.mark.parametrize("run,k,n,calls", [("fc", 3, 7, 96), ("fc", 4, 6, 279),
                                              ("fcv", 5, 6, 2)],
                             ids=["fc37", "fc46", "fcv56"])
    def test_canonical_labelings_per_run(self, monkeypatch, run, k, n, calls):
        # with neither the twin test nor the member-invariant filter, this
        # path labels 215, 486 and 9 times; with the twin test alone 105,
        # 318 and 2, and with the invariant filter alone 199, 385 and 9.
        # Both drop new sets before labeling, and neither drops a class
        count = [0]
        real = fcfam.enumfam.canonical_form

        def counting(family):
            count[0] += 1
            return real(family)

        monkeypatch.setattr(fcfam.enumfam, "canonical_form", counting)
        rep = fc_value(k, n) if run == "fc" else fcv_value(k, n)
        assert rep.status == "found"
        assert count[0] == calls


def twin_prefix(parent, s):
    """s with its elements in each twin class of the parent moved to the
    lowest ones of that class: an image of s under the parent's twin
    transpositions, so its extension is isomorphic to that by s."""
    classes = {}
    for e, rep in enumerate(twin_classes(parent.members, parent.n)):
        classes.setdefault(rep, []).append(e)
    out = s >> parent.n << parent.n  # the fresh elements
    for elems in classes.values():
        for e in elems[:sum(s >> e & 1 for e in elems)]:
            out |= 1 << e
    return out


class TestTwinFilter:
    @pytest.mark.parametrize("k,n,v,closed", [(3, 7, False, True), (4, 6, False, True),
                                              (5, 7, False, False), (5, 6, True, False)],
                             ids=["fc37", "fc46", "fc57", "fcv56"])
    def test_dropped_sets_label_as_their_representative(self, k, n, v, closed):
        # over every parent of every cell up to m = 8: a new set the twin
        # test drops extends the parent to a copy of the extension by its
        # twin prefix, which the test keeps.  In FC(3,7) and FC(4,6) it also
        # drops sets in cells whose previous level knows an FC class, where
        # the invariant filter is off
        domain = no_singletons_family(n) if v else None
        dropped = dropped_closed = 0
        with EnumSession(domain=domain) as session:
            for m in range(2, 9):
                for u in range(k, n + 1):
                    prev = [session.get_nfc(i, k, m - 1) for i in range(max(k, u - k), u + 1)]
                    augment = not any(reg.fc for reg in prev)
                    for parent in (p for reg in prev for p in reg.nfc):
                        lowest = _twin_gate(parent)
                        for s in _new_sets(parent, k, u - parent.n):
                            rep = twin_prefix(parent, s)
                            kept = lowest(s)
                            assert kept == (rep == s), (parent, s)
                            if kept:
                                continue
                            assert lowest(rep)
                            ext = Family.from_masks(u, parent.members + (s,))
                            twin = Family.from_masks(u, parent.members + (rep,))
                            assert canonical_form(ext) == canonical_form(twin), (parent, s)
                            dropped += 1
                            dropped_closed += not augment
        assert dropped > 0
        assert (dropped_closed > 0) == closed


class TestInvariantFilter:
    @pytest.mark.parametrize("k,n,v", [(3, 6, False), (4, 6, False), (5, 7, False),
                                       (4, 6, True), (5, 6, True)],
                             ids=["fc36", "fc46", "fc57", "fcv46", "fcv56"])
    def test_candidates_equal_full_extension(self, k, n, v):
        # every cell up to m = 7, whether the gate is open or closed
        domain = no_singletons_family(n) if v else None
        with EnumSession(domain=domain) as session:
            for m in range(1, 8):
                for u in range(k, n + 1):
                    got = session.candidates(u, k, m)
                    assert got == full_candidates(session, u, k, m), (u, m)

    @pytest.mark.parametrize("k,n,m_max,tie_lost", [(5, 7, 8, False), (3, 7, 5, True)],
                             ids=["fc57", "fc37"])
    def test_degree_sums_decide_as_the_whole_invariant(self, k, n, m_max, tie_lost):
        # over every parent of every cell up to m_max, _new_set_wins
        # accepts some extensions and not others, and some new sets tie on
        # degree sums.  In FC(5,7) a new set that ties always wins; in
        # FC(3,7) some lose on the intersection sizes, so that half of the
        # invariant decides too
        tested = accepted = ties = lost = 0
        with EnumSession() as session:
            for m in range(2, m_max + 1):
                for u in range(k, n + 1):
                    for i in range(max(k, u - k), u + 1):
                        for parent in session.get_nfc(i, k, m - 1).nfc:
                            for s in _new_sets(parent, k, u - parent.n):
                                members = Family.from_masks(u, parent.members + (s,)).members
                                expected = _new_set_wins(parent.members, s)
                                tested += 1
                                accepted += expected
                                mine = _member_invariant(members, s)[0]
                                tie = mine == max(_member_invariant(members, y)[0]
                                                  for y in parent.members)
                                ties += tie
                                lost += tie and not expected
        assert 0 < accepted < tested
        assert ties > 0
        assert (lost > 0) == tie_lost

    def test_member_invariant_survives_relabeling(self):
        rng = random.Random(23)
        for _ in range(200):
            fam = random_family(rng)
            perm = tuple(rng.sample(range(1, fam.n + 1), fam.n))
            img = relabel(perm, fam)
            for s in fam.members:
                assert _member_invariant(img.members, apply_perm_mask(perm, s)) == \
                    _member_invariant(fam.members, s), (fam, perm, s)
