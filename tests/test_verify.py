import copy
import dataclasses
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import fcfam.sepip
import fcfam.verify
from fcfam.setfam import Family, no_singletons_family, powerset_family, union_closure
from fcfam.fcsolve import (
    CertificateError,
    FcCertificate,
    NonFcCertificate,
    certificate_from_dict,
    certificate_to_dict,
    is_fc,
)
from fcfam.sepip import LEAF, brute_separation, build_separation, solve_separation
from fcfam.verify import (
    check_separation_proof,
    verify_certificate,
    verify_fc,
    verify_nonfc,
)

from oracles import (
    gen_noniso_families,
    proof_nodes,
    random_family,
    separation_candidates,
    set_check_separation_proof,
)
from test_golden_certificates import CASES, decide
from test_sepip import random_instance, random_weights


def make_pool(seed=100):
    """A mixed pool of valid certificates for tamper experiments."""
    rng = random.Random(seed)
    pool = [
        is_fc(Family.from_sets(2, [[1, 2]])),
        is_fc(Family.from_sets(3, [[1, 2, 3]])),
        is_fc(Family.from_sets(3, [[1, 2, 3]]), domain=no_singletons_family(3)),
        is_fc(Family.from_sets(4, [[1, 2, 3, 4]]), domain=no_singletons_family(4)),
        is_fc(Family.from_sets(4, [[1, 2, 3], [1, 2, 4]]), symmetry=True),
        is_fc(Family.from_sets(4, [[1, 2], [3, 4]]), warm_start=True),
    ]
    while len(pool) < 12:
        fam = random_family(rng, max_n=4, max_members=4)
        fam = Family.from_masks(fam.n, fam.members + ((1 << fam.n) - 1,))
        pool.append(is_fc(fam, symmetry=rng.random() < 0.5, warm_start=rng.random() < 0.5))
    return pool


def tamper(cert, rng):
    """One random single-field mutation over the integrity-checked fields:
    a ground element of a Non-FC cut, one rational (weight, Farkas
    multiplier, or lambda), or the separation proof cut short or extended by
    one entry."""
    cert = copy.deepcopy(cert)
    if isinstance(cert, FcCertificate):
        choices = ["weight", "proof-truncate", "proof-extend"]
    else:
        choices = ["cut-element", "multiplier", "lambda"]
    kind = rng.choice(choices)
    delta = Fraction(rng.choice([1, -1]), rng.choice([1, 2, 3]))
    if kind == "cut-element":
        idx = rng.randrange(len(cert.cuts))
        members = list(cert.cuts[idx].members)
        j = rng.randrange(len(members))
        members[j] ^= 1 << rng.randrange(cert.n)
        cert.cuts[idx] = Family.from_masks(cert.n, members)
    elif kind == "weight":
        w = list(cert.weights)
        j = rng.randrange(len(w))
        w[j] = max(Fraction(0), w[j] + delta)
        if w[j] == cert.weights[j]:
            w[j] += 1
        cert.weights = tuple(w)
    elif kind == "proof-truncate":
        cert.proof = cert.proof[: rng.randrange(len(cert.proof))]
    elif kind == "proof-extend":
        cert.proof = cert.proof + (rng.choice([LEAF, rng.randrange(1 << cert.n)]),)
    elif kind == "multiplier":
        y = list(cert.multipliers)
        j = rng.randrange(len(y))
        y[j] = y[j] + delta if y[j] + delta != y[j] else y[j] + 1
        cert.multipliers = tuple(y)
    else:
        cert.lam = cert.lam + delta
    return cert


def refused(rep):
    """A refused report's failure, once it is shown that the first failed
    check ended the verification: that check is the last entry, every entry
    before it passed, and the failure starts with its name."""
    *before, (name, ok) = rep.checked
    assert not ok and all(ok for _, ok in before), rep.checked
    assert rep.failure.startswith(name)
    return rep.failure


class TestValidCertificates:
    def test_roundtrip_small_k_set_families(self):
        # every certificate produced over small generator families verifies,
        # before and after serialization
        checked = 0
        for k in (3, 4):
            for n in range(k, 7):
                for m in (1, 2, 3):
                    for fam in gen_noniso_families(n, k, m):
                        cert = is_fc(fam)
                        assert verify_certificate(cert).passed, (fam, cert.kind)
                        again = certificate_from_dict(certificate_to_dict(cert))
                        assert verify_certificate(again).passed
                        checked += 1
        assert checked == 19

    def test_report_lists_checks(self):
        rep = verify_certificate(is_fc(Family.from_sets(2, [[1, 2]])))
        names = [name for name, _ in rep.checked]
        assert "weights-simplex" in names
        assert "separation-nonpositive" in names
        assert rep.passed and rep.failure is None


FC_N5 = (5, [[1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 4, 5]])
NONFC_N5 = (5, [[1, 2, 3], [3, 4, 5]])

# one change per top-level field of a certificate file, each of which the
# loader or the checker must refuse
FIELD_CHANGES = {
    "fc": {
        "kind": lambda d: "non-fc",
        "n": lambda d: d["n"] + 1,
        # a single set of three or more elements is Non-FC
        "family": lambda d: [list(range(1, d["n"] + 1))],
        "domain": lambda d: [[]],
        "weights": lambda d: ["1"] + ["0"] * (d["n"] - 1),
        "proof": lambda d: d["proof"][:-1],
    },
    "non-fc": {
        "kind": lambda d: "fc",
        "n": lambda d: d["n"] + 1,
        # a family with a singleton is FC
        "family": lambda d: d["family"] + [[1]],
        "domain": lambda d: [[]],
        "cuts": lambda d: d["cuts"][1:],
        "farkas": lambda d: dict(d["farkas"],
                                 **{"lambda": str(Fraction(d["farkas"]["lambda"]) + 1)}),
    },
}

# an FC file as written before FC certificates dropped their cuts, and a
# Non-FC file as written before certificates dropped their symmetry flag
OLDER_FC_FILE = ('{"kind": "fc", "n": 2, "family": [[1, 2]], "domain": "full", '
                 '"cuts": [[[], [2], [1, 2]]], "symmetry": false, '
                 '"weights": ["1/2", "1/2"], "proof": [-1]}')
OLDER_NONFC_FILE = ('{"kind": "non-fc", "n": 3, "family": [[1, 2, 3]], "domain": "full", '
                    '"cuts": [[[], [1], [1, 2, 3]], [[], [2], [1, 2, 3]], [[], [3], [1, 2, 3]]], '
                    '"symmetry": true, '
                    '"farkas": {"multipliers": ["2/1", "2/1", "2/1"], "lambda": "-8/1"}}')


class TestCertificateFields:
    def test_fc_file_holds_weights_and_proof_only(self):
        data = certificate_to_dict(is_fc(Family.from_sets(*FC_N5)))
        assert set(data) == {"kind", "n", "family", "domain", "weights", "proof"}

    def test_older_fc_file_with_cuts_verifies(self):
        data = json.loads(OLDER_FC_FILE)
        cert = certificate_from_dict(data)
        assert verify_certificate(cert).passed
        assert certificate_to_dict(cert) == {k: v for k, v in data.items()
                                             if k not in ("cuts", "symmetry")}

    def test_older_nonfc_file_with_symmetry_verifies(self):
        data = json.loads(OLDER_NONFC_FILE)
        cert = certificate_from_dict(data)
        assert verify_certificate(cert).passed
        assert certificate_to_dict(cert) == {k: v for k, v in data.items() if k != "symmetry"}

    @pytest.mark.parametrize("case", [FC_N5, NONFC_N5], ids=["fc", "non-fc"])
    def test_every_field_is_read(self, case):
        data = json.loads(json.dumps(certificate_to_dict(is_fc(Family.from_sets(*case)))))
        changes = FIELD_CHANGES[data["kind"]]
        # a new field fails here until a change of it is shown to be refused
        assert set(changes) == set(data)
        for field, change in changes.items():
            try:
                cert = certificate_from_dict(dict(data, **{field: change(data)}))
            except CertificateError:
                continue
            refused(verify_certificate(cert))


class TestTargetedTampers:
    def test_weights_replaced_by_unit_vector(self):
        cert = is_fc(Family.from_sets(2, [[1, 2]]))
        cert.weights = (Fraction(1), Fraction(0))
        refused(verify_fc(cert))

    def test_weights_not_summing_to_one(self):
        cert = is_fc(Family.from_sets(2, [[1, 2]]))
        cert.weights = (Fraction(1, 2), Fraction(1, 3))
        assert "weights-simplex" in refused(verify_fc(cert))

    def test_fc_without_proof_fails_without_raising(self):
        cert = is_fc(Family.from_sets(2, [[1, 2]]))
        rep = verify_fc(dataclasses.replace(cert, proof=None))
        assert refused(rep) == ("separation-nonpositive: "
                                "the certificate carries no separation proof")

    @pytest.mark.parametrize("weights, kind", [((0.25,) * 4, "float"),
                                               ((True, False, False, False), "bool")],
                             ids=["float", "bool"])
    def test_inexact_weights_refused(self, weights, kind):
        # the four 3-subsets of [4] are FC at weight 1/4 each; as floats
        # those weights reached the proof replay, which raised, and bools
        # are refused although True == 1
        cert = is_fc(Family.from_sets(4, list(combinations(range(1, 5), 3))))
        assert verify_fc(cert).passed
        rep = verify_fc(dataclasses.replace(cert, weights=weights))
        assert refused(rep) == f"weights-simplex: weights must be int or Fraction, not {kind}"

    def test_float_farkas_refused(self):
        # read as the binary rationals they are, these floats aggregate to
        # 5/2^51 > 0 at element 1, which Fraction * float rounds away
        cert = is_fc(Family.from_sets(*NONFC_N5))
        y = [float(v) for v in cert.multipliers]
        y[0] *= 1 + 2 ** -52
        bad = dataclasses.replace(cert, multipliers=tuple(y), lam=float(cert.lam))
        assert refused(verify_nonfc(bad)) == (
            "multipliers-nonnegative: multipliers and lambda must be int or Fraction, not float")
        exact = dataclasses.replace(bad, multipliers=tuple(map(Fraction, y)),
                                    lam=Fraction(bad.lam))
        assert refused(verify_nonfc(exact)).startswith("farkas-aggregation: element 1:")

    def test_not_a_certificate(self):
        with pytest.raises(TypeError, match="not a certificate: object"):
            verify_certificate(object())

    def test_cut_replaced_by_non_union_closed_family(self):
        cert = is_fc(Family.from_sets(3, [[1, 2, 3]]))
        bad = Family.from_sets(3, [[1], [2]])
        cert.cuts[0] = bad
        # restore plausible multiplier count
        refused(verify_nonfc(cert))

    def test_negative_multiplier(self):
        cert = is_fc(Family.from_sets(3, [[1, 2, 3]]))
        y = list(cert.multipliers)
        y[0] = -abs(y[0]) - 1
        cert.multipliers = tuple(y)
        refused(verify_nonfc(cert))

    @pytest.mark.parametrize("change,failure", [
        (lambda c: {"n": 9}, "ground-size: n=9"),
        (lambda c: {"multipliers": c.multipliers[:-1]},
         "multiplier-count: one multiplier per cut required"),
        (lambda c: {"cuts": [Family(6, (0, 0b111111))] + c.cuts[1:]},
         "cuts-wellformed: cut 0: ground size mismatch"),
        (lambda c: {"cuts": [Family.from_masks(7, c.cuts[0].members + (0b1,))] + c.cuts[1:]},
         "cuts-wellformed: cut 0: leaves the domain"),
    ], ids=["ground-size", "multiplier-count", "cut-ground", "cut-outside-domain"])
    def test_nonfc_structure(self, change, failure):
        cert = is_fc(Family.from_sets(7, [[1, 2, 3, 4, 5], [3, 4, 5, 6, 7]]), warm_start=True,
                     domain=no_singletons_family(7))
        assert isinstance(cert, NonFcCertificate) and verify_nonfc(cert).passed
        assert refused(verify_nonfc(dataclasses.replace(cert, **change(cert)))) == failure

    @pytest.mark.parametrize("n", [4.0, "4", True], ids=["float", "str", "bool"])
    def test_ground_size_must_be_an_int(self, n):
        # the loader refuses such an n in a file; in memory the checker
        # fails ground-size on it, and neither kind raises
        certs = [is_fc(Family.from_sets(3, [[1, 2, 3]])),
                 is_fc(Family.from_sets(4, combinations([1, 2, 3, 4], 3)))]
        assert [cert.kind for cert in certs] == ["non-fc", "fc"]
        for cert in certs:
            assert verify_certificate(cert).passed
            bad = dataclasses.replace(cert, n=n)
            assert refused(verify_certificate(bad)) == f"ground-size: n={n!r}"

    @pytest.mark.parametrize("n", [0, 9])
    def test_file_ground_size_out_of_range(self, n):
        data = certificate_to_dict(is_fc(Family.from_sets(2, [[1, 2]])))
        data["n"] = n
        with pytest.raises(CertificateError, match=f"ground size {n} out of range"):
            certificate_from_dict(data)

    def test_file_level_kind_swap(self):
        from fcfam.fcsolve import CertificateError

        data = certificate_to_dict(is_fc(Family.from_sets(2, [[1, 2]])))
        data["kind"] = "non-fc"
        with pytest.raises(CertificateError):
            certificate_from_dict(data)


class TestRandomTampers:
    def test_every_tamper_detected(self):
        rng = random.Random(7001)
        pool = make_pool()
        for _ in range(120):
            cert = rng.choice(pool)
            refused(verify_certificate(tamper(cert, rng)))


@pytest.fixture(scope="module")
def larger_certs():
    """FC and V-FC certificates on 5 and 6 elements, every one with a
    branching root."""
    k4_of_6 = [[1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 4, 6], [1, 3, 5, 6], [2, 4, 5, 6],
               [3, 4, 5, 6], [1, 2, 5, 6]]
    certs = [
        is_fc(Family.from_sets(5, list(combinations(range(1, 6), 4)))),
        is_fc(Family.from_sets(5, [[1, 2, 3], [1, 2, 4], [1, 2, 5]]), symmetry=True),
        # a V-FC decision whose barycenter B_4 rules out
        is_fc(Family.from_sets(6, [[1, 2, 3, 4, 5], [1, 2, 3, 5], [2, 3, 5, 6]]),
              domain=no_singletons_family(6), warm_start=True),
        is_fc(Family.from_sets(6, k4_of_6), symmetry=True, warm_start=True),
    ]
    assert all(c.kind == "fc" and c.proof[0] != LEAF for c in certs)
    return certs


def subtree_end(proof, i, ones, zeros, base):
    """Index just past the subtree that starts at proof[i]."""
    b = proof[i]
    if b == LEAF:
        return i + 1
    grown = ones | {b | x for x in base | ones}
    j = i + 1
    if grown.isdisjoint(zeros):
        j = subtree_end(proof, j, grown, zeros, base)
    return subtree_end(proof, j, ones, zeros | {b}, base)


class TestProofTampers:
    def test_untampered_pass_after_roundtrip(self, larger_certs):
        for cert in larger_certs:
            again = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
            assert again.proof == cert.proof
            assert verify_fc(again).passed

    def test_truncated_proof(self, larger_certs):
        for cert in larger_certs:
            bad = copy.deepcopy(cert)
            bad.proof = bad.proof[:-1]
            assert "ends before" in refused(verify_fc(bad))

    def test_extended_proof(self, larger_certs):
        for cert in larger_certs:
            for extra in (LEAF, 0, (1 << cert.n) - 1):
                bad = copy.deepcopy(cert)
                bad.proof = bad.proof + (extra,)
                assert "left over" in refused(verify_fc(bad))

    def test_branch_set_already_in_zeros(self, larger_certs):
        # the root's right child has the root's branch set fixed to 0;
        # branching on it there again must be refused
        for cert in larger_certs:
            base = frozenset(union_closure(cert.family).members)
            b = cert.proof[0]
            grown = frozenset({b | x for x in base})
            right = subtree_end(cert.proof, 1, grown, frozenset(), base)
            bad = copy.deepcopy(cert)
            bad.proof = cert.proof[:right] + (b,) + cert.proof[right + 1:]
            assert "already fixed" in refused(verify_fc(bad))

    def test_branch_set_outside_domain(self, larger_certs):
        vfc = larger_certs[2]
        assert vfc.domain is not None
        bad = copy.deepcopy(vfc)
        bad.proof = (0b000001,) + vfc.proof[1:]  # a singleton
        assert "outside the domain" in refused(verify_fc(bad))

    def test_proof_of_another_certificate(self, larger_certs):
        for n in (5, 6):
            same_n = [c for c in larger_certs if c.n == n]
            for cert, other in zip(same_n, same_n[1:] + same_n[:1]):
                bad = copy.deepcopy(cert)
                bad.proof = other.proof
                refused(verify_fc(bad))

    def test_weights_moved_so_leaf_bounds_fail(self, larger_certs):
        # the proof alone vouches for the weights; moving them halfway to a
        # vertex of the simplex opens a violated family
        for cert in larger_certs:
            bad = copy.deepcopy(cert)
            assert verify_fc(bad).passed
            bad.weights = tuple(w / 2 + (Fraction(1, 2) if i == 0 else 0)
                                for i, w in enumerate(cert.weights))
            dom = cert.domain or powerset_family(cert.n)
            prob = build_separation(union_closure(cert.family), dom)
            assert solve_separation(prob, bad.weights).optimum > 0
            assert "a leaf bounds" in refused(verify_fc(bad))

    def test_branch_entry_out_of_range(self, larger_certs):
        # an int below LEAF or past the last set of [n] is no set of the
        # domain, at the root and in place of the first LEAF: refused as
        # such, never read as a bit (a negative shift would raise)
        for cert in larger_certs:
            first_leaf = cert.proof.index(LEAF)
            for at in (0, first_leaf):
                for entry in (-2, -5, 1 << cert.n, (1 << cert.n) + 3, 1 << 70, 1.0, True):
                    proof = cert.proof[:at] + (entry,) + cert.proof[at + 1:]
                    failure = refused(verify_fc(dataclasses.replace(cert, proof=proof)))
                    if type(entry) is int:
                        detail = f"branch set {entry} is outside the domain or already fixed"
                    else:
                        detail = f"proof entry {entry!r} is not an int"
                    assert failure == f"separation-nonpositive: {detail}"

    def test_missing_or_malformed_proof_in_file(self, larger_certs):
        # each bad entry takes the place of the first proof entry it equals
        # (True and 1.0 that of the root's branch set 1, -1.0 that of the
        # first LEAF), else of the root's; the loader refuses it in a file,
        # and the checker in memory
        cert = larger_certs[0]
        assert cert.proof[0] == 1
        data = certificate_to_dict(cert)
        for entry in (-2, 1 << 5, True, "3", 1.0, -1.0):
            at = next((i for i, x in enumerate(cert.proof) if x == entry), 0)
            proof = cert.proof[:at] + (entry,) + cert.proof[at + 1:]
            with pytest.raises(CertificateError):
                certificate_from_dict(dict(data, proof=list(proof)))
            failure = refused(verify_fc(dataclasses.replace(cert, proof=proof)))
            assert failure.startswith("separation-nonpositive"), entry
            if type(entry) is not int:
                assert f"proof entry {entry!r} is not an int" in failure
        for proof in ([LEAF, -2], 7):
            with pytest.raises(CertificateError):
                certificate_from_dict(dict(data, proof=proof))
        del data["proof"]
        with pytest.raises(CertificateError, match="no separation proof"):
            certificate_from_dict(data)


class TestProofReplay:
    def test_sound_against_brute_oracle(self):
        # producer proofs replayed under other weights: wherever the oracle
        # finds a positive family, the replay must refuse the proof
        rng = random.Random(7301)
        accepted = rejected = proofs = 0
        while proofs < 60:
            n = rng.randint(2, 4)
            base, w, dom = random_instance(rng, n)
            sep = solve_separation(build_separation(base, dom), w)
            if sep.optimum > 0:
                assert sep.proof is None
                continue
            proofs += 1
            assert check_separation_proof(base, dom, w, sep.proof) is None
            other = random_weights(rng, n)
            for t in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
                moved = [(1 - t) * a + t * b for a, b in zip(w, other)]
                failure = check_separation_proof(base, dom, moved, sep.proof)
                if brute_separation(base, moved, dom).optimum > 0:
                    assert failure is not None
                if failure is None:
                    accepted += 1
                else:
                    rejected += 1
        assert accepted > 20 and rejected > 20

    @pytest.mark.parametrize("corrupt, failure", [
        (lambda flow, cands, into_ones: {arc: 2 * f for arc, f in flow.items()}, "capacity"),
        # a candidate sending into itself, a positive set
        (lambda flow, cands, into_ones: {**flow, **{(s, s): 1 for s in cands}}, "forcing arc"),
        # a candidate sending into a set it forces that is fixed to 1
        (lambda flow, cands, into_ones: {**flow, **dict.fromkeys(into_ones, 1)}, "forcing arc"),
    ], ids=["doubled", "into-positive", "into-ones"])
    def test_flow_is_checked_not_trusted(self, monkeypatch, larger_certs, corrupt, failure):
        # a flow code that reports more flow than the graph carries must not
        # make a leaf pass
        real = fcfam.verify._max_flow
        for cert in larger_certs:
            base = union_closure(cert.family)
            leaves = ((ones, zeros) for ones, zeros, entry in proof_nodes(base, cert.proof)
                      if entry == LEAF)
            calls = []

            def bad_flow(cands, W, need):
                value, flow, reached = real(cands, W, need)
                calls.append(cands)
                # this flow's leaf is the next one in preorder with these arcs
                for ones, zeros in leaves:
                    forced = {s: {s | x for x in set(base.members) | ones}
                              for s in range(len(W)) if W[s] > 0 and s not in ones | zeros}
                    arcs = {s: {t for t in f if W[t] < 0 and t not in ones}
                            for s, f in forced.items() if f.isdisjoint(zeros)}
                    if arcs == {s: set(t) for s, t in cands.items()}:
                        break
                else:
                    raise AssertionError("no leaf of the proof has these arcs")
                into_ones = {(s, t) for s in cands for t in forced[s] & ones}
                return value, corrupt(flow, cands, into_ones), reached

            monkeypatch.setattr(fcfam.verify, "_max_flow", bad_flow)
            rep = verify_fc(cert)
            monkeypatch.undo()
            # every proof has a leaf the flow must settle
            assert calls
            assert failure in refused(rep)

    def test_one_max_flow_per_leaf(self, monkeypatch, larger_certs):
        # the checker asks for one flow at each leaf, with the leaf's bound
        # as `need`, in preorder
        max_flow = fcfam.verify._max_flow
        checked = 0
        for cert in larger_certs:
            base = union_closure(cert.family)
            dom = cert.domain if cert.domain is not None else powerset_family(cert.n)
            _, W = fcfam.sepip._integer_weights(cert.weights, dom)
            want = []
            for ones, zeros, entry in proof_nodes(base, cert.proof):
                if entry == LEAF:
                    cands = separation_candidates(base, dom, W, ones, zeros)
                    bound = sum(W[s] for s in ones) + sum(W[s] for s in cands)
                    want.append(({s: set(t) for s, t in cands.items()}, bound))
            calls = []
            monkeypatch.setattr(fcfam.verify, "_max_flow", lambda cands, W, need: (
                calls.append(({s: set(t) for s, t in cands.items()}, need))
                or max_flow(cands, W, need)))
            assert verify_fc(cert).passed
            monkeypatch.undo()
            assert calls == want
            checked += len(want)
        assert checked > 100

    def test_verify_never_searches(self, monkeypatch, larger_certs):
        def refuse(*args, **kwargs):
            raise AssertionError("verify_fc must not search")

        monkeypatch.setattr(fcfam.verify, "solve_separation", refuse)
        monkeypatch.setattr(fcfam.verify, "brute_separation", refuse)
        for cert in make_pool() + larger_certs:
            if cert.kind == "fc":
                assert verify_fc(cert).passed


@pytest.fixture(scope="module")
def pool_certs():
    """The 216 certificates that tools/certdigest.py hashes: every full
    family of bench/pool.json, decided without and then with symmetry."""
    path = Path(__file__).resolve().parent.parent / "bench" / "pool.json"
    certs = []
    for workload in json.loads(path.read_text(encoding="utf-8")).values():
        full = workload["full"]
        for stratum in full["strata"]:
            for masks in stratum["families"]:
                fam = Family.from_masks(full["n"], masks)
                certs += [is_fc(fam, symmetry=symmetry) for symmetry in (False, True)]
    assert len(certs) == 216
    return certs


def proof_tampers(cert, rng):
    """Five changed proofs of an FC certificate, by name: an entry dropped,
    an entry added, a LEAF replaced by a domain set, a branch set replaced
    by a set already fixed at its node, and a branching node's subtree cut
    to a LEAF, whose bound is then positive."""
    proof, closure = cert.proof, union_closure(cert.family)
    dom = cert.domain or powerset_family(cert.n)
    base = frozenset(closure.members)
    at = rng.randrange(len(proof))
    yield "dropped", proof[:at] + proof[at + 1:]
    at = rng.randrange(len(proof) + 1)
    extra = rng.choice([LEAF, *dom.members])
    yield "extra", proof[:at] + (extra,) + proof[at:]
    at = rng.choice([i for i, x in enumerate(proof) if x == LEAF])
    yield "leaf-to-branch", proof[:at] + (rng.choice(dom.members),) + proof[at + 1:]
    nodes = list(proof_nodes(closure, proof))
    fixed = [(i, sorted(ones | zeros)) for i, (ones, zeros, entry) in enumerate(nodes)
             if entry != LEAF and ones | zeros]
    if fixed:
        at, sets = rng.choice(fixed)
        yield "branch-fixed", proof[:at] + (rng.choice(sets),) + proof[at + 1:]
    branching = [i for i, (_, _, entry) in enumerate(nodes) if entry != LEAF]
    if branching:
        at = rng.choice(branching)
        ones, zeros, _ = nodes[at]
        yield "positive-leaf", proof[:at] + (LEAF,) + proof[subtree_end(proof, at, ones,
                                                                           zeros, base):]


def both_replays(cert, proof):
    """The bitset replay's result on `proof`, once the frozenset replay is
    shown to return the same."""
    args = (union_closure(cert.family), cert.domain or powerset_family(cert.n), cert.weights,
            proof)
    result = check_separation_proof(*args)
    assert result == set_check_separation_proof(*args)
    return result


@pytest.fixture(scope="module")
def golden_and_pool_fc(pool_certs):
    """The FC certificates of the golden cases, then those of the pool."""
    golden = [decide(name)[0] for name in sorted(CASES)]
    golden = [cert for cert in golden if cert.kind == "fc"]
    pool = [cert for cert in pool_certs if cert.kind == "fc"]
    assert (len(golden), len(pool)) == (6, 176)
    return golden, pool


class TestSetReplayReference:
    def test_golden_and_pool_certificates(self, golden_and_pool_fc):
        golden, pool = golden_and_pool_fc
        for cert in golden + pool:
            assert both_replays(cert, cert.proof) is None

    def test_tampered_proofs(self, larger_certs, golden_and_pool_fc):
        # every golden FC certificate, the larger ones above and a seeded
        # sample of the pool's, each with every tamper of `proof_tampers`
        rng = random.Random(4811)
        golden, pool = golden_and_pool_fc
        certs = golden + larger_certs + rng.sample(pool, 24)
        seen = {}
        for cert in certs:
            for kind, proof in proof_tampers(cert, rng):
                failure = both_replays(cert, proof)
                assert failure is not None, kind
                if kind == "branch-fixed":
                    assert failure.endswith("already fixed")
                if kind == "positive-leaf":
                    assert failure.startswith("a leaf bounds the value only by")
                seen[kind] = seen.get(kind, 0) + 1
        assert seen.keys() == {"dropped", "extra", "leaf-to-branch", "branch-fixed",
                               "positive-leaf"}
        assert min(seen.values()) > 20
