import math
import random
from fractions import Fraction

import pytest

import fcfam.canon
import fcfam.fcsolve
from fcfam.setfam import (
    Family,
    lex_ksets,
    no_singletons_family,
    powerset_family,
    union_closure,
)
from fcfam.canon import OrbitPartition, orbits
from fcfam.ratlp import Feasible, LinearProgram, lp_solve
from fcfam.sepip import brute_separation
from fcfam.fcsolve import (
    Cut,
    FcCertificate,
    NonFcCertificate,
    certificate_from_dict,
    certificate_to_dict,
    fc3_value,
    is_fc,
    lift_point,
    symmetry_reduce,
    upper_bound,
)
from fcfam.verify import verify_certificate

from oracles import brute_poonen_fc, random_family


class TestKnownDecisions:
    def test_two_set_is_fc(self):
        cert = is_fc(Family.from_sets(2, [[1, 2]]))
        assert isinstance(cert, FcCertificate)
        # the weights themselves are checked against the exhaustive oracle
        base = union_closure(Family.from_sets(2, [[1, 2]]))
        assert brute_separation(base, cert.weights, powerset_family(2)).optimum <= 0

    def test_three_set_is_non_fc(self):
        cert = is_fc(Family.from_sets(3, [[1, 2, 3]]))
        assert isinstance(cert, NonFcCertificate)

    def test_five_set_generators_no_singleton_v6(self):
        v = no_singletons_family(6)
        fc = is_fc(
            Family.from_sets(6, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6], [1, 2, 3, 5, 6]]),
            domain=v,
        )
        assert isinstance(fc, FcCertificate)
        nonfc = is_fc(Family.from_sets(6, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6]]), domain=v)
        assert isinstance(nonfc, NonFcCertificate)

    def test_universe_must_be_full(self):
        with pytest.raises(ValueError, match="compact"):
            is_fc(Family.from_sets(3, [[1, 2]]))

    def test_ground_cap(self):
        with pytest.raises(ValueError, match="cap"):
            is_fc(Family.from_sets(9, [list(range(1, 10))]))

    def test_invalid_domain(self):
        with pytest.raises(ValueError, match="union"):
            is_fc(
                Family.from_sets(2, [[1, 2]]),
                domain=Family.from_masks(2, (0, 1)),
            )

    def test_deadline_raises(self):
        import time

        with pytest.raises(TimeoutError):
            is_fc(Family.from_sets(4, [[1, 2, 3], [2, 3, 4]]), deadline=time.monotonic() - 1)


class TestClosedForms:
    def test_fc3_values(self):
        assert [fc3_value(n) for n in (4, 7, 10)] == [3, 4, 6]
        with pytest.raises(ValueError):
            fc3_value(3)

    def test_upper_bound_known_values(self):
        assert upper_bound(4, 9, 8, 12) == 21
        assert upper_bound(5, 8, 7, 14) == 36
        assert upper_bound(6, 9, 8, 26) == 76

    def test_upper_bound_stays_below_binomial(self):
        rng = random.Random(3)
        for _ in range(100):
            k = rng.randint(3, 6)
            n0 = rng.randint(k, k + 4)
            n = rng.randint(n0 + 1, n0 + 5)
            m0 = rng.randint(1, math.comb(n0, k))
            assert upper_bound(k, n, n0, m0) <= math.comb(n, k)

    def test_upper_bound_preconditions(self):
        with pytest.raises(ValueError):
            upper_bound(3, 5, 5, 2)
        with pytest.raises(ValueError):
            upper_bound(4, 9, 8, math.comb(8, 4) + 1)


class TestSymmetryReduce:
    def test_transitive_single_variable(self):
        lp = LinearProgram(4)
        lp.add_eq([1] * 4, 1)
        red = symmetry_reduce(lp, OrbitPartition((0, 0, 0, 0)))
        assert red.num_vars == 1
        res = lp_solve(red)
        assert isinstance(res, Feasible)
        lifted = lift_point(res.point, OrbitPartition((0, 0, 0, 0)))
        assert lifted == (Fraction(1, 4),) * 4

    def test_trivial_group_keeps_dimensions(self):
        lp = LinearProgram(3)
        lp.add_eq([1, 2, 3], 1)
        red = symmetry_reduce(lp, OrbitPartition((0, 1, 2)))
        assert red.num_vars == 3
        assert red.eq_rows == lp.eq_rows

    def test_two_orbit_lift(self):
        lp = LinearProgram(6)
        lp.add_eq([1] * 6, 1)
        lp.add_ge([1, 1, 1, 0, 0, 0], Fraction(1, 2))
        part = OrbitPartition((0, 0, 0, 1, 1, 1))
        red = symmetry_reduce(lp, part)
        assert red.num_vars == 2
        assert red.ge_rows[0][0] == (Fraction(3), Fraction(0))
        res = lp_solve(red)
        lifted = lift_point(res.point, part)
        assert lifted[0] == lifted[1] == lifted[2]
        assert lifted[3] == lifted[4] == lifted[5]

    def test_decisions_never_list_the_group(self, monkeypatch):
        def refuse(family):
            raise AssertionError("a decision listed the automorphism group")

        monkeypatch.setattr(fcfam.fcsolve, "automorphism_group", refuse)
        monkeypatch.setattr(fcfam.canon, "automorphism_group", refuse)
        fams = [
            Family.from_masks(6, lex_ksets(6, 3)),  # all 3-subsets of [6]: |G| = 720
            Family.from_sets(4, [[1, 2], [3, 4]]),
            Family.from_sets(5, [[1, 2, 3], [3, 4, 5]]),  # Non-FC
            Family.from_sets(6, [[1, 2, 3], [3, 4, 5], [1, 5, 6]]),
        ]
        for fam in fams:
            assert is_fc(fam, symmetry=True).kind == is_fc(fam).kind


class TestLoopProperties:
    def test_symmetry_and_warm_start_do_not_change_verdicts(self):
        rng = random.Random(8)
        fams = []
        while len(fams) < 12:
            fam = random_family(rng, max_n=4, max_members=4)
            full = (1 << fam.n) - 1
            fam = Family.from_masks(fam.n, fam.members + (full,))
            fams.append(fam)
        for fam in fams:
            kinds = {
                is_fc(fam, symmetry=s, warm_start=w).kind
                for s in (False, True)
                for w in (False, True)
            }
            assert len(kinds) == 1, fam

    def test_verdict_matches_definitional_oracle(self):
        rng = random.Random(13)
        for _ in range(25):
            fam = random_family(rng, max_n=4, max_members=5)
            full = (1 << fam.n) - 1
            fam = Family.from_masks(fam.n, fam.members + (full,))
            cert = is_fc(fam)
            assert (cert.kind == "fc") == brute_poonen_fc(fam), fam

    def test_fc_inherited_by_supersets(self):
        rng = random.Random(21)
        found = 0
        while found < 6:
            fam = random_family(rng, max_n=4, max_members=4)
            full = (1 << fam.n) - 1
            fam = Family.from_masks(fam.n, fam.members + (full,))
            if is_fc(fam).kind != "fc":
                continue
            found += 1
            extra = rng.randrange(1 << fam.n)
            bigger = Family.from_masks(fam.n, fam.members + (extra,))
            assert is_fc(bigger).kind == "fc"

    def test_certificates_always_verify(self):
        rng = random.Random(34)
        for _ in range(20):
            fam = random_family(rng, max_n=5, max_members=4)
            full = (1 << fam.n) - 1
            fam = Family.from_masks(fam.n, fam.members + (full,))
            cert = is_fc(fam, symmetry=bool(rng.random() < 0.5), warm_start=bool(rng.random() < 0.5))
            assert verify_certificate(cert).passed


class TestCertificateFormat:
    def _roundtrip(self, cert):
        data = certificate_to_dict(cert)
        again = certificate_from_dict(data)
        assert certificate_to_dict(again) == data
        return data

    def test_fc_schema(self):
        cert = is_fc(Family.from_sets(2, [[1, 2]]))
        data = self._roundtrip(cert)
        assert data["kind"] == "fc"
        assert data["domain"] == "full"
        assert all("/" in w for w in data["weights"])
        assert "farkas" not in data

    def test_nonfc_schema(self):
        cert = is_fc(Family.from_sets(3, [[1, 2, 3]]))
        data = self._roundtrip(cert)
        assert data["kind"] == "non-fc"
        assert len(data["farkas"]["multipliers"]) == len(data["cuts"])
        assert "weights" not in data
        # cuts sorted by family normal form
        keys = [sorted(tuple(sorted(m)) for m in fam) for fam in data["cuts"]]
        masks = [
            sorted(sum(1 << (e - 1) for e in member) for member in fam)
            for fam in data["cuts"]
        ]
        assert masks == sorted(masks)

    def test_domain_serialized(self):
        v = no_singletons_family(3)
        cert = is_fc(Family.from_sets(3, [[1, 2, 3]]), domain=v)
        data = self._roundtrip(cert)
        assert data["domain"] != "full"
        assert sorted(map(len, data["domain"])) == [0, 2, 2, 2, 3]

    def test_malformed_rejected(self):
        from fcfam.fcsolve import CertificateError

        cert = is_fc(Family.from_sets(2, [[1, 2]]))
        data = certificate_to_dict(cert)
        del data["weights"]
        with pytest.raises(CertificateError):
            certificate_from_dict(data)
        data2 = certificate_to_dict(cert)
        data2["kind"] = "bogus"
        with pytest.raises(CertificateError):
            certificate_from_dict(data2)


class TestCut:
    def test_cache_consistency(self):
        fam = Family.from_sets(3, [[1], [1, 2]])
        cut = Cut.from_family(fam)
        assert cut.cache_consistent()
        stale = Cut(Family.from_sets(3, [[1], [1, 3]]), cut.size, cut.freq)
        assert not stale.cache_consistent()
