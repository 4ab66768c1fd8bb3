"""FC(5,7) = 14 and FC(6,8) = 26 end to end, with the Non-FC class count of
every (universe size u, m) cell up to the value and the number of
canonical labelings, the size of an n = 8 FC proof, and the LP solve count
of the slowest decision of FC_V(5,7) over the subsets of [7] without sizes
1 and 2, and the separation work over the benchmark's decide-n7 pool.

At jobs=1 the runs took 7 s and 30 s on a 2-core Intel Xeon virtual
machine with Python 3.11.7 (2026-10-20), and the n = 8 decision with its
verification 4 s warm and 18 s cold, and the decide-n7 pool with its
verification 5 s, so these are marked `slow` and
deselected by default.  The LP-heaviest decision with its verification
takes 0.3 s and runs with the default tests.  Run the slow ones with

    PYTHONPATH=src python -m pytest -m slow tests/test_pinned_values.py
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

import fcfam.enumfam
import fcfam.fcsolve
from fcfam.enumfam import fc_value
from fcfam.fcsolve import certificate_to_dict, is_fc
from fcfam.setfam import Family, lex_prefix
from fcfam.verify import verify_certificate

# u: Non-FC class counts for m = 1..value-1, then 0 at m = value
FC57_ROWS = {
    5: [1] + [0] * 13,
    6: [0, 1, 1, 1, 1, 1] + [0] * 8,
    7: [0, 1, 4, 9, 20, 40, 65, 97, 131, 148, 148, 130, 2, 0],
}
FC68_ROWS = {
    6: [1] + [0] * 25,
    7: [0, 1, 1, 1, 1, 1, 1] + [0] * 19,
    8: [0, 1, 4, 10, 23, 55, 114, 221, 402, 663, 980, 1312, 1557, 1646, 1557, 1312, 980,
        663, 402, 221, 115, 56, 24, 11, 5, 0],
}


@pytest.mark.slow
@pytest.mark.parametrize(
    "k,n,value,rows,labelings",
    [(5, 7, 14, FC57_ROWS, 2_903), (6, 8, 26, FC68_ROWS, 25_237)],
    ids=["fc57", "fc68"],
)
def test_pinned_fc_value(monkeypatch, k, n, value, rows, labelings):
    # with neither the twin test nor the member-invariant filter, this path
    # labels 10,481 and 172,805 times, and with the invariant filter alone
    # 3,348 and 28,545; the two skip the rest.  FC(5,7) labeled 3,627 times
    # while the filter was off in cells whose previous level knows an FC
    # class, and FC(6,8) as often as now
    count = [0]
    real = fcfam.enumfam.canonical_form

    def counting(family):
        count[0] += 1
        return real(family)

    monkeypatch.setattr(fcfam.enumfam, "canonical_form", counting)
    rep = fc_value(k, n)
    assert (rep.status, rep.value) == ("found", value)
    assert count[0] == labelings
    assert rep.counts == {(u, m): c for u, row in rows.items() for m, c in enumerate(row, 1)}
    assert len(rep.witness.members) == value - 1
    assert verify_certificate(rep.witness_certificate).passed


# sha256 of json.dumps(certificate_to_dict(cert), sort_keys=True) for the
# n = 8 decision, warm and cold
N8_SHA256 = {
    True: "3e56e90d32814fd76a6e5623fd58843b101642dab2160d5ffdde474985307107",
    False: "1abb1e8119b12dac010c7f8e1d11ea583ac695700fafcd71099734a10cf07445",
}


@pytest.mark.slow
@pytest.mark.parametrize("warm_start", [True, False], ids=["warm", "cold"])
def test_n8_proof_stays_small(warm_start):
    # the first 12 4-subsets of [8]: a proof of 4,981 entries warm and 3,965
    # cold, against 6,703 and 7,757 when the first dive branched on its
    # first escape, and 31,691 and 59,937 when every node did.  The digest
    # moves only with a change to the search or the certificate
    cert = is_fc(lex_prefix(8, 4, 12), warm_start=warm_start)
    assert cert.kind == "fc"
    assert verify_certificate(cert).passed
    assert len(cert.proof) <= 6_000
    digest = hashlib.sha256(json.dumps(certificate_to_dict(cert), sort_keys=True).encode())
    assert digest.hexdigest() == N8_SHA256[warm_start]


@pytest.mark.slow
def test_decide_n7_pool_work(monkeypatch):
    # the 60 families of the benchmark's decide-n7 pool, decided as its
    # workload decides them: 38 are settled by one proof at the barycenter.
    # Separating only at LP points took 300 separations, 240 of them
    # violated, and 23,282 proof entries
    pool = json.loads((Path(__file__).parent.parent / "bench" / "pool.json").read_text())
    p = pool["decide-n7"]["full"]
    seps = []
    real = fcfam.fcsolve.solve_separation

    def counting(*args, **kwargs):
        seps.append(real(*args, **kwargs))
        return seps[-1]

    monkeypatch.setattr(fcfam.fcsolve, "solve_separation", counting)
    certs = [is_fc(Family.from_masks(p["n"], masks), symmetry=True)
             for stratum in p["strata"] for masks in stratum["families"]]
    assert len(certs) == 60
    assert len(seps) == 151 and sum(sep.optimum > 0 for sep in seps) == 91
    assert sum(len(sep.proof or ()) for sep in seps) == 18_216
    assert sum(c.kind == "fc" and set(c.weights) == {Fraction(1, 7)} for c in certs) == 38
    assert all(verify_certificate(c).passed for c in certs)


def test_lp_heaviest_decision(monkeypatch):
    # {12345, 12367} over the subsets of [7] without sizes 1 and 2, the
    # slowest decision of fcv_value(5, 7) over that domain: 22 LP solves of
    # one equality row and up to 28 >=-rows
    count = [0]
    real = fcfam.fcsolve.lp_solve

    def counting(lp):
        count[0] += 1
        return real(lp)

    monkeypatch.setattr(fcfam.fcsolve, "lp_solve", counting)
    domain = Family(7, tuple(s for s in range(1 << 7) if s.bit_count() not in (1, 2)))
    cert = is_fc(Family.from_sets(7, [[1, 2, 3, 4, 5], [1, 2, 3, 6, 7]]), domain=domain)
    assert cert.kind == "fc"
    assert verify_certificate(cert).passed
    assert count[0] <= 30
