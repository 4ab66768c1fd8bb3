"""Pinned certificates of a few fast decisions.

Each case pins the sha256 of json.dumps(certificate_to_dict(cert),
sort_keys=True).  A change to the producer's search order, its candidate
rule, its cut selection or the LP then shows up here, not only in a
comparison against an older checkout.  A change that is meant to alter
certificates must say so and regenerate the digests:

    PYTHONPATH=src python tests/test_golden_certificates.py

prints the current digest of every case and of the stream below.

Two more cases pin whole streams.  One is every certificate that
`fc_value(5, 7, 11)` decides, in order, all of them Non-FC, so each one ends
in a Farkas certificate of the exact LP.  The other is the FC certificates
that `fcv_value(5, 7)` decides over the no-singletons domain, in order, so
each one ends in a separation proof (about 4,800 entries in all).
"""

import hashlib
import json

import pytest

from fcfam import enumfam
from fcfam.fcsolve import certificate_to_dict, is_fc
from fcfam.setfam import Family, no_singletons_family
from fcfam.verify import verify_certificate

K4_N6 = [[1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 4, 6], [1, 3, 5, 6], [2, 4, 5, 6],
         [3, 4, 5, 6], [1, 2, 5, 6]]
K4_N6_RULED_OUT = [[1, 2, 4, 5], [1, 2, 3, 6], [1, 2, 4, 6], [2, 3, 4, 6], [1, 2, 5, 6],
                   [2, 3, 5, 6], [3, 4, 5, 6]]

# name: (n, member sets, is_fc options, kind, sha256)
CASES = {
    "fc-n6": (6, K4_N6, {"warm_start": False}, "fc",
              "06743c1fa34722de98195b4406b3c13208c256e864fbe3004f9c7fe3696538b7"),
    # warm with symmetry on a family whose barycenter B_1 and B_3 rule out:
    # one violated separation at the LP point, then a proof
    "fc-n6-symmetry": (6, K4_N6_RULED_OUT, {"symmetry": True, "warm_start": True}, "fc",
                       "d13ba6bbebf5ecfeab5023598a5849fb537a531ee201df3edf4b3372a96d5d89"),
    # warm on a family whose barycenter no B_i or B_ij rules out: the first
    # feasible round separates at the barycenter and proves FC there
    "fc-n6-barycenter": (6, K4_N6, {"symmetry": True, "warm_start": True}, "fc",
                         "40b2d5de626da5fcc47388f874cbb3888bb71ff979d6eb952d7b865a95714970"),
    "fc-n5-symmetry": (5, [[1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 4, 5]],
                       {"symmetry": True, "warm_start": False}, "fc",
                       "60a8f91457db42dccfbfcfce5e782af0cc80804597610836cf7580215c151c16"),
    "nonfc-n5": (5, [[1, 2, 3], [3, 4, 5]], {"warm_start": False}, "non-fc",
                 "ea7ac4efaf163246d477d53afae8ed1648b843cb8f42fe271eed6943dec827ef"),
    "nonfc-n6-symmetry": (6, [[1, 2, 3, 4], [1, 2, 5, 6], [3, 4, 5, 6]],
                          {"symmetry": True, "warm_start": False}, "non-fc",
                          "f70766573b9148267dff1b1459ec3062ab8ef8dfd40da9e198a1ce70b18dce83"),
    "vfc-n6": (6, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6], [1, 2, 3, 5, 6]],
               {"domain": "no-singletons", "warm_start": False}, "fc",
               "2b20fed5073208dc2d6f9df0ef85e33964588e8ff21ba9eb85d256aedc1a4d86"),
    "nonvfc-n6-symmetry": (6, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6]],
                           {"domain": "no-singletons", "symmetry": True, "warm_start": False},
                           "non-fc",
                           "58984dc3224ba2c2499230bb406b77092b7acfd4801069542cf202a804736b18"),
    # warm over a caller's domain, where pool cuts enter: the FC decision, on
    # a family whose barycenter is ruled out, adds three before its
    # separations, the Non-FC one adds one, whose images the certificate lists
    "vfc-n6-warm": (6, [[1, 2, 3, 4, 5], [1, 2, 3, 5], [2, 3, 5, 6]],
                    {"domain": "no-singletons", "warm_start": True}, "fc",
                    "a28b323b54d1299d5bde472d154515df9c7c7869c9cf82f17ab77b9f74287a8c"),
    "nonvfc-n6-symmetry-warm": (6, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6]],
                                {"domain": "no-singletons", "symmetry": True, "warm_start": True},
                                "non-fc",
                                "48caa4ea120586d2850a9c88022a6c709d0837b16cdc145b26b50d55b565bc0d"),
}

# (decisions, kinds, sha256 over the certificates of fc_value(5, 7, 11))
FC57_STREAM = (669, {"non-fc"},
               "d021ffaeae156d5d04c1340e811d141a2204ae1d78cc9d982dbac010ed6a7203")
# (decisions, kinds, sha256 over the FC certificates of fcv_value(5, 7))
VFC57_PROOFS = (7, {"fc"},
                "1ceeb6fd8e6ee2a8f5a6d03e44ac40ddd5b5466e7efee1245673f719bd81a176")


def digest_of(certs):
    digest = hashlib.sha256()
    for cert in certs:
        digest.update(json.dumps(certificate_to_dict(cert), sort_keys=True).encode())
    return digest.hexdigest()


def decide(name):
    n, sets, options, _, _ = CASES[name]
    options = dict(options)
    if options.get("domain") == "no-singletons":
        options["domain"] = no_singletons_family(n)
    cert = is_fc(Family.from_sets(n, sets), **options)
    return cert, digest_of([cert])


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_is_pinned(name):
    cert, digest = decide(name)
    assert cert.kind == CASES[name][3]
    assert verify_certificate(cert).passed
    assert digest == CASES[name][4]


def recorded_stream(run, keep=lambda cert: True):
    """The certificates that `run()` decides and `keep` accepts, in order,
    recorded by wrapping `enumfam.is_fc`: their count, their kinds and their
    digest."""
    certs = []
    decide_one = enumfam.is_fc

    def recorded(*args, **kwargs):
        certs.append(decide_one(*args, **kwargs))
        return certs[-1]

    enumfam.is_fc = recorded
    try:
        run()
    finally:
        enumfam.is_fc = decide_one
    certs = [cert for cert in certs if keep(cert)]
    return len(certs), {cert.kind for cert in certs}, digest_of(certs)


def fc57_stream():
    """Every certificate that fc_value(5, 7, 11) decides."""
    return recorded_stream(lambda: enumfam.fc_value(5, 7, 11))


def vfc57_proofs():
    """The FC certificates that fcv_value(5, 7) decides."""
    return recorded_stream(lambda: enumfam.fcv_value(5, 7), lambda cert: cert.kind == "fc")


def test_fc57_certificate_stream_is_pinned():
    assert fc57_stream() == FC57_STREAM


def test_vfc57_proofs_are_pinned():
    assert vfc57_proofs() == VFC57_PROOFS


if __name__ == "__main__":
    for name in CASES:
        print(name, decide(name)[1])
    print("fc57-stream", *fc57_stream())
    print("vfc57-proofs", *vfc57_proofs())
