"""Pinned certificates of a few fast decisions.

Each case pins the sha256 of json.dumps(certificate_to_dict(cert),
sort_keys=True).  A change to the producer's search order, its candidate
rule, its cut selection or the LP then shows up here, not only in a
comparison against an older checkout.  A change that is meant to alter
certificates must say so and regenerate the digests:

    PYTHONPATH=src python tests/test_golden_certificates.py

prints the current digest of every case.
"""

import hashlib
import json

import pytest

from fcfam.fcsolve import certificate_to_dict, is_fc
from fcfam.setfam import Family, no_singletons_family
from fcfam.verify import verify_certificate

K4_N6 = [[1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 4, 6], [1, 3, 5, 6], [2, 4, 5, 6],
         [3, 4, 5, 6], [1, 2, 5, 6]]

# name: (n, member sets, is_fc options, kind, sha256)
CASES = {
    "fc-n6": (6, K4_N6, {}, "fc",
              "e06c69317413f30f2396a7e117c78a2bfa1a076dc45ae13236269dad5a2325ab"),
    "fc-n6-symmetry": (6, K4_N6, {"symmetry": True, "warm_start": True}, "fc",
                       "f51df6b6f7310df6dfb5c4c003f0869bcce79350ace59271786cb24b54d35d0e"),
    "fc-n5-symmetry": (5, [[1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 4, 5]], {"symmetry": True}, "fc",
                       "27913011e1bb9e75c82fbb6ed8022a341c4ef2d793c316467d10c7a1d7236d40"),
    "nonfc-n5": (5, [[1, 2, 3], [3, 4, 5]], {}, "non-fc",
                 "7f3a855d629f72d3ce9d022351cfda0070eb59177ae88267650bb720cb038ddc"),
    "nonfc-n6-symmetry": (6, [[1, 2, 3, 4], [1, 2, 5, 6], [3, 4, 5, 6]], {"symmetry": True},
                          "non-fc",
                          "3c871f071a38cfbcd467bc15855580a3ff9b379259f2cf662398994718d7ab37"),
    "vfc-n6": (6, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6], [1, 2, 3, 5, 6]], {"domain": "no-singletons"},
               "fc", "7d7f174358d3900010a93db2022649ffd359d510521401f21800679e7db45534"),
    "nonvfc-n6-symmetry": (6, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6]],
                           {"domain": "no-singletons", "symmetry": True}, "non-fc",
                           "53f0c26960cab128fa423d790234952815b431ff82e4aa28aef977ecad2f3a3b"),
}


def decide(name):
    n, sets, options, _, _ = CASES[name]
    options = dict(options)
    if options.get("domain") == "no-singletons":
        options["domain"] = no_singletons_family(n)
    cert = is_fc(Family.from_sets(n, sets), **options)
    text = json.dumps(certificate_to_dict(cert), sort_keys=True)
    return cert, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_is_pinned(name):
    cert, digest = decide(name)
    assert cert.kind == CASES[name][3]
    assert verify_certificate(cert).passed
    assert digest == CASES[name][4]


if __name__ == "__main__":
    for name in CASES:
        print(name, decide(name)[1])
