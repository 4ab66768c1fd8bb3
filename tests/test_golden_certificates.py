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
              "84eef04851d30d856e867298aa098a5d1337379d2b4d8d2fc76b0dfcd5c44d3a"),
    "fc-n6-symmetry": (6, K4_N6, {"symmetry": True, "warm_start": True}, "fc",
                       "3441bc74fa9492f93032c1ba9579c9902fce1a6126a79ee4d3269ca45cec0e40"),
    "fc-n5-symmetry": (5, [[1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 4, 5]], {"symmetry": True}, "fc",
                       "7176824db2052a08476ef026f13e8b3c5ae0fb760b78e79f53efb28d7a3d3c18"),
    "nonfc-n5": (5, [[1, 2, 3], [3, 4, 5]], {}, "non-fc",
                 "ea7ac4efaf163246d477d53afae8ed1648b843cb8f42fe271eed6943dec827ef"),
    "nonfc-n6-symmetry": (6, [[1, 2, 3, 4], [1, 2, 5, 6], [3, 4, 5, 6]], {"symmetry": True},
                          "non-fc",
                          "f70766573b9148267dff1b1459ec3062ab8ef8dfd40da9e198a1ce70b18dce83"),
    "vfc-n6": (6, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6], [1, 2, 3, 5, 6]], {"domain": "no-singletons"},
               "fc", "12530b014cdfb590d3e766989d3ad14e5457f94d873cfde870ed15d3b07ca818"),
    "nonvfc-n6-symmetry": (6, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6]],
                           {"domain": "no-singletons", "symmetry": True}, "non-fc",
                           "b448e02ad6f50f26306c05efea12c09f753147010ee4a9e639601e8421456be5"),
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
