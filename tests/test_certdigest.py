"""`tools/certdigest.py` hashes the certificates of every full
`bench/pool.json` family, decided without and with symmetry."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "certdigest.py"
_SPEC = importlib.util.spec_from_file_location("certdigest", _PATH)
certdigest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(certdigest)

# the digest a change that keeps every verdict and certificate prints
POOL_SHA256 = "0cab2f3dee3dbfb5ab21da0485704fdef8bd122fa741ddf5ac6e7b6812981416"


def test_pool_certificates_are_pinned():
    assert certdigest.digest() == (216, POOL_SHA256)
