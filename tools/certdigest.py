"""Print one sha256 over the certificates of the benchmark's family pool.

Every full-scale family of `bench/pool.json`, in file order, is decided
with `is_fc(family, symmetry=False)` and then with `symmetry=True`; the
JSON of each certificate, `json.dumps(certificate_to_dict(cert),
sort_keys=True)`, feeds one sha256 in turn.  A change that must leave every
verdict and certificate as it is leaves the digest as it is.

Run from the repository root:  python tools/certdigest.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))

from fcfam import Family  # noqa: E402
from fcfam.fcsolve import certificate_to_dict, is_fc  # noqa: E402


def digest() -> tuple[int, str]:
    """The number of pool certificates and the sha256 of their JSON."""
    pool = json.loads((_ROOT / "bench" / "pool.json").read_text(encoding="utf-8"))
    h = hashlib.sha256()
    count = 0
    for workload in pool.values():
        full = workload["full"]
        for stratum in full["strata"]:
            for masks in stratum["families"]:
                fam = Family.from_masks(full["n"], masks)
                for symmetry in (False, True):
                    cert = is_fc(fam, symmetry=symmetry)
                    h.update(json.dumps(certificate_to_dict(cert), sort_keys=True).encode())
                    count += 1
    return count, h.hexdigest()


def main() -> int:
    count, hexdigest = digest()
    print(f"{count} certificates  sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
