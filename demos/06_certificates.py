#!/usr/bin/env python3
"""Certificates on disk: write, reload, verify, and watch tampering fail.

Certificates are plain JSON with exact "p/q" rationals.  Verification
recomputes everything recomputable; an FC certificate also carries the
search tree of its final separation solve, which the verifier replays with
its own bounds instead of searching again, so a certificate is evidence,
not trust.
"""

import json
import tempfile
from pathlib import Path

from fcfam import Family, is_fc, load_certificate, save_certificate, verify_certificate

with tempfile.TemporaryDirectory(prefix="fcfam-demo-") as tmp:
    workdir = Path(tmp)

    print("== write and reload ==")
    cert = is_fc(Family.from_sets(4, [[1, 2, 3], [1, 2, 4]]))
    path = workdir / "pair.cert.json"
    save_certificate(cert, str(path))
    print("kind:", cert.kind, "| file:", path.name)
    again = load_certificate(str(path))
    report = verify_certificate(again)
    print(report.summary())

    print("\n== tampering with one rational breaks the replay ==")
    data = json.loads(path.read_text())
    data["farkas"]["lambda"] = "0/1"
    bad_path = workdir / "tampered.cert.json"
    bad_path.write_text(json.dumps(data))
    report = verify_certificate(load_certificate(str(bad_path)))
    print(report.summary())

print("\n== an FC certificate is checked by replaying its search tree ==")
cert = is_fc(Family.from_sets(5, [[1, 2, 3], [1, 2, 4], [1, 2, 5]]))
print(f"proof: {len(cert.proof)} nodes in preorder, -1 marks a pruned node")
report = verify_certificate(cert)
for name, ok in report.checked:
    print(f"  {name}: {'ok' if ok else 'FAIL'}")
cert.proof = cert.proof[:-1]
print("proof cut short by one node:", verify_certificate(cert).failure)
