#!/usr/bin/env python3
"""Deciding Frankl-Completeness exactly, with replayable certificates.

A family A is FC when every union-closed family containing it has a
majority element inside U(A).  Equivalently there is a nonnegative weight
vector c, summing to 1, with sum_i c_i |B_i| >= |B|/2 for every union-closed
B absorbed by <A>.  The decision alternates an exact rational LP with an
exact separation solve; both outcomes carry a certificate that replays by
pure arithmetic.
"""

from fcfam import Family, frequencies, is_fc, verify_certificate

print("== a 2-set is FC ==")
cert = is_fc(Family.from_sets(2, [[1, 2]]))
print("verdict:", cert.kind)
print("weights:", [str(w) for w in cert.weights])
print("separation proof entries:", len(cert.proof))
print("verification:", "PASS" if verify_certificate(cert).passed else "FAIL")

print("\n== a single 3-set is Non-FC ==")
cert = is_fc(Family.from_sets(3, [[1, 2, 3]]))
print("verdict:", cert.kind)
print("cut families and Farkas multipliers proving LP infeasibility:")
for cut, y in zip(cert.cuts, cert.multipliers):
    print(f"  y = {y}   B = {cut}  (|B| = {len(cut)}, counts {frequencies(cut).counts})")
print("lambda on sum(c) = 1:", cert.lam)
print("verification:", "PASS" if verify_certificate(cert).passed else "FAIL")

print("\n== options: warm start and symmetry ==")
fam = Family.from_sets(5, [[1, 2, 3], [3, 4, 5]])
plain = is_fc(fam, warm_start=False)
warm = is_fc(fam)  # warm start is the default
sym = is_fc(fam, symmetry=True)
print("verdicts agree:", plain.kind == warm.kind == sym.kind == "non-fc")
print("Non-FC proof cuts without / with warm start:", len(plain.cuts), "/", len(warm.cuts))
