#!/usr/bin/env python3
"""Symmetry: canonical forms, element orbits, and a transitive construction.

If two ground elements are exchanged by an automorphism of <A>, some
certifying weight vector gives them equal weight, so the LP can be
projected to one variable per orbit.  For transitive families that single
variable forces the uniform vector, and one separation solve settles
FC-ness.
"""

from fractions import Fraction

from fcfam import (
    Family,
    are_isomorphic,
    automorphism_group,
    canonical_form,
    is_fc,
    orbits,
    powerset_family,
    regular_3set_fc,
    regularity,
    translates_family,
    union_closure,
)
from fcfam.sepip import build_separation, solve_separation

print("== canonical forms identify isomorphic families ==")
a = Family.from_sets(5, [[1, 2, 3, 4], [1, 2, 3, 5]])
b = Family.from_sets(5, [[2, 3, 4, 5], [1, 3, 4, 5]])
print("same canonical form:", canonical_form(a).relabeled == canonical_form(b).relabeled)
print("are_isomorphic:", are_isomorphic(a, b))

print("\n== automorphisms and orbits ==")
closure = union_closure(Family.from_sets(6, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6], [1, 2, 3, 5, 6]]))
print("group order:", len(automorphism_group(closure)))
print("orbits:", orbits(closure).orbit_sets())

print("\n== symmetry halves the LP dimension here ==")
fam = Family.from_sets(4, [[1, 2], [3, 4]])
print("verdict with symmetry:", is_fc(fam, symmetry=True).kind)
print("verdict without:      ", is_fc(fam).kind)

print("\n== torus translates: transitive 3-set families ==")
for n in (4, 5, 6):
    fam = translates_family(n, {0, 1, 2})
    print(f"n={n}: {len(fam)} translates over {n * n} cells, degree {regularity(fam)}, "
          f"FC by the regular 3-set count bound: {regular_3set_fc(fam)}")

print("\n== transitive families need only the uniform weight check ==")
fam = Family.from_sets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
closure = union_closure(fam)
print("orbit count:", orbits(closure).num_orbits)
prob = build_separation(closure, powerset_family(4))
print("uniform weights admit no separating family:",
      solve_separation(prob, [Fraction(1, 4)] * 4).optimum <= 0)
print("matches the full decision:", is_fc(fam).kind == "fc")
