#!/usr/bin/env python3
"""V-FC: Frankl-Completeness relative to a restricted variable domain.

Restricting the separation variables to a union-closed V <= P([n]) asks a
weaker question: do all union-closed supersets whose fibers stay inside V
have a majority element?  Some Non-FC families become V-FC once singleton
fibers are forbidden, which is exactly what makes the notion useful.
"""

import time

from fcfam import Family, fcv_value, is_fc, no_singletons_family

print("== a single 3-set: Non-FC, but V-FC without the fiber {1} ==")
fam3 = Family.from_sets(3, [[1, 2, 3]])
print("full domain:", is_fc(fam3).kind)
v = Family.from_masks(3, [m for m in range(8) if m != 0b001])
print("V = P([3]) minus {1}:", is_fc(fam3, domain=v).kind)

print("\n== a single 4-set with all singletons forbidden ==")
fam4 = Family.from_sets(4, [[1, 2, 3, 4]])
print("full domain:", is_fc(fam4).kind)
print("no-singleton domain:", is_fc(fam4, domain=no_singletons_family(4)).kind)

print("\n== three 5-sets over [6]: the boundary case ==")
v6 = no_singletons_family(6)
three = Family.from_sets(6, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6], [1, 2, 3, 5, 6]])
two = Family.from_sets(6, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6]])
print("three generators:", is_fc(three, domain=v6).kind)
print("two generators:  ", is_fc(two, domain=v6).kind)

print("\n== FC_V(k, n): the V-FC threshold over all families ==")
for k, n in [(5, 6), (6, 7)]:
    t0 = time.time()
    rep = fcv_value(k, n, "no-singletons")
    print(f"FC_V({k},{n}) = {rep.value}   ({time.time() - t0:.1f}s)")
print("(FC_V(5,7) = 5 reproduces in about a second)")
