"""Canonical labeling, isomorphism tests, automorphism generators and orbits.

The canonical form of a family is the minimum, over all relabelings of its
universe, of the normal-form member list (sorted bit masks, compared
lexicographically).  Families are first compacted to their universe, so two
families are isomorphic iff their canonical forms are identical.

The search assigns new labels from the highest bit down, trying elements in
order of degree and collapsing interchangeable elements (twins).  The
identity relabeling is the first incumbent, and a child is searched only if
a lower bound on every leaf below it is strictly smaller than the incumbent.
Two bounds are used, both elementwise lower bounds on the members' final
values, so their sorted lists are lexicographic lower bounds:

- the optimistic bound: each member keeps its placed (high) bits and puts
  its unplaced elements on the lowest free labels.  The bounds of all
  members sit in one packed integer, member j in the 32-bit field at bit
  32j (SIMD within a register: Fisher & Dietz, LCPC 1998).  A second
  packed integer, `half`, holds 2^(r-1) for each member's r unplaced
  elements, and holds[e] masks the low 16 bits of the fields of the
  members that contain element e.  Placing e at label `bit` gives the
  child's bound opt + ((bit * ONES - half) & holds[e]), with ONES a 1 in
  every field, and passes (half & ~h) | ((half & h) >> 1) & h, h =
  holds[e], down to it.  No field borrows or carries: r never exceeds the
  labels left, so bit - 2^(r-1) >= 0, and under `GROUND_CAP` every value
  stays below 2^16.  The child's sorted bound list is the packed integer's
  bytes unpacked as 32-bit fields and sorted, so no Python loop runs over
  the members per child.  The packed step costs more than the per-member
  one where each element lies in one or two members, as in disjoint pairs;
  most families that the enumeration labels have higher degrees;
- the distinct bound, tried only when the optimistic one passes: members
  with the same placed bits and the same number r of unplaced elements must
  end with distinct low parts, so the i-th of them is raised to the i-th
  smallest number with r bits set.

Neither bound can prune the first optimal leaf in search order (its bound
is at most the optimum, which is below the incumbent until that leaf), so
the result is the same as without them.  Plain enumeration of all
permutations is kept in the test suite as the reference oracle for small
universes, and the same search with one list entry per member bound,
updated member by member, as the reference up to the 16-element cap.

Automorphisms come from one find-one search, `_find_automorphism`: it
assigns images in domain order under a member-multiset consistency test,
with the images of a prefix of elements forced.  `generating_set` drives it
along the base 0, 1, ..., u-1 from the bottom up.  At level d every
generator found so far fixes 0..d-1, so it lies in the pointwise stabilizer
G_d of 0..d-1.  The orbit of d under those generators is grown, and each
j > d it has not reached gets one search with 0..d-1 fixed and d sent to j;
a hit is a new generator.  Skipping a reached j is sound, since a product
of generators in G_d already sends d there, and no j < d is tried, since
G_d fixes it.  So at every level the generators reach the whole G_d-orbit
of d: they form a strong generating set, and the group order is the product
of those orbit lengths (Seress, *Permutation Group Algorithms*, 2003).  The
element orbits and the listing in `automorphism_group` are closures of these
generators; no decision lists the group.
"""

from __future__ import annotations

import sys
from struct import Struct
from typing import Callable, Optional, Sequence, TypeVar

from .setfam import GROUND_CAP, Family, bits, compact_universe, universe

Permutation = tuple[int, ...]  # images[i-1] = image of element i, 1-based values

AUTOMORPHISM_UNIVERSE_CAP = 10
# the part of a 32-bit field that a member's values use, below 2^GROUND_CAP
_FIELD = (1 << GROUND_CAP) - 1

T = TypeVar("T")


def identity_perm(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(q)))


def apply_perm_mask(p: Permutation, mask: int) -> int:
    out = 0
    for b in bits(mask):
        out |= 1 << (p[b] - 1)
    return out


def apply_perm_family(p: Permutation, family: Family) -> Family:
    if len(p) != family.n:
        raise ValueError("permutation size does not match ground size")
    return Family.from_masks(family.n, (apply_perm_mask(p, m) for m in family.members))


def twin_classes(members: Sequence[int], u: int) -> list[int]:
    """twin[i] = smallest j such that swapping elements i+1, j+1 fixes the family.

    Twins form an equivalence: (i k) = (i j)(j k)(i j) fixes the family
    when (i j) and (j k) do.  So twin[i] names i's class by its lowest
    element, and the transpositions generate the product of the symmetric
    groups on the classes."""
    memberset = set(members)
    twin = list(range(u))
    for i in range(u):
        if twin[i] != i:
            continue
        for j in range(i + 1, u):
            bi, bj = 1 << i, 1 << j
            ok = True
            for m in members:
                a, b = bool(m & bi), bool(m & bj)
                if a != b and (m ^ bi ^ bj) not in memberset:
                    ok = False
                    break
            if ok:
                twin[j] = i
    return twin


def _distinct_bound(bound: list[int], low_mask: int) -> list[int]:
    """Raise runs of equal values in the sorted elementwise bound.

    Equal entries are members with the same placed bits and the same number
    r of unplaced elements, whose final low parts (under `low_mask`) must be
    distinct r-element sets: the i-th of a run is at least the i-th smallest
    number of popcount r (one Gosper step per repeat).
    """
    out = bound.copy()
    for i in range(1, len(out)):
        if bound[i] == bound[i - 1]:
            low = out[i - 1] & low_mask
            c = low & -low
            nxt = low + c
            out[i] = (bound[i] & ~low_mask) | (((nxt ^ low) >> 2) // c) | nxt
    out.sort()
    return out


def canonical_form(family: Family) -> Family:
    """The canonical family: the minimum relabeling over the compacted
    universe [u].  Two families are isomorphic iff theirs are equal."""
    if family.n > GROUND_CAP:
        raise ValueError(f"ground size {family.n} exceeds cap {GROUND_CAP}")
    fam, _ = compact_universe(family)
    u = fam.n
    members = fam.members

    # member j owns bits 32j..32j+31 of each packed int (see the module
    # docstring); its values stay below 2^16, so a field never carries
    nm = len(members)
    size = 4 * nm
    # "I" is a C unsigned int, 32 bits on LP64 and LLP64 platforms; in
    # native byte order each field reads as one entry, whichever end the
    # fields start from
    fields = Struct(f"{nm}I").unpack
    ones = int.from_bytes(b"\1\0\0\0" * nm, "little")
    holds = [0] * u
    for j, m in enumerate(members):
        for e in bits(m):
            holds[e] |= _FIELD << 32 * j
    twin = twin_classes(members, u)
    # in order of degree: each member holding e sets 16 bits of holds[e]
    elem_order = sorted(range(u), key=lambda e: (holds[e].bit_count(), e))
    # opt: each member's placed bits plus its r unplaced elements on the
    # lowest free labels; half: 2^(r-1) for each member with r > 0
    opt = sum(((1 << m.bit_count()) - 1) << 32 * j for j, m in enumerate(members))
    half = sum((1 << m.bit_count() >> 1) << 32 * j for j, m in enumerate(members))

    # incumbent from the identity relabeling
    best = list(members)
    used = [False] * u

    def rec(label: int, opt: int, half: int) -> None:
        nonlocal best
        bit = 1 << (label - 1)
        low_mask = bit - 1
        # placing e at `bit` adds bit - 2^(r-1) to each member holding e;
        # no field goes negative, since r <= label
        step = bit * ones - half
        tried_twins = set()
        for e in elem_order:
            if used[e]:
                continue
            rep = twin[e]
            if rep in tried_twins:
                continue
            tried_twins.add(rep)
            held = holds[e]
            child = opt + (step & held)
            bound = sorted(fields(child.to_bytes(size, sys.byteorder)))
            if bound < best and _distinct_bound(bound, low_mask) < best:
                if label == 1:
                    # the bound is exact at a leaf, and it passed the test against best
                    best = bound
                    continue
                used[e] = True
                rec(label - 1, child, (half & ~held) | ((half & held) >> 1) & held)
                used[e] = False

    rec(u, opt, half)
    return Family.from_masks(u, best)


def are_isomorphic(a: Family, b: Family) -> bool:
    return canonical_form(a) == canonical_form(b)


def _find_automorphism(
    members: Sequence[int], u: int, prefix: Sequence[int]
) -> Optional[Permutation]:
    """One bijection of [u] fixing the member multiset, or None.

    Elements are assigned in domain order 0..u-1, element t < len(prefix)
    to prefix[t] (0-based); a partial map phi on the first t elements
    survives iff the multiset of (phi(S n [t]), |S|) over members equals the
    multiset of (M n V_t, |M|) over members, where V_t is the set of
    assigned values.
    """
    nm = len(members)
    sizes = [m.bit_count() for m in members]
    inc = [[j for j in range(nm) if members[j] >> d & 1] for d in range(u)]
    images = [0] * u
    val_mask = 0  # bits of assigned target values (0-based)
    # img[j] = phi(members[j] n assigned domain)
    img = [0] * nm

    def consistent() -> bool:
        return sorted(zip(img, sizes)) == sorted(zip([m & val_mask for m in members], sizes))

    def rec(d: int) -> bool:
        nonlocal val_mask
        if d == u:
            return True
        for v in (prefix[d],) if d < len(prefix) else range(u):
            bit = 1 << v
            if val_mask & bit:
                continue
            images[d] = v + 1
            val_mask |= bit
            for j in inc[d]:
                img[j] |= bit
            # passing the test at d implies passing it at every earlier
            # step, so inside the forced prefix it runs at the prefix's end
            found = (d + 1 < len(prefix) or consistent()) and rec(d + 1)
            for j in inc[d]:
                img[j] ^= bit
            val_mask ^= bit
            if found:
                return True
        return False

    return tuple(images) if rec(0) else None


def _orbit(start: T, gens: Sequence[Permutation], act: Callable[[Permutation, T], T]) -> set[T]:
    """Everything reached from start under the group the gens generate."""
    seen = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = act(g, x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def _image(g: Permutation, x: int) -> int:
    return g[x - 1]


def generating_set(family: Family) -> list[Permutation]:
    """Strong generating set of the automorphism group of a family.

    Built bottom-up along the base 0..u-1 of the compacted universe (see the
    module docstring); the permutations act on the full ground set, fixing
    non-universe elements pointwise.  Capped at universes of 16 elements.
    """
    fam, compaction = compact_universe(family)
    u = fam.n
    if u > GROUND_CAP:
        raise ValueError(f"universe of {u} elements exceeds cap {GROUND_CAP}")
    gens: list[Permutation] = []
    for d in range(u - 1, -1, -1):
        # every generator so far fixes 0..d-1; grow the orbit of d under them
        reached = _orbit(d + 1, gens, _image)
        for j in range(d + 1, u):
            if j + 1 in reached:
                continue
            g = _find_automorphism(fam.members, u, (*range(d), j))
            if g is not None:
                gens.append(g)
                reached = _orbit(d + 1, gens, _image)
    out = []
    for g in gens:
        full = list(range(1, family.n + 1))
        for i, old in enumerate(compaction):
            full[old - 1] = compaction[g[i] - 1]
        out.append(tuple(full))
    return out


def automorphism_group(family: Family) -> list[Permutation]:
    """All bijections of the universe fixing the family setwise, sorted.

    The closure of `generating_set`, so it acts on the full ground set the
    same way.  Listing is capped at universes of 10 elements.
    """
    u = universe(family).bit_count()
    if u > AUTOMORPHISM_UNIVERSE_CAP:
        raise ValueError(f"universe of {u} elements exceeds cap {AUTOMORPHISM_UNIVERSE_CAP}")
    return sorted(_orbit(identity_perm(family.n), generating_set(family), compose))


def element_orbits(gens: Sequence[Permutation], n: int) -> list[tuple[int, ...]]:
    """Orbits on [n] of the group the gens generate: ascending tuples, in
    order of least element (the orbits are disjoint, so sorting the tuples
    sorts them by their first entries)."""
    return sorted({tuple(sorted(_orbit(i, gens, _image))) for i in range(1, n + 1)})


def orbits(family: Family) -> list[tuple[int, ...]]:
    """Automorphism orbits of the ground elements, from `generating_set`.

    The group is never listed, so universes up to 16 elements are handled;
    non-universe elements sit in singletons.
    """
    return element_orbits(generating_set(family), family.n)


def family_orbit(family: Family, gens: Sequence[Permutation]) -> list[Family]:
    """Distinct images of a family under the group generated by gens."""
    return sorted(_orbit(family, gens, apply_perm_family), key=lambda f: f.members)
