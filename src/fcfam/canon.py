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
  its unplaced elements on the lowest free labels.  It is kept per member
  and updated only for the members that contain the element just placed;
- the distinct bound, tried only when the optimistic one passes: members
  with the same placed bits and the same number r of unplaced elements must
  end with distinct low parts, so the i-th of them is raised to the i-th
  smallest number with r bits set.

Neither bound can prune the first optimal leaf in search order (its bound
is at most the optimum, which is below the incumbent until that leaf), so
the result, witness included, is the same as without them.  Plain
enumeration of all permutations is kept in the test suite as the reference
oracle for small universes.

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

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TypeVar

from .setfam import GROUND_CAP, Family, compact_universe, universe

Permutation = tuple[int, ...]  # images[i-1] = image of element i, 1-based values

AUTOMORPHISM_UNIVERSE_CAP = 10

T = TypeVar("T")


def identity_perm(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(q)))


def apply_perm_mask(p: Permutation, mask: int) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << (p[low.bit_length() - 1] - 1)
        mask ^= low
    return out


def apply_perm_family(p: Permutation, family: Family) -> Family:
    if len(p) != family.n:
        raise ValueError("permutation size does not match ground size")
    return Family.from_masks(family.n, (apply_perm_mask(p, m) for m in family.members))


@dataclass(frozen=True)
class CanonicalForm:
    """Relabeling-invariant representative of an isomorphism class.

    `relabeled` lives over the compacted universe [u] and names the class:
    two families are isomorphic iff theirs are equal.  `witness` maps the
    compacted input onto it; `compaction` lists the original universe
    elements in ascending order (old label of compacted element i is
    compaction[i-1]).
    """

    relabeled: Family
    witness: Permutation
    compaction: tuple[int, ...]


@dataclass(frozen=True)
class OrbitPartition:
    """Automorphism orbits of the ground elements; ids dense from 0."""

    orbit_id: tuple[int, ...]

    @property
    def num_orbits(self) -> int:
        return max(self.orbit_id) + 1 if self.orbit_id else 0

    def orbit_sets(self) -> list[tuple[int, ...]]:
        out: list[list[int]] = [[] for _ in range(self.num_orbits)]
        for i, oid in enumerate(self.orbit_id):
            out[oid].append(i + 1)
        return [tuple(o) for o in out]

    @classmethod
    def from_generators(cls, gens: Sequence[Permutation], n: int) -> "OrbitPartition":
        """Orbits on [n] of the group the gens generate, numbered by first appearance."""
        ids = [-1] * n
        count = 0
        for i in range(1, n + 1):
            if ids[i - 1] < 0:
                for x in _orbit(i, gens, _image):
                    ids[x - 1] = count
                count += 1
        return cls(tuple(ids))


def _twin_classes(members: Sequence[int], u: int) -> list[int]:
    """twin[i] = smallest j such that swapping elements i+1, j+1 fixes the family."""
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


def canonical_form(family: Family) -> CanonicalForm:
    """Deterministic minimum relabeling over the compacted universe."""
    if family.n > GROUND_CAP:
        raise ValueError(f"ground size {family.n} exceeds cap {GROUND_CAP}")
    fam, compaction = compact_universe(family)
    u = fam.n
    members = fam.members
    if not members or members == (0,):
        return CanonicalForm(fam, identity_perm(u), compaction)

    twin = _twin_classes(members, u)
    nm = len(members)
    degree = [sum(m >> e & 1 for m in members) for e in range(u)]
    elem_order = sorted(range(u), key=lambda e: (degree[e], e))
    inc = [[j for j in range(nm) if members[j] >> e & 1] for e in range(u)]

    # incumbent from the identity relabeling
    best = list(members)
    best_assign: list[int] = list(range(u))  # best_assign[pos] = old element index for new label pos+1

    # remaining[j] = unplaced elements of member j; opt[j] = its placed bits
    # (high labels) plus those elements on the lowest free labels
    remaining = [m.bit_count() for m in members]
    opt = [(1 << r) - 1 for r in remaining]
    order: list[int] = [0] * u  # order[pos] = old element index receiving new label pos+1
    used = [False] * u

    def rec(label: int) -> None:
        nonlocal best, best_assign
        if label == 0:
            # the bound is exact at a leaf, and it passed the test against best
            best = sorted(opt)
            best_assign = order.copy()
            return
        bit = 1 << (label - 1)
        low_mask = bit - 1
        tried_twins = set()
        for e in elem_order:
            if used[e]:
                continue
            rep = twin[e]
            if rep in tried_twins:
                continue
            tried_twins.add(rep)
            used[e] = True
            order[label - 1] = e
            touched = inc[e]
            for j in touched:
                r = remaining[j]
                opt[j] += bit - (1 << (r - 1))
                remaining[j] = r - 1
            bound = sorted(opt)
            if bound < best and _distinct_bound(bound, low_mask) < best:
                rec(label - 1)
            for j in touched:
                r = remaining[j] + 1
                opt[j] -= bit - (1 << (r - 1))
                remaining[j] = r
            used[e] = False
        return

    rec(u)
    witness = [0] * u
    for pos, e in enumerate(best_assign):
        witness[e] = pos + 1
    return CanonicalForm(Family.from_masks(u, best), tuple(witness), compaction)


def are_isomorphic(a: Family, b: Family) -> bool:
    if len(a.members) != len(b.members):
        return False
    if universe(a).bit_count() != universe(b).bit_count():
        return False
    if sorted(m.bit_count() for m in a.members) != sorted(m.bit_count() for m in b.members):
        return False
    return canonical_form(a).relabeled == canonical_form(b).relabeled


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
    used = [False] * u
    val_mask = 0  # bits of assigned target values (0-based)
    # img[j] = phi(members[j] n assigned domain)
    img = [0] * nm

    def consistent() -> bool:
        need: dict[tuple[int, int], int] = {}
        for j in range(nm):
            key = (img[j], sizes[j])
            need[key] = need.get(key, 0) + 1
        for m in members:
            key = (m & val_mask, m.bit_count())
            cnt = need.get(key, 0)
            if cnt == 0:
                return False
            need[key] = cnt - 1
        return True

    def rec(d: int) -> bool:
        nonlocal val_mask
        if d == u:
            return True
        for v in (prefix[d],) if d < len(prefix) else range(u):
            if used[v]:
                continue
            bit = 1 << v
            used[v] = True
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
            used[v] = False
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
    if not universe(family):
        return []
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


def orbits(family: Family) -> OrbitPartition:
    """Automorphism orbits of the ground elements, from `generating_set`.

    The group is never listed, so universes up to 16 elements are handled;
    non-universe elements sit in singletons.
    """
    return OrbitPartition.from_generators(generating_set(family), family.n)


def family_orbit(family: Family, gens: Sequence[Permutation]) -> list[Family]:
    """Distinct images of a family under the group generated by gens."""
    return sorted(_orbit(family, gens, apply_perm_family), key=lambda f: f.members)
