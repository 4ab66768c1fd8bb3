"""Canonical labeling, isomorphism tests, automorphisms and element orbits.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .setfam import Family, compact_universe, universe

Permutation = tuple[int, ...]  # images[i-1] = image of element i, 1-based values

AUTOMORPHISM_UNIVERSE_CAP = 10
ORBIT_UNIVERSE_CAP = 16


def identity_perm(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(q)))


def invert(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, img in enumerate(p):
        inv[img - 1] = i + 1
    return tuple(inv)


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

    `relabeled` lives over the compacted universe [u]; `witness` maps the
    compacted input onto it; `compaction` lists the original universe
    elements in ascending order (old label of compacted element i is
    compaction[i-1]).
    """

    relabeled: Family
    witness: Permutation
    compaction: tuple[int, ...]

    @property
    def key(self) -> tuple[int, tuple[int, ...]]:
        return (self.relabeled.n, self.relabeled.members)


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
    if family.n > ORBIT_UNIVERSE_CAP:
        raise ValueError(f"ground size {family.n} exceeds cap {ORBIT_UNIVERSE_CAP}")
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


def canonical_key(family: Family) -> tuple[int, tuple[int, ...]]:
    """Hashable registry key of a family's isomorphism class."""
    return canonical_form(family).key


def are_isomorphic(a: Family, b: Family) -> bool:
    if len(a.members) != len(b.members):
        return False
    if universe(a).bit_count() != universe(b).bit_count():
        return False
    if sorted(m.bit_count() for m in a.members) != sorted(m.bit_count() for m in b.members):
        return False
    return canonical_key(a) == canonical_key(b)


def _search_automorphisms(
    members: Sequence[int],
    u: int,
    first_image: Optional[tuple[int, int]] = None,
    find_one: bool = False,
) -> list[Permutation]:
    """Backtracking over bijections of [u] fixing the member multiset.

    Elements are assigned in domain order 1..u; a partial map phi on the
    first t elements survives iff the multiset of (phi(S n [t]), |S|) over
    members equals the multiset of (M n V_t, |M|) over members, where V_t is
    the set of assigned values.
    """
    nm = len(members)
    sizes = [m.bit_count() for m in members]
    found: list[Permutation] = []
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
            found.append(tuple(images))
            return find_one
        dom_bit = 1 << d
        choices = range(u) if first_image is None or d != first_image[0] else (first_image[1],)
        for v in choices:
            if used[v]:
                continue
            used[v] = True
            images[d] = v + 1
            val_mask |= 1 << v
            touched = [j for j in range(nm) if members[j] & dom_bit]
            for j in touched:
                img[j] |= 1 << v
            if consistent() and rec(d + 1):
                for j in touched:
                    img[j] ^= 1 << v
                val_mask ^= 1 << v
                used[v] = False
                return True
            for j in touched:
                img[j] ^= 1 << v
            val_mask ^= 1 << v
            used[v] = False
        return False

    rec(0)
    return found


def automorphism_group(family: Family) -> list[Permutation]:
    """All bijections of the universe fixing the family setwise.

    Returned permutations act on the full ground set, fixing non-universe
    elements pointwise.  Listing is capped at universes of 10 elements.
    """
    fam, compaction = compact_universe(family)
    if universe(family) == 0:
        return [identity_perm(family.n)]
    if fam.n > AUTOMORPHISM_UNIVERSE_CAP:
        raise ValueError(
            f"universe of {fam.n} elements exceeds cap {AUTOMORPHISM_UNIVERSE_CAP}"
        )
    perms = _search_automorphisms(fam.members, fam.n)
    out = []
    for p in perms:
        full = list(range(1, family.n + 1))
        for i, old in enumerate(compaction):
            full[old - 1] = compaction[p[i] - 1]
        out.append(tuple(full))
    return sorted(out)


def orbits(family: Family) -> OrbitPartition:
    """Automorphism orbits of the ground elements.

    Avoids full group listing: merges elements via individual automorphism
    searches, so it also handles larger highly symmetric universes (cap 16).
    """
    fam, compaction = compact_universe(family)
    u = fam.n if universe(family) else 0
    if u > ORBIT_UNIVERSE_CAP:
        raise ValueError(f"universe of {u} elements exceeds cap {ORBIT_UNIVERSE_CAP}")

    parent = list(range(u))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    blocked: set[tuple[int, int]] = set()
    for i in range(u):
        for j in range(i + 1, u):
            a, b = find(i), find(j)
            if a == b or (min(a, b), max(a, b)) in blocked:
                continue
            hit = _search_automorphisms(fam.members, u, first_image=(i, j), find_one=True)
            if hit:
                for x in range(u):
                    union(x, hit[0][x] - 1)
            else:
                blocked.add((min(a, b), max(a, b)))

    # map back to the full ground set; non-universe elements sit in singletons
    comp_of = {old: find(i) for i, old in enumerate(compaction)}
    ids: list[int] = []
    assign: dict[tuple[str, int], int] = {}
    for e in range(1, family.n + 1):
        key = ("u", comp_of[e]) if e in comp_of else ("s", e)
        if key not in assign:
            assign[key] = len(assign)
        ids.append(assign[key])
    return OrbitPartition(tuple(ids))


def generating_set(group: Iterable[Permutation]) -> list[Permutation]:
    """Small generating set of a permutation group given by full listing."""
    gens: list[Permutation] = []
    known: set[Permutation] = set()
    ident: Optional[Permutation] = None
    for p in group:
        if ident is None:
            ident = identity_perm(len(p))
            known = {ident}
        if p in known:
            continue
        gens.append(p)
        frontier = [p]
        while frontier:
            q = frontier.pop()
            if q in known:
                continue
            known.add(q)
            for g in gens:
                frontier.append(compose(g, q))
                frontier.append(compose(q, g))
    return gens


def family_orbit(family: Family, gens: Sequence[Permutation]) -> list[Family]:
    """Distinct images of a family under the group generated by gens."""
    seen = {family}
    frontier = [family]
    while frontier:
        f = frontier.pop()
        for g in gens:
            img = apply_perm_family(g, f)
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return sorted(seen, key=lambda f: f.members)
