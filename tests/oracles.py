"""Brute-force reference oracles, independent of the library's solve paths.

Every derived expected value in the tests comes from one of these: they
enumerate, never search, and share nothing with the production algorithms
beyond the Family container and exact arithmetic.  The two class
enumerations are the exception: `uc_reps_with_full_universe` and
`noniso_levels` deduplicate by `canon.canonical_form`, and `noniso_levels`
augments with `enumfam._extensions`; the tests check both against
brute-force counts.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from fcfam.setfam import Family, compact_universe, union_closure, universe
from fcfam.ratlp import FarkasCertificate, LinearProgram, Infeasible, Feasible, lp_solve


def apply_perm_mask(perm: tuple[int, ...], mask: int) -> int:
    out = 0
    for i in range(len(perm)):
        if mask >> i & 1:
            out |= 1 << (perm[i] - 1)
    return out


def relabel(perm: tuple[int, ...], fam: Family) -> Family:
    return Family.from_masks(fam.n, (apply_perm_mask(perm, m) for m in fam.members))


def brute_min_canonical(fam: Family) -> Family:
    """Minimum normal form over all relabelings of the compacted universe."""
    comp, _ = compact_universe(fam)
    best = None
    for perm in itertools.permutations(range(1, comp.n + 1)):
        img = tuple(sorted(apply_perm_mask(perm, m) for m in comp.members))
        if best is None or img < best:
            best = img
    return Family(comp.n, best)


def brute_automorphisms(fam: Family) -> list[tuple[int, ...]]:
    """All permutations of the full ground set fixing the family setwise and
    fixing non-universe elements pointwise."""
    uni = universe(fam)
    out = []
    for perm in itertools.permutations(range(1, fam.n + 1)):
        if any(perm[i] != i + 1 for i in range(fam.n) if not uni >> i & 1):
            continue
        if any(not uni >> (perm[i] - 1) & 1 for i in range(fam.n) if uni >> i & 1):
            continue
        if relabel(perm, fam) == Family(fam.n, fam.members):
            out.append(perm)
    return out


def brute_union_closure(fam: Family) -> Family:
    """Fixpoint of pairwise unions, plus the empty set."""
    current = set(fam.members) | {0}
    while True:
        extra = {a | b for a in current for b in current} - current
        if not extra:
            return Family.from_masks(fam.n, current)
        current |= extra


@lru_cache(maxsize=None)
def all_uc_subfamilies(n: int) -> tuple[tuple[int, ...], ...]:
    """Every union-closed subfamily of P([n]) as a tuple of member masks."""
    size = 1 << n
    out = []
    for f in range(1 << size):
        members = [s for s in range(size) if f >> s & 1]
        ok = True
        for a, b in itertools.combinations(members, 2):
            if not f >> (a | b) & 1:
                ok = False
                break
        if ok:
            out.append(tuple(members))
    return tuple(out)


@lru_cache(maxsize=None)
def _uc_subfamilies_fast(n: int) -> tuple[tuple[int, ...], ...]:
    """Same as all_uc_subfamilies but via the incremental peeling property:
    a nonempty family is union-closed iff it stays union-closed without its
    smallest member and every union with that member is present."""
    size = 1 << n
    uc = bytearray(1 << size)
    uc[0] = 1
    out = [()]
    for f in range(1, 1 << size):
        low = f & -f
        i = low.bit_length() - 1
        rest = f ^ low
        if not uc[rest]:
            continue
        ok = True
        r = rest
        while r:
            lb = r & -r
            j = lb.bit_length() - 1
            if not f >> (i | j) & 1:
                ok = False
                break
            r ^= lb
        if ok:
            uc[f] = 1
            out.append(tuple(s for s in range(size) if f >> s & 1))
    return tuple(out)


def uc_subfamilies(n: int) -> tuple[tuple[int, ...], ...]:
    return _uc_subfamilies_fast(n) if n >= 3 else all_uc_subfamilies(n)


def poonen_inequalities(fam: Family) -> list[tuple[tuple[int, ...], int]]:
    """All distinct inequalities (frequency vector, family size) arising from
    union-closed B <= P([n]) with <A> |+| B = B."""
    n = fam.n
    closure = union_closure(fam)
    cset = closure.members
    rows = set()
    for members in uc_subfamilies(n):
        if not members:
            continue
        mset = set(members)
        if any((a | b) not in mset for a in cset for b in members):
            continue
        freq = tuple(sum(m >> i & 1 for m in members) for i in range(n))
        rows.add((freq, len(members)))
    return sorted(rows)


def brute_poonen_fc(fam: Family) -> bool:
    """Definitional FC check: feasibility of the complete inequality system
    c >= 0, sum c = 1, sum_i c_i |B_i| >= |B|/2 over all valid B.

    Solved by lazily activating violated rows; the terminating object is
    either a point satisfying every enumerated inequality or an infeasible
    subsystem of them.
    """
    n = fam.n
    rows = poonen_inequalities(fam)
    active: list[tuple[tuple[int, ...], int]] = []
    while True:
        lp = LinearProgram(n)
        lp.add_eq([1] * n, 1)
        for freq, size in active:
            lp.add_ge(list(freq), Fraction(size, 2))
        res = lp_solve(lp)
        if isinstance(res, Infeasible):
            return False
        assert isinstance(res, Feasible)
        point = res.point
        worst = None
        worst_gap = Fraction(0)
        for freq, size in rows:
            gap = Fraction(size, 2) - sum(c * f for c, f in zip(point, freq))
            if gap > worst_gap:
                worst_gap = gap
                worst = (freq, size)
        if worst is None:
            return True
        active.append(worst)


def uc_reps_with_full_universe(n: int) -> list[Family]:
    """One representative per isomorphism class of union-closed families with
    universe exactly [n]."""
    from fcfam.canon import canonical_form

    full = (1 << n) - 1
    reps: dict = {}
    for members in uc_subfamilies(n):
        if not members:
            continue
        uni = 0
        for m in members:
            uni |= m
        if uni != full:
            continue
        fam = Family(n, members)
        reps.setdefault(canonical_form(fam).relabeled, fam)
    return [reps[c] for c in sorted(reps, key=lambda c: c.members)]


def noniso_levels(n: int, k: int, m_max: int) -> Iterator[list[Family]]:
    """Yield representatives of families of m distinct k-sets over ground
    sets of at most n elements (universes compacted to [u]), m = 1..m_max,
    by incremental augmentation: each (m-1)-set representative over [u] is
    extended by every k-set that takes j fresh elements (canonically
    u+1..u+j) and k-j old ones, then deduplicated by canonical form, so
    every representative is its own canonical form."""
    from fcfam.canon import canonical_form
    from fcfam.enumfam import _extensions

    if k > n or m_max < 1:
        return
    level = [Family.from_masks(k, [(1 << k) - 1])]
    yield level
    for _ in range(2, m_max + 1):
        classes: set[Family] = set()
        for fam in level:
            for j in range(0, min(k, n - fam.n) + 1):
                for ext in _extensions(fam, k, j):
                    classes.add(canonical_form(ext).relabeled)
        level = sorted(classes, key=lambda f: (f.n, f.members))
        yield level


def gen_noniso_families(n: int, k: int, m: int) -> list[Family]:
    """One representative per isomorphism class of families of m distinct
    k-sets with universe exactly [n]; empty when the parameters are
    impossible.  The flat reference enumeration: level m of
    `noniso_levels`, kept to universe [n], which `TestGenNonIso` checks
    against a brute-force class count."""
    if m < 1:
        raise ValueError("m must be positive")
    if k > n or k * m < n or m > math.comb(n, k):
        return []
    last: list[Family] = []
    for level in itertools.islice(noniso_levels(n, k, m), m - 1, m):
        last = level
    return [f for f in last if f.n == n]


def random_family(rng, max_n: int = 6, max_members: int = 8) -> Family:
    n = rng.randint(1, max_n)
    count = rng.randint(1, min(max_members, (1 << n)))
    masks = rng.sample(range(1 << n), count)
    return Family.from_masks(n, masks)


def warm_start_cuts(family: Family, domain: Family) -> list[Family]:
    """The warm-start families <A> |+| (D & P([n] minus {i})) for i = 1..n, in
    that order, each kept at its first appearance."""
    closure = brute_union_closure(family).members
    out: list[Family] = []
    for i in range(family.n):
        avoid = [d for d in domain.members if not d >> i & 1]
        cut = Family.from_masks(family.n, (a | d for a in closure for d in avoid))
        if cut not in out:
            out.append(cut)
    return out


def family_value(fam: Family, weights) -> Fraction:
    """|B| - 2 * sum_i c_i |B_i|: positive exactly when B violates the weights."""
    total = Fraction(len(fam.members))
    for i, c in enumerate(weights):
        total -= 2 * Fraction(c) * sum(1 for m in fam.members if m >> i & 1)
    return total


def brute_min_cut(arcs: dict, W, forces: dict | None = None) -> tuple[int, set]:
    """Minimum cut of the bipartite forcing graph by enumeration.

    `arcs` maps each candidate to the negative sets it sends into.  Over all
    subsets C of the candidates, the least W(cands outside C) - W(N(C)),
    where N(C) holds the arcs of the members of C, and the intersection of
    the subsets that attain it: the minimal minimum cut's source side.  With
    `forces` (candidate -> the sets it forces), only the subsets that contain
    every candidate their members force are tried.
    """
    order = list(arcs)
    best, meet = None, set()
    for pick in range(1 << len(order)):
        chosen = {s for i, s in enumerate(order) if pick >> i & 1}
        if forces is not None and any(t in arcs and t not in chosen
                                      for s in chosen for t in forces[s]):
            continue
        reached = set().union(*(arcs[s] for s in chosen))
        value = sum(W[s] for s in arcs if s not in chosen) - sum(W[t] for t in reached)
        if best is None or value < best:
            best, meet = value, chosen
        elif value == best:
            meet &= chosen
    return best, meet


def proof_nodes(base: Family, proof) -> Iterator[tuple[frozenset, frozenset, int]]:
    """The nodes of a separation proof in preorder, as (ones, zeros, entry):
    the sets fixed to 1 and to 0 at the node and the entry it adds, the
    branch set or LEAF (-1).  A branch set's left child fixes it and its
    closure under unions with base | ones to 1, unless that meets zeros."""
    base_set = frozenset(base.members)
    entries = iter(proof)

    def walk(ones, zeros):
        entry = next(entries)
        yield ones, zeros, entry
        if entry != -1:
            grown = ones | {entry | x for x in base_set | ones}
            if grown.isdisjoint(zeros):
                yield from walk(grown, zeros)
            yield from walk(ones, zeros | {entry})

    return walk(frozenset(), frozenset())


def separation_candidates(base: Family, domain: Family, W, ones, zeros) -> dict:
    """The candidates of a separation node by the set rule, the reference
    for the bitset filter of `sepip.solve_separation`: in the search's order
    (weight descending, then mask), each free positive set S none of whose
    forced sets {S | X : X in base or ones} is fixed to 0, mapped to its
    arcs, the negative sets outside ones that it forces, ascending."""
    fixed = set(base.members) | set(ones)
    out = {}
    for s in sorted((s for s in domain.members if W[s] > 0), key=lambda s: (-W[s], s)):
        if s not in ones and s not in zeros:
            forced = {s | x for x in fixed}
            if forced.isdisjoint(zeros):
                out[s] = sorted(t for t in forced if W[t] < 0 and t not in ones)
    return out


def fraction_check_farkas(lp: LinearProgram, cert: FarkasCertificate) -> bool:
    """Replay of a Farkas certificate in `Fraction` arithmetic, row by row:
    the reference for `ratlp.check_farkas`."""
    if len(cert.ge_multipliers) != len(lp.ge_rows):
        return False
    if len(cert.eq_multipliers) != len(lp.eq_rows):
        return False
    if any(y < 0 for y in cert.ge_multipliers):
        return False
    agg = [Fraction(0)] * lp.num_vars
    rhs = Fraction(0)
    for y, (coeffs, b) in zip(cert.ge_multipliers, lp.ge_rows):
        for j, c in enumerate(coeffs):
            agg[j] += y * c
        rhs += y * b
    for lam, (coeffs, b) in zip(cert.eq_multipliers, lp.eq_rows):
        for j, c in enumerate(coeffs):
            agg[j] += lam * c
        rhs += lam * b
    return all(a <= 0 for a in agg) and rhs > 0
