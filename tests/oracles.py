"""Brute-force reference oracles, independent of the library's solve paths.

Every derived expected value in the tests comes from one of these: they
enumerate, never search, and share nothing with the production algorithms
beyond the Family container and exact arithmetic.  The class
enumerations are the exception: `uc_reps_with_full_universe`,
`noniso_levels` and `full_candidates` deduplicate by
`canon.canonical_form`, and the last two augment with
`enumfam._new_sets`; the tests check the first two against brute-force
counts, and `full_candidates` is the unfiltered reference for
`EnumSession.candidates`.  Two references keep a replaced kernel's old
form: `unpacked_canonical_form`, the canonical search with one bound per
member (it shares the twin classes and the distinct bound of `canon`), and
`fraction_nonfc_certificate`, the Non-FC normalization in `Fraction`
arithmetic (it lists images with `canon.family_orbit`).  Two replays keep
their old form as the reference of the exact checks: `fraction_check_point`,
the LP point check in `Fraction` arithmetic, and
`set_check_separation_proof`, the proof replay on frozensets (it shares
the leaf's flow kernel and its checks with `verify`).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from fcfam.setfam import Family, compact_universe, union_closure, universe
from fcfam.ratlp import Feasible, Infeasible, LinearProgram, LPResult, lp_solve


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


def unpacked_canonical_form(family: Family) -> Family:
    """`canon.canonical_form` with each member's optimistic bound kept in its
    own list entry and updated, member by member, for the members that hold
    the element just placed.  The same search with the same twins, element
    order and bounds (it shares `twin_classes` and `_distinct_bound`), so
    it checks the packed bookkeeping on universes too large for
    `brute_min_canonical`."""
    from fcfam.canon import _distinct_bound, twin_classes
    from fcfam.setfam import frequencies

    fam, _ = compact_universe(family)
    u = fam.n
    members = fam.members
    if not members or members == (0,):
        return fam

    twin = twin_classes(members, u)
    nm = len(members)
    degree = frequencies(fam).counts
    elem_order = sorted(range(u), key=lambda e: (degree[e], e))
    inc = [[j for j in range(nm) if members[j] >> e & 1] for e in range(u)]

    # incumbent from the identity relabeling
    best = list(members)

    # remaining[j] = unplaced elements of member j; opt[j] = its placed bits
    # (high labels) plus those elements on the lowest free labels
    remaining = [m.bit_count() for m in members]
    opt = [(1 << r) - 1 for r in remaining]
    used = [False] * u

    def rec(label: int) -> None:
        nonlocal best
        if label == 0:
            # the bound is exact at a leaf, and it passed the test against best
            best = sorted(opt)
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

    rec(u)
    return Family.from_masks(u, best)


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
        # every row doubled, so |B|/2 is an integer
        lp = LinearProgram(n, [([2] * n, 2)])
        for freq, size in active:
            lp.add_ge([2 * f for f in freq], size)
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
        reps.setdefault(canonical_form(fam), fam)
    return [reps[c] for c in sorted(reps, key=lambda c: c.members)]


def noniso_levels(n: int, k: int, m_max: int) -> Iterator[list[Family]]:
    """Yield representatives of families of m distinct k-sets over ground
    sets of at most n elements (universes compacted to [u]), m = 1..m_max,
    by incremental augmentation: each (m-1)-set representative over [u] is
    extended by every k-set that takes j fresh elements (canonically
    u+1..u+j) and k-j old ones, then deduplicated by canonical form, so
    every representative is its own canonical form."""
    from fcfam.canon import canonical_form
    from fcfam.enumfam import _new_sets

    if k > n or m_max < 1:
        return
    level = [Family.from_masks(k, [(1 << k) - 1])]
    yield level
    for _ in range(2, m_max + 1):
        classes: set[Family] = set()
        for fam in level:
            for j in range(0, min(k, n - fam.n) + 1):
                for new in _new_sets(fam, k, j):
                    classes.add(canonical_form(Family.from_masks(fam.n + j, fam.members + (new,))))
        level = sorted(classes, key=lambda f: (f.n, f.members))
        yield level


def full_candidates(session, n: int, k: int, m: int) -> tuple[list[Family], set[Family]]:
    """`EnumSession.candidates` of the (n, k, m) cell by full extension: every
    extension of every parent in the session's cells one member down is
    canonicalized, with no invariant filter, and the known-FC test drops
    every member of an extension, its new set too.  The reference for the
    filtered path, whose lists are subsets of these and miss only FC
    classes."""
    from fcfam.canon import canonical_form
    from fcfam.enumfam import _has_subfamily_in, _new_sets

    if k * m < n or m > math.comb(n, k):
        return [], set()
    if m == 1:
        return [Family.from_masks(k, [(1 << k) - 1])], set()
    prev = {i: session.get_nfc(i, k, m - 1) for i in range(max(k, n - k), n + 1)}
    prev_fc = {i: reg.fc for i, reg in prev.items()}
    candidates: dict[Family, None] = {}
    known_fc: set[Family] = set()
    for parent in (p for reg in prev.values() for p in reg.nfc):
        for new in _new_sets(parent, k, n - parent.n):
            ext = Family.from_masks(n, parent.members + (new,))
            canon = canonical_form(ext)
            if canon in known_fc or canon in candidates:
                continue
            if _has_subfamily_in(ext, ext.members, prev_fc):
                known_fc.add(canon)
            else:
                candidates[canon] = None
    return sorted(candidates, key=lambda f: f.members), known_fc


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


def avoiding_cut(family: Family, domain: Family, x: int) -> Family:
    """The classical family <A> |+| {d in D : d & x = 0} for a mask x."""
    closure = brute_union_closure(family).members
    avoid = [d for d in domain.members if not d & x]
    return Family.from_masks(family.n, (a | d for a in closure for d in avoid))


def warm_start_cuts(family: Family, domain: Family) -> list[Family]:
    """The warm-start families avoiding_cut(family, domain, {i}) for i = 1..n,
    in that order, each kept at its first appearance."""
    out: list[Family] = []
    for i in range(family.n):
        cut = avoiding_cut(family, domain, 1 << i)
        if cut not in out:
            out.append(cut)
    return out


def barycenter_ruled_out(family: Family, domain: Family) -> bool:
    """Whether the barycenter (1/n, ..., 1/n) violates a classical cut
    avoiding_cut(family, domain, x) with |x| = 1 or 2, a B_i or a B_ij."""
    n = family.n
    centre = [Fraction(1, n)] * n
    return any(family_value(avoiding_cut(family, domain, x), centre) > 0
               for x in range(1, 1 << n) if x.bit_count() <= 2)


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


def fraction_check_farkas(lp: LinearProgram, cert: Infeasible) -> bool:
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


def fraction_check_point(lp: LinearProgram, point) -> bool:
    """Exact feasibility of a point in `Fraction` arithmetic, row by row:
    the reference for `ratlp.check_point`."""
    if len(point) != lp.num_vars:
        return False
    if any(x < 0 for x in point):
        return False
    for coeffs, rhs in lp.eq_rows:
        if sum(c * x for c, x in zip(coeffs, point)) != rhs:
            return False
    for coeffs, rhs in lp.ge_rows:
        if sum(c * x for c, x in zip(coeffs, point)) < rhs:
            return False
    return True


def set_check_separation_proof(base: Family, domain: Family, weights, proof):
    """`verify.check_separation_proof` on frozensets of masks, its
    reference: the same preorder walk, candidates, arcs, bound, flow kernel
    (`sepip._max_flow`) and flow checks (`verify._flow_value`), and the same
    failure messages, with every leaf's forcing sets built as
    {S | X : X in base or ones}."""
    from fcfam.sepip import LEAF, _max_flow
    from fcfam.verify import _flow_value, _ProofError

    lcm = math.lcm(*(w.denominator for w in weights))
    scaled = [int(w * lcm) for w in weights]
    W = [0] * (1 << domain.n)
    for s in domain.members:
        W[s] = lcm - 2 * sum(c for i, c in enumerate(scaled) if s >> i & 1)
    dom_set = frozenset(domain.members)
    base_set = frozenset(base.members)
    positives = [s for s in domain.members if W[s] > 0]
    entries = iter(proof)

    def leaf(ones, val, zeros):
        fixed = base_set | ones
        cands = {}
        for s in positives:
            if s not in ones and s not in zeros:
                forced = {s | x for x in fixed}
                if forced.isdisjoint(zeros):
                    cands[s] = [t for t in forced if W[t] < 0 and t not in ones]
        bound = val + sum(W[s] for s in cands)
        bound -= _flow_value(cands, W, _max_flow(cands, W, bound)[1])
        if bound > 0:
            raise _ProofError(f"a leaf bounds the value only by {bound}/{lcm} > 0")

    def replay(ones, val, zeros):
        entry = next(entries, None)
        if entry is None:
            raise _ProofError("the proof ends before the tree does")
        if type(entry) is not int:
            raise _ProofError(f"proof entry {entry!r} is not an int")
        if entry == LEAF:
            leaf(ones, val, zeros)
            return
        if entry not in dom_set or entry in ones or entry in zeros:
            raise _ProofError(f"branch set {entry} is outside the domain or already fixed")
        grown = ones | {entry | x for x in base_set | ones}
        if grown.isdisjoint(zeros):
            replay(grown, val + sum(W[s] for s in grown - ones), zeros)
        replay(ones, val, zeros | {entry})

    try:
        replay(frozenset(), 0, frozenset())
        if next(entries, None) is not None:
            raise _ProofError("the proof has entries left over after the tree")
    except _ProofError as exc:
        return str(exc)
    return None


def fraction_nonfc_certificate(n: int, cuts: list[int], gens, farkas: Infeasible):
    """`fcsolve._build_nonfc` in `Fraction` arithmetic, its reference: the
    cuts, multipliers and lambda of a Non-FC certificate.  Each stored cut
    (a bitset of sets) spreads its LP multiplier uniformly over its orbit of
    images under gens, and every multiplier is divided by the aggregated
    right side so that it becomes exactly 1."""
    from fcfam.canon import family_orbit

    lam = farkas.eq_multipliers[0]
    cut_mult = []
    for cut, y in zip(cuts, farkas.ge_multipliers):
        fam = Family(n, tuple(s for s in range(cut.bit_length()) if cut >> s & 1))
        images = family_orbit(fam, gens) if gens else [fam]
        cut_mult.extend((img, Fraction(y) / len(images)) for img in images)
    rhs = sum(y * Fraction(len(c.members), 2) for c, y in cut_mult) + lam
    cut_mult = sorted(((c, y / rhs) for c, y in cut_mult), key=lambda pair: pair[0].members)
    return [c for c, _ in cut_mult], tuple(y for _, y in cut_mult), lam / rhs


def same_result(res: LPResult, ref: LPResult) -> bool:
    """Whether an `lp_solve` result is the reference's: the same point, or
    Farkas multipliers that are the reference's times one positive factor,
    since a positive multiple of a Farkas certificate is one too."""
    if isinstance(res, Feasible) or isinstance(ref, Feasible):
        return res == ref
    if (len(res.ge_multipliers), len(res.eq_multipliers)) != (len(ref.ge_multipliers),
                                                            len(ref.eq_multipliers)):
        return False
    mults = res.ge_multipliers + res.eq_multipliers
    ref_mults = ref.ge_multipliers + ref.eq_multipliers
    k = next((Fraction(y) / r for y, r in zip(mults, ref_mults) if r), None)
    return k is not None and k > 0 and all(y == k * r for y, r in zip(mults, ref_mults))


def fraction_phase_one(lp: LinearProgram) -> LPResult:
    """Phase one of the simplex method in `Fraction` arithmetic, the
    reference for the pivots of `ratlp.lp_solve`: rows with a negative right
    side negated, one artificial per row costing 1, Bland's rule (the lowest
    column with a negative reduced cost enters; the least ratio leaves, ties
    to the lowest basic column), and the textbook pivot that divides the
    pivot row by its pivot.  Infeasible when the artificials cannot all
    leave: the multiplier of row r is sigma_r times 1 minus the reduced cost
    of its artificial, a `Fraction`; compare it with `same_result`."""
    n, m = lp.num_vars, len(lp.eq_rows) + len(lp.ge_rows)
    ncols = n + len(lp.ge_rows)
    rows_in = [(c, b, None) for c, b in lp.eq_rows]
    rows_in += [(c, b, i) for i, (c, b) in enumerate(lp.ge_rows)]
    sigma = [-1 if b < 0 else 1 for _, b, _ in rows_in]
    tab = []
    for r, (coeffs, b, ge) in enumerate(rows_in):
        row = [Fraction(sigma[r] * c) for c in coeffs] + [Fraction(0)] * (ncols - n + m)
        if ge is not None:
            row[n + ge] = Fraction(-sigma[r])
        row[ncols + r] = Fraction(1)
        tab.append(row + [Fraction(sigma[r] * b)])
    # reduced costs c_j - sum_r row_r[j] of the artificial basis, then minus
    # the objective value
    cost = [0] * ncols + [1] * m + [0]
    obj = [c - sum(row[j] for row in tab) for j, c in enumerate(cost)]
    basis = list(range(ncols, ncols + m))
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            break
        ratios = [(row[-1] / row[enter], basis[r], r) for r, row in enumerate(tab) if row[enter] > 0]
        _, _, leave = min(ratios)
        piv = tab[leave][enter]
        tab[leave] = [a / piv for a in tab[leave]]
        for other in [*tab[:leave], *tab[leave + 1:], obj]:
            f = other[enter]
            other[:] = [a - f * b for a, b in zip(other, tab[leave])]
        basis[leave] = enter
    if obj[-1] < 0:
        ge_mult = [Fraction(0)] * len(lp.ge_rows)
        eq_mult = [Fraction(0)] * len(lp.eq_rows)
        for r, (_, _, ge) in enumerate(rows_in):
            y = sigma[r] * (1 - obj[ncols + r])
            if ge is None:
                eq_mult[r] = y
            else:
                ge_mult[ge] = y
        return Infeasible(tuple(ge_mult), tuple(eq_mult))
    point = [Fraction(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            point[b] = tab[r][-1]
    return Feasible(tuple(point))
