"""Separation oracle for the weight polyhedron of a union-closed family.

Given a union-closed base family A (with the empty set, universe [n]) and a
weight vector c, find a union-closed family B inside the variable domain D
with A |+| B = B and positive value  |B| - 2 * sum_i c_i |B_i|,  or prove
that none exists.  Feasible B are exactly the 0/1 points of

    x_S + x_T <= 1 + x_{S u T}   for S, T in D
    x_S <= x_{A u S}             for A in base, S in D

and the objective weight of S is w_S = 1 - 2 * sum_{i in S} c_i.

`build_separation` validates a base and a domain once and returns the
weight-free `SeparationProblem`.  `solve_separation` takes one round's
weights and answers with either a violated family (`optimum > 0`, its value,
and `witness`) or `optimum == 0` and a `proof`: the search tree in preorder,
which is what an FC certificate carries and `verify` replays without
searching.  Each branching node adds its branch set S (the left child fixes
S and its closure to 1, the right child fixes S to 0; a left child whose
closure meets a 0-fixed set is infeasible and has no entries) and each
pruned node adds `LEAF`.

The solve is exact branch and bound on integer-scaled weights.  A node with
1-fixed sets O and 0-fixed sets Z filters and bounds exactly the way
`verify` replays a leaf: a free positive S is a candidate iff no set in
{S u X : X in base or O} is fixed to 0 (base u O is union-closed, so
forcing is transitive and one pass suffices).  The bound is the
maximum-weight closure of that forcing relation (an integral relaxation of
the LP), the value of O plus the candidates' weight W(cands) minus a
maximum flow from the candidates into the negative sets they force.  Any
feasible flow f already bounds it by val(O) + W(cands) - f, so a node is
tried against three bounds in turn, and the first that reaches 0 prunes it:

1. the trivial bound, f = 0;
2. a one-pass greedy flow, each candidate pushing its weight straight into
   the negative sets it forces (no flow graph is built);
3. the maximum flow, Dinic started from the greedy flow.

Neither shortcut changes the proof.  The greedy flow is at most the maximum,
so a node it prunes is a leaf under the maximum flow too.  The sets the
source reaches in the residual graph are the same for every maximum flow
(the minimal minimum cut, Picard & Queyranne 1980), so the relaxed pick, and
with it the witness and the branch set, do not depend on where Dinic
started.  The relaxed solution either closes into a feasible family or
yields the branching set.  `verify` keeps its own copy of the rule and its
graph and runs the max flow from zero; the two share only `_max_flow`, whose
output the checker checks.  `brute_separation` is the independent oracle:
exhaustive enumeration over all subfamilies of D, returning the maximum.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .setfam import DECISION_GROUND_CAP, Family, is_union_closed, universe
from .ratlp import frac

BRUTE_DOMAIN_CAP = 16
LEAF = -1  # proof entry of a pruned node


@dataclass(frozen=True)
class SeparationResult:
    optimum: Fraction
    witness: Family
    proof: Optional[tuple[int, ...]] = None  # preorder search tree, if no violation
    # search work: nodes visited, and the pruned ones by the bound that
    # pruned them (the candidates' weight, a greedy flow, the maximum flow)
    nodes: int = 0
    pruned_trivial: int = 0
    pruned_greedy: int = 0
    pruned_flow: int = 0


@dataclass(frozen=True)
class SeparationProblem:
    """A weight-free separation instance, as `build_separation` validates it."""

    base: Family
    domain: Family


def _integer_weights(weights: Sequence, domain: Family) -> tuple[int, list[int]]:
    """Check one round's weights and scale them to integers: the lcm L of
    their denominators and, by mask, W[S] = L - 2 * sum_{i in S} L*c_i for
    each domain set S (0 elsewhere)."""
    w = tuple(frac(x) for x in weights)
    if len(w) != domain.n:
        raise ValueError(f"expected {domain.n} weights, got {len(w)}")
    if any(x < 0 for x in w):
        raise ValueError("weights must be nonnegative")
    if sum(w) != 1:
        raise ValueError("weights must sum to 1")
    lcm = math.lcm(*(x.denominator for x in w))
    scaled = [int(x * lcm) for x in w]
    W = [0] * (1 << domain.n)
    for s in domain.members:
        W[s] = lcm - 2 * sum(c for i, c in enumerate(scaled) if s >> i & 1)
    return lcm, W


def _validate_base_domain(base: Family, domain: Family) -> None:
    n = base.n
    full = (1 << n) - 1
    if 0 not in base.members:
        raise ValueError("base family must contain the empty set")
    if universe(base) != full:
        raise ValueError("base family universe must be all of [n]")
    if not is_union_closed(base):
        raise ValueError("base family must be union-closed")
    if domain.n != n:
        raise ValueError("domain ground size mismatch")
    if 0 not in domain.members:
        raise ValueError("domain must contain the empty set")
    if not is_union_closed(domain):
        raise ValueError("domain is not union-closed")
    # with the empty set in a union-closed D, closure under union with the
    # base is the same as containing the base
    if not set(base.members) <= set(domain.members):
        raise ValueError("domain is not closed under union with base members")


def build_separation(base: Family, domain: Family) -> SeparationProblem:
    """Validate a base and a domain."""
    if base.n > DECISION_GROUND_CAP:
        raise ValueError(f"ground size {base.n} exceeds cap {DECISION_GROUND_CAP}")
    _validate_base_domain(base, domain)
    return SeparationProblem(base, domain)


class _Found(Exception):
    """Raised with (scaled value, member masks) of the first violated family."""


class SeparationTimeout(TimeoutError):
    """Cooperative deadline exceeded during a separation solve."""


def solve_separation(
    problem: SeparationProblem,
    weights: Sequence,
    deadline: Optional[float] = None,
) -> SeparationResult:
    """A violated family (optimum > 0), or optimum 0 with its proof."""
    n = problem.base.n
    lcm, W = _integer_weights(weights, problem.domain)
    base_set = frozenset(problem.base.members)
    pos_order = sorted((s for s in problem.domain.members if W[s] > 0),
                       key=lambda s: (-W[s], s))

    ticks = 0  # nodes visited
    proof: list[int] = []
    pruned = {"pruned_trivial": 0, "pruned_greedy": 0, "pruned_flow": 0}

    def leaf(reason: str) -> None:
        pruned[reason] += 1
        proof.append(LEAF)

    def tick() -> None:
        nonlocal ticks
        ticks += 1
        if deadline is not None and ticks % 64 == 0 and time.monotonic() > deadline:
            raise SeparationTimeout()

    def close(ones: frozenset[int], seeds) -> frozenset[int]:
        # ones is closed under unions with itself and the base, so base | ones
        # is union-closed and one step per seed keeps the family closed
        for s in seeds:
            if s not in ones:
                ones = ones | {s | x for x in base_set | ones}
        return ones

    def node(ones: frozenset[int], val: int, zeros: frozenset[int]) -> None:
        tick()
        if val > 0:
            raise _Found(val, ones)

        # a free positive S is a candidate iff no set it forces, S | X for X
        # in base | ones, is fixed to 0; forcing is transitive, so one pass
        fixed = base_set | ones
        cands: dict[int, set[int]] = {}  # candidate -> the sets it forces
        for s in pos_order:
            if s not in ones and s not in zeros:
                forced = {s | x for x in fixed}
                if forced.isdisjoint(zeros):
                    cands[s] = forced

        bound = val + sum(W[s] for s in cands)
        if bound <= 0:
            return leaf("pruned_trivial")
        greedy, pushes = _greedy_flow(cands, ones, W)
        if bound <= greedy:
            return leaf("pruned_greedy")
        flow, picked = _closure_relaxation(cands, ones, W, pushes)
        if bound <= flow:
            return leaf("pruned_flow")

        # try to close the relaxed pick into a feasible family
        wit = close(ones, picked)
        if wit.isdisjoint(zeros):
            wval = sum(W[s] for s in wit)
            if wval > 0:
                raise _Found(wval, wit)
        # branch on a picked set whose pairwise unions escape the relaxed
        # pick into uncounted negative-weight territory; fixing it either
        # way tightens exactly that gap
        chosen = picked | ones
        branch = None
        for s in cands:
            if s not in picked:
                continue
            if branch is None:
                branch = s
            if any(s | o not in chosen and W[s | o] < 0 for o in chosen):
                branch = s
                break
        proof.append(branch)
        grown = close(ones, [branch])
        if grown.isdisjoint(zeros):
            node(grown, val + sum(W[s] for s in grown - ones), zeros)
        node(ones, val, zeros | {branch})

    try:
        node(frozenset(), 0, frozenset())
    except _Found as found:
        value, masks = found.args
        return SeparationResult(Fraction(value, lcm), Family.from_masks(n, masks),
                                nodes=ticks, **pruned)
    return SeparationResult(Fraction(0), Family.from_masks(n, ()), tuple(proof),
                            nodes=ticks, **pruned)


def _greedy_flow(
    cands: dict[int, set[int]], ones: frozenset[int], W: list[int]
) -> tuple[int, dict[tuple[int, int], int]]:
    """A feasible flow on the forcing graph of `_closure_relaxation`, in one
    pass: each candidate in turn pushes its weight straight into the negative
    sets it forces, up to what each one's sink arc has left.

    Returns its value and its flow on each candidate-to-negative-set arc.
    Any feasible flow f bounds the relaxation by W(cands) - f, so a node this
    value prunes is pruned by the maximum flow too, and needs no graph.
    """
    room: dict[int, int] = {}  # negative set -> capacity left on its sink arc
    pushes: dict[tuple[int, int], int] = {}
    total = 0
    for s, forced in cands.items():
        left = W[s]
        for t in forced:
            if W[t] < 0 and t not in ones:
                push = min(left, room.setdefault(t, -W[t]))
                if push:
                    room[t] -= push
                    pushes[s, t] = push
                    left -= push
                    if not left:
                        break
        total += W[s] - left
    return total, pushes


def _closure_relaxation(
    cands: dict[int, set[int]],
    ones: frozenset[int],
    W: list[int],
    pushes: dict[tuple[int, int], int],
) -> tuple[int, set[int]]:
    """Maximum-weight closure of the forcing relation over the candidates.

    Returns the min-cut value F, so that the relaxation is worth W(cands) - F,
    and the sets on the source side of the cut.  It upper-bounds every
    feasible completion because a feasible family containing S must contain
    every set S forces on its own; pairwise unions among distinct free sets
    are not modeled here, which only relaxes.  The max flow starts from the
    feasible flow `pushes` (see `_greedy_flow`).
    """
    node = {s: i for i, s in enumerate(cands)}
    arcs: list[tuple[int, int, int]] = []
    start: list[int] = []
    inf = sum(W[s] for s in cands) + 1
    for s, forced in cands.items():
        for t in forced:
            if t != s and t not in ones and (t in cands or W[t] < 0):
                arcs.append((node[s], node.setdefault(t, len(node)), inf))
                start.append(pushes.get((s, t), 0))
    through = dict.fromkeys(node, 0)  # flow on each set's source or sink arc
    for (s, t), f in pushes.items():
        through[s] += f
        through[t] += f
    src, snk = len(node), len(node) + 1
    for s, i in node.items():
        arcs.append((src, i, W[s]) if W[s] > 0 else (i, snk, -W[s]))
        start.append(through[s])
    flow, reach, _ = _max_flow(len(node) + 2, src, snk, arcs, start)
    return flow, {s for s, i in node.items() if i in reach}


def _max_flow(
    nv: int,
    src: int,
    snk: int,
    arcs: list[tuple[int, int, int]],
    start: Optional[list[int]] = None,
):
    """Dinic max flow on integer capacities, from zero flow or from the
    feasible flow `start` (one value per arc, trusted to respect every
    capacity and conservation).

    Returns (flow, source side of a minimum cut, residual capacities); the
    flow on arc i is the residual capacity of its reverse edge, index 2i+1.
    The source side is the set reachable from `src` in the final residual
    graph, which is the same for every maximum flow (the minimal minimum
    cut), so it does not depend on `start`.

    The blocking-flow search walks an explicit path stack instead of
    recursing; paths here are short (the forcing graphs are almost
    tripartite).  Started from the greedy flow, building the residual graph
    costs more than the augmenting.
    """
    head: list[list[int]] = [[] for _ in range(nv)]
    to: list[int] = []
    cap: list[int] = []
    flow = 0  # the starting flow's net outflow from src
    for (a, b, c), f in zip(arcs, start or [0] * len(arcs)):
        head[a].append(len(to)); to.append(b); cap.append(c - f)
        head[b].append(len(to)); to.append(a); cap.append(f)
        if a == src:
            flow += f
        elif b == src:
            flow -= f
    while True:
        level = [-1] * nv
        level[src] = 0
        queue = [src]
        for u in queue:
            lvl = level[u] + 1
            for e in head[u]:
                v = to[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = lvl
                    queue.append(v)
        if level[snk] < 0:
            # no augmenting path is left; the vertices the source still
            # reaches are the source side of the minimal minimum cut
            return flow, set(queue), cap
        it = [0] * nv
        path: list[int] = []  # edge indices from src to the current vertex
        u = src
        while True:
            if u == snk:
                push = min(cap[e] for e in path)
                flow += push
                retreat = None
                for e in path:
                    cap[e] -= push
                    cap[e ^ 1] += push
                    if cap[e] == 0 and retreat is None:
                        retreat = e
                while path and path[-1] != retreat:
                    path.pop()
                path.pop()
                u = src if not path else to[path[-1]]
                continue
            edges = head[u]
            advanced = False
            while it[u] < len(edges):
                e = edges[it[u]]
                v = to[e]
                if cap[e] > 0 and level[v] == level[u] + 1:
                    path.append(e)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if advanced:
                continue
            if u == src:
                break
            level[u] = -1  # dead end for this phase; parents skip it
            path.pop()
            u = src if not path else to[path[-1]]


def brute_separation(base: Family, weights: Sequence, domain: Family) -> SeparationResult:
    """Exhaustive oracle over all subfamilies of the domain (|D| <= 16)."""
    _validate_base_domain(base, domain)
    lcm, W = _integer_weights(weights, domain)
    mem = domain.members
    nd = len(mem)
    if nd > BRUTE_DOMAIN_CAP:
        raise ValueError(f"domain of {nd} sets too large for brute enumeration")
    idx = {m: i for i, m in enumerate(mem)}
    wvals = [W[s] for s in mem]

    pair = [[idx[a | b] for b in mem] for a in mem]
    absorb_req = []
    for i, s in enumerate(mem):
        req = 0
        for a in base.members:
            req |= 1 << idx[s | a]
        absorb_req.append(req)

    size = 1 << nd
    uc = bytearray(size)
    uc[0] = 1
    req = [0] * size
    val = [0] * size
    best, best_f = 0, 0
    for f in range(1, size):
        low = f & -f
        i = low.bit_length() - 1
        rest = f ^ low
        val[f] = val[rest] + wvals[i]
        req[f] = req[rest] | absorb_req[i]
        if not uc[rest]:
            continue
        ok = True
        r = rest
        pi = pair[i]
        while r:
            lb = r & -r
            if not f >> pi[lb.bit_length() - 1] & 1:
                ok = False
                break
            r ^= lb
        if not ok:
            continue
        uc[f] = 1
        if req[f] & ~f == 0 and val[f] > best:
            best, best_f = val[f], f
    masks = [mem[i] for i in range(nd) if best_f >> i & 1]
    return SeparationResult(Fraction(best, lcm), Family.from_masks(base.n, masks))
