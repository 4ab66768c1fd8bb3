"""Separation oracle for the weight polyhedron of a union-closed family.

Given a union-closed base family A (with the empty set, universe [n]) and a
weight vector c, find a union-closed family B inside the variable domain D
with A |+| B = B and positive value  |B| - 2 * sum_i c_i |B_i|,  or prove
that none exists.  Feasible B are exactly the 0/1 points of

    x_S + x_T <= 1 + x_{S u T}   for S, T in D
    x_S <= x_{A u S}             for A in base, S in D

and the objective weight of S is w_S = 1 - 2 * sum_{i in S} c_i.

`build_separation` validates a base and a domain once and returns the
weight-free `SeparationProblem`, which also holds the domain as a bitset
(below); a domain of all 2^n sets is P([n]) and skips the union-closure
check.  `solve_separation` takes one round's weights and answers with
either a violated family (`optimum > 0`, its value, and `witness`) or
`optimum == 0` and a `proof`: the search tree in preorder, which is what an
FC certificate carries and `verify` replays without searching.  Each
branching node adds its branch set S (the left child fixes S and its
closure to 1, the right child fixes S to 0; a left child whose closure
meets a 0-fixed set is infeasible and has no entries) and each pruned node
adds `LEAF`.  Each node thus adds one entry before its children are
entered, but for one that finds a violated family, which ends the search:
the node count `nodes` is the proof's length, plus that one node.

The solve is exact branch and bound on integer-scaled weights.  A node with
1-fixed sets O and 0-fixed sets Z filters and bounds exactly the way
`verify` replays a leaf: a free positive S is a candidate iff no set in
{S u X : X in base or O} is fixed to 0 (base u O is union-closed, so
forcing is transitive and one pass suffices).  Each candidate S keeps only
its arcs, the negative sets T not in O that it forces, in ascending order.
The bound is the maximum-weight closure of the forcing
relation (an integral relaxation of the LP; pairwise unions of distinct
free sets are not modeled, which only relaxes): the value of O plus the
candidates' weight W(cands) minus a maximum flow on the bipartite forcing
graph, source -> candidate S (capacity W[S]) -> each arc T of S -> sink
(capacity -W[T]).  Any feasible flow f already bounds it by
val(O) + W(cands) - f, so a node is pruned as soon as its flow (`_max_flow`)
reaches val(O) + W(cands).  The root's and each left child's flow starts
from nothing: it is empty when val(O) + W(cands) <= 0, and otherwise starts
greedily, each candidate pushing its weight straight into its arcs.  A
right child resumes its parent's maximum flow in place, less what the
candidates it drops send (their sinks get that room back), which is a
feasible flow on its graph, as source capacities only fall (Gallo,
Grigoriadis & Tarjan 1989).  Either flow then augments along shortest paths
and stops at that value.  A flow that stops short of it is a maximum flow.

The graph has no candidate-to-candidate arcs: by transitivity a candidate
already has an arc into every negative set a chain of candidates it forces
would reach.  The candidates the source still reaches after the maximum
flow are the minimal minimum cut's, the same for every maximum flow
(Picard & Queyranne 1980), and are closed under forcing: if a reached S
forces a candidate T, T's arcs are among S's, so T is either unsaturated
and reached from the source or sends flow into an arc of S and is reached
backward from S.  They are thus the minimal minimum cut with
candidate-to-candidate arcs too, and the relaxed pick is the reached
candidates and their arcs (every candidate forces itself, as the base holds
the empty set); closing the arcs adds nothing to closing the candidates.
Neither the shortcuts, the stop nor the start change the proof: a node is
pruned exactly when its maximum flow reaches the bound, and the pick, and
with it the witness and the branch set, do not depend on the maximum flow
found.
The relaxed solution either closes into a feasible family or yields the
branching set.  `verify` builds its own arcs and calls the same `_max_flow`,
whose flow it checks.

The branch set is a reached candidate whose unions with the relaxed pick
escape it into negative sets, its escape; fixing it either way tightens
that gap.  At every node it is the candidate whose escape weighs the most,
-W(escape), the first on ties (Achterberg, Koch & Martin, "Branching rules
revisited", 2005), and the scan stops at the first candidate whose escape
weighs at least the node's gap, the bound minus the maximum flow.  With no
escape, the branch set is the first reached candidate.  The rule holds on
the search's first dive (no set fixed to 0) too, since `is_fc` and every
driver decide warm, and from the warm cuts it makes fewer nodes and smaller
proofs.  `verify` replays whatever branch sets a proof holds.

The node state is held in bitsets, 2^n-bit ints in which bit x stands for
the set x: O, Z, the base B and the negative sets NEG are one int each.
With M[i] the bitset of the masks that contain element i, the family
shift(F, s) = {x | s : x in F} takes one step per element i of s, which
keeps F & M[i] and moves F & ~M[i] up by 2^i (`_shift`).  A candidate S
forces F = shift(B | O, S); the filter is F & Z == 0, the arcs are the bits of
F & NEG & ~O, closing S into O is O | F, and a picked S escapes the relaxed
pick C into a negative set iff shift(C, S) & NEG & ~C is nonzero.  A right
child has its parent's O (and so the same forcing sets and arcs) and its
Z plus the branch set, so its candidates are its parent's, in the same
order, but for those whose forcing set holds the branch set: it inherits
them, and its parent's flow, instead of filtering again.  A left child
grows O and keeps Z, so each set's forcing set only grows and a set that
was no candidate at the parent is none there: it filters only its
parent's candidates, which are in the root's order.  Every node is thus
entered one way, with its candidates, their arcs and forcing sets, and a
flow: the root and a left child build theirs from a scan and start from
the empty flow, a right child passes what it inherits.  The order of the
arcs moves neither the proof nor any counter: the candidates, the bound,
whether the flow reaches it and the pick do not depend on it.

`weigher` is the producer's one value formula: the weight of a bitset F
takes n+1 popcounts, W(F) = L|F| - 2 sum_i L c_i |F & M[i]| with L the lcm
of the weights' denominators.  `_integer_weights` checks a round's weights
and reads each domain set's W[S] off it as the weight of {S}; the scale L
that a result's value divides by is the weight of {empty set}.  Of the
producer's modules, this is the only one that knows this form: `is_fc`
builds its classical cuts B_X = <A> |+| D_X with `classical_cut`, counts
each cut's LP row |B & M[i]| with `element_counts` and weighs its pool of
classical cuts with `weigher`.  `verify` scales the weights with its own
formula.

`brute_separation` is the independent oracle: exhaustive enumeration over
all subfamilies of D, returning the maximum.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .setfam import DECISION_GROUND_CAP, Family, bits, is_union_closed, universe

BRUTE_DOMAIN_CAP = 16
LEAF = -1  # proof entry of a pruned node


@dataclass(frozen=True)
class SeparationResult:
    optimum: Fraction
    witness: Family
    proof: Optional[tuple[int, ...]] = None  # preorder search tree, if no violation
    # search work: nodes visited, and the pruned ones among them
    nodes: int = 0
    pruned: int = 0


@dataclass(frozen=True)
class SeparationProblem:
    """A weight-free separation instance, as `build_separation` validates it."""

    base: Family
    domain: Family
    domain_bits: int  # bit x for each domain set x


def _integer_weights(weights: Sequence, domain: Family) -> tuple[Callable[[int], int], list[int]]:
    """Check one round's weights and scale them to integers: `weigher`'s
    weigh, and by mask W[S] = weigh({S}) for each domain set S (0
    elsewhere)."""
    w = tuple(Fraction(x) for x in weights)
    if len(w) != domain.n:
        raise ValueError(f"expected {domain.n} weights, got {len(w)}")
    if any(x < 0 for x in w):
        raise ValueError("weights must be nonnegative")
    if sum(w) != 1:
        raise ValueError("weights must sum to 1")
    weigh = weigher(w)
    W = [0] * (1 << domain.n)
    for s in domain.members:
        W[s] = weigh(1 << s)
    return weigh, W


def build_separation(base: Family, domain: Family) -> SeparationProblem:
    """Validate a base and a domain."""
    n = base.n
    if n > DECISION_GROUND_CAP:
        raise ValueError(f"ground size {n} exceeds cap {DECISION_GROUND_CAP}")
    if 0 not in base.members:
        raise ValueError("base family must contain the empty set")
    if universe(base) != (1 << n) - 1:
        raise ValueError("base family universe must be all of [n]")
    if not is_union_closed(base):
        raise ValueError("base family must be union-closed")
    if domain.n != n:
        raise ValueError("domain ground size mismatch")
    if 0 not in domain.members:
        raise ValueError("domain must contain the empty set")
    # a domain of all 2^n sets is P([n]), which is union-closed: checking it
    # would take |D|^2 unions on every full-domain decision
    if len(domain.members) < 1 << n and not is_union_closed(domain):
        raise ValueError("domain is not union-closed")
    # with the empty set in a union-closed D, closure under union with the
    # base is the same as containing the base
    if not set(base.members) <= set(domain.members):
        raise ValueError("domain is not closed under union with base members")
    return SeparationProblem(base, domain, sum(1 << s for s in domain.members))


class _Found(Exception):
    """Raised with (scaled value, bitset) of the first violated family."""


@functools.lru_cache(maxsize=None)
def _shift_steps(n: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """For each mask s of [n], the steps of `_shift(F, s)` on 2^n-bit
    bitsets: one per element i of s, as (M[i], the complement of M[i], 2^i),
    where M[i] holds the masks that contain i."""
    size = 1 << n
    full = (1 << size) - 1
    M = [sum(1 << x for x in range(size) if x >> i & 1) for i in range(n)]
    return tuple(tuple((M[i], full ^ M[i], 1 << i) for i in range(n) if s >> i & 1)
                 for s in range(size))


def _shift(F: int, steps: tuple[tuple[int, int, int], ...]) -> int:
    """{x | s : x in F} for a bitset F, given the steps of s: each element i
    of s keeps the sets that hold i and moves every other set x to x + 2^i."""
    for keep, move, by in steps:
        F = (F & keep) | (F & move) << by
    return F


def weigher(weights: Sequence) -> Callable[[int], int]:
    """weigh(F), the total weight W(F) of a bitset F of domain sets under the
    exact weights c, by n+1 popcounts instead of listing F:
    W(F) = L*|F| - 2 * sum_i L*c_i * |F & M[i]|, for the lcm L of the
    weights' denominators, so that weigh(1), the weight of {empty set}, is L."""
    w = [Fraction(x) for x in weights]
    lcm = math.lcm(*(x.denominator for x in w))
    # the steps of the full mask hold every M[i], in element order
    every = _shift_steps(len(w))[-1]
    terms = [(2 * int(x * lcm), keep) for x, (keep, _, _) in zip(w, every) if x]

    def weigh(F: int) -> int:
        return lcm * F.bit_count() - sum(c * (F & keep).bit_count() for c, keep in terms)

    return weigh


def classical_cut(problem: SeparationProblem, generators: Family, x: int) -> int:
    """The classical cut B_X = <A> |+| D_X as a bitset, for the mask x and
    the generators A of the base <A>: D_X, the domain sets that avoid X,
    then B |= shift(B, a) for each generator a."""
    steps = _shift_steps(problem.base.n)
    cut = problem.domain_bits
    for _, avoids, _ in steps[x]:
        cut &= avoids
    for a in generators.members:
        cut |= _shift(cut, steps[a])
    return cut


def element_counts(n: int, F: int) -> list[int]:
    """|F & M[i]| for each element i of [n]: how many sets of the bitset F
    hold i."""
    return [(F & keep).bit_count() for keep, _, _ in _shift_steps(n)[-1]]


def solve_separation(
    problem: SeparationProblem,
    weights: Sequence,
    deadline: Optional[float] = None,
) -> SeparationResult:
    """A violated family (optimum > 0), or optimum 0 with its proof; the
    proof's length counts the nodes."""
    n = problem.base.n
    weigh, W = _integer_weights(weights, problem.domain)
    steps = _shift_steps(n)
    base = sum(1 << x for x in problem.base.members)
    neg = sum(1 << s for s in problem.domain.members if W[s] < 0)
    pos_order = sorted((s for s in problem.domain.members if W[s] > 0),
                       key=lambda s: (-W[s], s))

    # every mask's capacity, |W|: each fresh flow's room starts as a copy
    cap = list(map(abs, W))

    # every node entered has its entry before the next one is, so
    # len(proof) nodes came before the one being entered
    proof: list[int] = []

    def close(ones: int, seeds) -> int:
        # ones is closed under unions with itself and the base, so base | ones
        # is union-closed and one step per seed keeps the family closed
        for s in seeds:
            if not ones >> s & 1:
                ones |= _shift(base | ones, steps[s])
        return ones

    def fresh(ones: int, zeros: int, scan) -> tuple[dict[int, list[int]], dict[int, int], _Flow]:
        # a free positive S in scan is a candidate iff no set it forces,
        # S | X for X in base | ones, is fixed to 0; forcing is transitive,
        # so one pass suffices.  The flow starts empty
        fixed, taken, free_neg = base | ones, ones | zeros, neg & ~ones
        cands: dict[int, list[int]] = {}  # candidate -> its arcs
        forcing: dict[int, int] = {}  # candidate -> the sets it forces
        for s in scan:
            if not taken >> s & 1:
                forced = _shift(fixed, steps[s])
                if not forced & zeros:
                    cands[s] = bits(forced & free_neg)
                    forcing[s] = forced
        return cands, forcing, _Flow(cap.copy())

    def node(ones: int, val: int, zeros: int, cands: dict[int, list[int]],
             forcing: dict[int, int], flow: _Flow) -> None:
        # the clock is read at the 64th, 128th, ... node
        if deadline is not None and len(proof) % 64 == 63 and time.monotonic() > deadline:
            raise TimeoutError("separation deadline exceeded")
        if val > 0:
            raise _Found(val, ones)

        bound = val + sum(W[s] for s in cands)
        value, _, reached = _max_flow(cands, W, bound, flow)
        gap = bound - value
        if gap <= 0:
            proof.append(LEAF)
            return
        # try to close the relaxed pick, the reached candidates (closed under
        # forcing) and their arcs, into a feasible family
        wit = close(ones, reached)
        if not wit & zeros:
            wval = val + weigh(wit & ~ones)
            if wval > 0:
                raise _Found(wval, wit)
        # branch on a picked set whose pairwise unions escape the relaxed
        # pick into uncounted negative-weight territory; fixing it either
        # way tightens exactly that gap.  Take the heaviest escape, which
        # shrinks the proof, and stop the scan at one that outweighs the
        # node's gap
        free_neg = neg & ~ones
        chosen = ones
        for s in reached:
            chosen |= 1 << s | forcing[s] & free_neg
        branch, heaviest = None, 0
        for s in cands:
            if s not in reached:
                continue
            if branch is None:
                branch = s
            escape = _shift(chosen, steps[s]) & neg & ~chosen
            if escape:
                weight = -weigh(escape)
                if weight > heaviest:
                    branch, heaviest = s, weight
                    if weight >= gap:
                        break
        proof.append(branch)
        grown = ones | forcing[branch]
        if not grown & zeros:
            # its candidates are among these, in the same order
            node(grown, val + weigh(grown & ~ones), zeros, *fresh(grown, zeros, cands))
        # the right child keeps ones and adds branch to zeros: its candidates
        # are these, with these arcs, but for those that force branch, and
        # this maximum flow without theirs is a flow there
        bit = 1 << branch
        kept = {}
        for s, arcs in cands.items():
            if forcing[s] & bit:
                flow.drop(s, arcs)
            else:
                kept[s] = arcs
        node(ones, val, zeros | bit, kept, forcing, flow)

    try:
        node(0, 0, 0, *fresh(0, 0, pos_order))
    except _Found as found:
        value, wit = found.args
        # weigh(1), the weight of {empty set}, is the scale L of W; the node
        # that found it has no proof entry
        return SeparationResult(Fraction(value, weigh(1)), Family.from_masks(n, bits(wit)),
                                nodes=len(proof) + 1, pruned=proof.count(LEAF))
    return SeparationResult(Fraction(0), Family.from_masks(n, ()), tuple(proof),
                            nodes=len(proof), pruned=proof.count(LEAF))


class _Flow:
    """A feasible flow on a bipartite forcing graph, held so that a search
    node's right child can resume it: its value, by mask the capacity left
    on the source arc of each candidate it still holds and on each negative
    set's sink arc, the flow on each arc (only positive entries) and, once
    the augmenting rounds of `_max_flow` need them, each negative set's
    senders, the candidates sending into it."""

    __slots__ = ("value", "room", "flow", "senders")

    def __init__(self, room: list[int]):
        # the empty flow, with room[x] = |W[x]|
        self.value = 0
        self.room = room
        self.flow: dict[tuple[int, int], int] = {}
        self.senders: Optional[dict[int, set[int]]] = None

    def drop(self, s: int, arcs: list[int]) -> None:
        """Remove the candidate s, whose arcs are `arcs`, with what it sends,
        giving each of its arcs' sinks that room back; no node reads the
        room of s again."""
        flow, room, senders = self.flow, self.room, self.senders
        for t in arcs:
            f = flow.pop((s, t), 0)
            if f:
                room[t] += f
                self.value -= f
                senders[t].discard(s)


def _max_flow(
    cands: dict[int, list[int]], W: list[int], need: int, start: Optional[_Flow] = None
) -> tuple[int, dict[tuple[int, int], int], set[int]]:
    """A flow on the bipartite forcing graph that stops once its value
    reaches `need`, else a maximum flow.

    The source feeds each candidate S up to W[S], S sends without limit into
    each of its arcs `cands[S]`, and each arc T drains up to -W[T] into the
    sink.  `start` is a feasible flow on this graph, which the call augments
    in place; by default it is the empty flow.  An empty start is filled
    greedily: each candidate in turn pushes what it has straight into its
    arcs, up to what each one's sink arc has left.  Any other start, such
    as a right child's, which resumes its parent's maximum flow less what
    the dropped candidates sent, goes straight to the rounds.  The senders
    are built only when the rounds need them.  Each round augments along a
    shortest alternating path, found by breadth-first search: source -> S ->
    T <- S' -> T' ... -> sink, where a backward step T <- S' cancels flow
    that S' sends into T.

    Returns the value, the flow on each arc (only positive entries) and,
    for a maximum flow below `need`, the candidates the source still
    reaches: the minimal minimum cut's, the same for every maximum flow and
    so for every start.  A flow that reaches `need` (the empty flow if
    `need <= 0` and the start is empty) comes with no candidates.
    """
    state = start if start is not None else _Flow(list(map(abs, W)))
    room, flow, senders = state.room, state.flow, state.senders
    value = state.value
    if not flow:
        for s, arcs in cands.items():
            if value >= need:
                break
            left = room[s]
            for t in arcs:
                sink = room[t]
                if sink:
                    push = sink if sink < left else left
                    room[t] = sink - push
                    flow[s, t] = push
                    value += push
                    left -= push
                    if not left:
                        break
            room[s] = left
        senders = state.senders = None
    if senders is None and value < need:
        # the senders, built only for the rounds
        senders = state.senders = {}
        for s, t in flow:
            if t in senders:
                senders[t].add(s)
            else:
                senders[t] = {s}
    while value < need:
        queue = [s for s in cands if room[s]]
        back = dict.fromkeys(queue)  # candidate -> the set it was reached from
        via: dict[int, int] = {}  # negative set -> the candidate it was reached from
        end = None
        for s in queue:
            for t in cands[s]:
                if t in via:
                    continue
                via[t] = s
                if room[t]:
                    end = t
                    break
                for u in senders[t]:
                    if u not in back:
                        back[u] = t
                        queue.append(u)
            if end is not None:
                break
        else:
            state.value = value
            return value, flow, set(back)
        push, t = room[end], end
        while (prev := back[via[t]]) is not None:
            push = min(push, flow[via[t], prev])
            t = prev
        push = min(push, room[via[t]])
        room[end] -= push
        value += push
        t = end
        while True:
            s = via[t]
            flow[s, t] = flow.get((s, t), 0) + push
            senders.setdefault(t, set()).add(s)
            prev = back[s]
            if prev is None:
                room[s] -= push
                break
            flow[s, prev] -= push
            if not flow[s, prev]:
                del flow[s, prev]
                senders[prev].discard(s)
            t = prev
    state.value = value
    return value, flow, set()


def brute_separation(base: Family, weights: Sequence, domain: Family) -> SeparationResult:
    """Exhaustive oracle over all subfamilies of the domain (|D| <= 16)."""
    build_separation(base, domain)
    weigh, W = _integer_weights(weights, domain)
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
    # weigh(1), the weight of {empty set}, is the scale L of W
    return SeparationResult(Fraction(best, weigh(1)), Family.from_masks(base.n, masks))
