import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

import fcfam.sepip
from fcfam.fcsolve import frac_str
from fcfam.setfam import (
    Family,
    frequencies,
    is_union_closed,
    no_singletons_family,
    powerset_family,
    union_closure,
    uplus,
)
from fcfam.fcsolve import is_fc
from fcfam.sepip import (
    LEAF,
    _Flow,
    _max_flow,
    _shift,
    _shift_steps,
    brute_separation,
    build_separation,
    classical_cut,
    element_counts,
    solve_separation,
    weigher,
)
from fcfam.verify import check_separation_proof

from oracles import (
    avoiding_cut,
    brute_min_cut,
    family_value,
    proof_nodes,
    separation_candidates,
)
from test_fcsolve import covering_families, restricted_domains


def uniform(n):
    return [Fraction(1, n)] * n


def random_weights(rng, n, denom=12):
    cuts = sorted(rng.sample(range(1, denom), n - 1)) if n > 1 else []
    parts, prev = [], 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(denom - prev)
    return [Fraction(p, denom) for p in parts]


def random_instance(rng, n):
    gens = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 3))]
    gens.append((1 << n) - 1)
    base = union_closure(Family.from_masks(n, gens))
    if rng.random() < 0.7:
        dom = powerset_family(n)
    else:
        seeds = [rng.randrange(1 << n) for _ in range(4)]
        dm = set(union_closure(Family.from_masks(n, seeds)).members)
        dm |= {a | s for a in base.members for s in dm} | set(base.members)
        dom = Family(n, union_closure(Family.from_masks(n, dm)).members)
    return base, random_weights(rng, n), dom


def check_against_oracle(base, w, dom):
    """The solve finds a violated family iff the oracle's optimum is positive;
    the family is feasible and has the reported value, and otherwise the
    proof replays."""
    got = solve_separation(build_separation(base, dom), w)
    want = brute_separation(base, w, dom).optimum
    assert (got.optimum > 0) == (want > 0)
    if got.optimum > 0:
        wit = got.witness
        assert got.proof is None
        assert is_union_closed(wit)
        assert set(wit.members) <= set(dom.members)
        assert uplus(Family(base.n, base.members), wit) == wit
        assert family_value(wit, w) == got.optimum
    else:
        assert got.optimum == 0
        assert check_separation_proof(base, dom, w, got.proof) is None
    return got


def trajectory_instances():
    """200 seeded instances over [2]..[5], full and restricted domains, each at
    its random weights and at weights proportional to the base's element
    frequencies (near the boundary, so the search trees are not trivial)."""
    rng = random.Random(20241)
    for _ in range(200):
        n = rng.choice([2, 3, 4, 5])
        base, w, dom = random_instance(rng, n)
        counts = frequencies(base).counts
        yield base, w, dom
        yield base, [Fraction(c, sum(counts)) for c in counts], dom


def trajectory_digest():
    h = hashlib.sha256()
    for base, w, dom in trajectory_instances():
        res = solve_separation(build_separation(base, dom), w)
        h.update(f"{frac_str(res.optimum)}|{list(res.witness.members)}|{res.proof}\n".encode())
    return h.hexdigest()


# sha256 of every trajectory instance's optimum, witness and proof, as the
# search produces them branching on the heaviest escape at every node; a
# change that only skips work (a cheaper bound, a warm-started flow) must not
# move it.  A change meant to alter the search prints the new digest with
# PYTHONPATH=src python tests/test_sepip.py
TRAJECTORY_SHA256 = "463f7f2273c1708b19d44a2dc55af2d1e02dacaef98f68611337099782e18f15"


def test_search_trajectory_is_pinned():
    assert trajectory_digest() == TRAJECTORY_SHA256


def test_prunes_account_for_every_leaf():
    searched = 0
    totals = [0, 0]
    for base, w, dom in trajectory_instances():
        res = solve_separation(build_separation(base, dom), w)
        if res.proof is None:
            assert res.pruned < res.nodes
        else:
            assert res.pruned == res.proof.count(LEAF)
            assert res.nodes == len(res.proof)
        searched += res.nodes > 1
        for i, count in enumerate((res.nodes, res.pruned)):
            totals[i] += count
    assert searched > 20
    # nodes, and pruned nodes; like the digest, these move only with a
    # change to the search itself, and the order of each candidate's arcs
    # moves neither
    assert totals == [697, 248]


def unstopped(cands, W):
    """`_max_flow` with a `need` above every flow, so it runs to the maximum."""
    return _max_flow(cands, W, sum(W[s] for s in cands) + 1)


def test_stop_prunes_only_what_the_max_flow_prunes(monkeypatch):
    # a flow that runs to the maximum at every node, or one that meets each
    # candidate's arcs in the reverse order, prunes the same nodes as the
    # flow stopped at the node's bound: the same proofs and the same counts
    def search():
        return [solve_separation(build_separation(b, d), w) for b, w, d in trajectory_instances()]

    stopped = search()
    max_flow = fcfam.sepip._max_flow
    for variant in (lambda cands, W, need, start=None: unstopped(cands, W),
                    lambda cands, W, need, start=None: max_flow(
                        {s: arcs[::-1] for s, arcs in cands.items()}, W, need, start)):
        monkeypatch.setattr(fcfam.sepip, "_max_flow", variant)
        assert search() == stopped
        monkeypatch.undo()
    assert sum(res.pruned for res in stopped) > 0


def fc_proof_over_6(symmetry=True):
    """The final separation instance of an FC decision over [6], whose
    search reaches the max flow at many nodes: 63 decided with symmetry,
    113 without."""
    fam = Family.from_sets(6, [[1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 4, 6], [1, 3, 5, 6],
                               [2, 4, 5, 6], [3, 4, 5, 6], [1, 2, 5, 6]])
    cert = is_fc(fam, symmetry=symmetry)
    return union_closure(fam), cert.weights, powerset_family(6)


def test_past_deadline_names_the_separation():
    # the deadline is read every 64 nodes
    base, w, dom = fc_proof_over_6(symmetry=False)
    assert solve_separation(build_separation(base, dom), w).nodes >= 64
    with pytest.raises(TimeoutError) as info:
        solve_separation(build_separation(base, dom), w, deadline=time.monotonic() - 1)
    assert type(info.value) is TimeoutError
    assert str(info.value) == "separation deadline exceeded"


def flow_instances():
    yield fc_proof_over_6()
    yield from trajectory_instances()
    yield fc_proof_over_6(symmetry=False)


def capture_nodes(monkeypatch, limit=400):
    """The real search nodes, as `_max_flow` was called on them:
    (arcs, W, need)."""
    nodes = []
    max_flow = fcfam.sepip._max_flow

    def record(cands, W, need, start=None):
        if len(nodes) < limit:
            nodes.append((cands, W, need))
        return max_flow(cands, W, need, start)

    monkeypatch.setattr(fcfam.sepip, "_max_flow", record)
    for base, w, dom in flow_instances():
        solve_separation(build_separation(base, dom), w)
    monkeypatch.undo()
    assert len(nodes) > 100
    return nodes


def forcing_nodes(monkeypatch):
    """The nodes of the proofs of `flow_instances`, with what the search
    does not pass on: for each, its 1-fixed sets, every set each candidate
    forces (computed here from the base and the 1-fixed sets),
    the arcs the search handed to `_max_flow` and W.  The nodes come from
    replaying each proof in preorder, one per call, and each call's arcs
    are checked against the arcs computed here."""
    nodes = []
    for base, w, dom in flow_instances():
        calls = []
        max_flow = fcfam.sepip._max_flow
        monkeypatch.setattr(fcfam.sepip, "_max_flow", lambda cands, W, need, start=None: (
            calls.append(cands) or max_flow(cands, W, need, start)))
        res = solve_separation(build_separation(base, dom), w)
        monkeypatch.undo()
        if res.proof is None:
            continue
        _, W = fcfam.sepip._integer_weights(w, dom)
        for (ones, zeros, _), call in zip(proof_nodes(base, res.proof), calls, strict=True):
            forced = {s: {s | x for x in set(base.members) | ones}
                      for s in dom.members if W[s] > 0 and s not in ones | zeros}
            forced = {s: f for s, f in forced.items() if f.isdisjoint(zeros)}
            arcs = {s: {t for t in f if W[t] < 0 and t not in ones} for s, f in forced.items()}
            assert {s: set(t) for s, t in call.items()} == arcs
            nodes.append((ones, forced, call, W))
    assert len(nodes) > 100
    return nodes


def flow_value(cands, W, flow):
    """The value of a flow on the bipartite forcing graph, after checking
    that it uses only arcs and respects every capacity."""
    sent, received = {}, {}
    for (s, t), f in flow.items():
        assert f > 0 and s in cands and t in cands[s]
        sent[s] = sent.get(s, 0) + f
        received[t] = received.get(t, 0) + f
    assert all(sent[s] <= W[s] for s in sent)
    assert all(received[t] <= -W[t] for t in received)
    return sum(sent.values())


def random_bipartite(rng):
    """Candidates 1..p of positive weight, each with arcs into some of the
    negative sets p+1..p+q, in a random order."""
    p, q = rng.randint(1, 7), rng.randint(0, 7)
    W = [0] + [rng.randint(1, 9) for _ in range(p)] + [-rng.randint(1, 9) for _ in range(q)]
    negatives = list(range(p + 1, p + q + 1))
    cands = {s: [t for t in rng.sample(negatives, q) if rng.random() < 0.3]
             for s in range(1, p + 1)}
    return cands, W


def random_flow(rng, cands, W):
    """A random feasible flow on the bipartite forcing graph: each arc in a
    random order carries a random share of what both its ends have left."""
    room = [abs(w) for w in W]
    flow = {}
    arcs = [(s, t) for s in cands for t in cands[s]]
    rng.shuffle(arcs)
    for s, t in arcs:
        f = rng.randint(0, min(room[s], room[t]))
        if f:
            flow[s, t] = f
            room[s] -= f
            room[t] -= f
    return flow


def flow_state(cands, W, flow):
    """A `_Flow` holding the feasible flow `flow`, with its senders."""
    state = _Flow([abs(w) for w in W])
    state.value = flow_value(cands, W, flow)
    state.flow.update(flow)
    state.senders = {}
    for (s, t), f in flow.items():
        state.room[s] -= f
        state.room[t] -= f
        state.senders.setdefault(t, set()).add(s)
    return state


def check_state(cands, W, state):
    """A `_Flow` holds a feasible flow on the graph of `cands`, and its value,
    its room and its senders, if built, are that flow's."""
    assert state.value == flow_value(cands, W, state.flow)
    for s, arcs in cands.items():
        assert state.room[s] == W[s] - sum(f for (u, _), f in state.flow.items() if u == s)
        for t in arcs:
            assert state.room[t] == -W[t] - sum(f for (_, u), f in state.flow.items() if u == t)
    if state.senders is not None:
        into = {t for _, t in state.flow} | set(state.senders)
        assert all(state.senders.get(t, set()) == {s for s, u in state.flow if u == t}
                   for t in into)


def greedy_flow(cands, W):
    """The reference greedy flow: each candidate in turn pushes its weight
    straight into its arcs, up to what each one's sink arc has left."""
    room = {t: -W[t] for arcs in cands.values() for t in arcs}
    flow = {}
    for s, arcs in cands.items():
        left = W[s]
        for t in arcs:
            push = min(left, room[t])
            if push:
                flow[s, t] = push
                room[t] -= push
                left -= push
    return flow


def check_max_flow(cands, W):
    """Run to the end, the greedily started flow reaches the oracle's
    minimum cut and returns its minimal source side."""
    want, meet = brute_min_cut(cands, W)
    value, flow, reached = unstopped(cands, W)
    assert flow_value(cands, W, flow) == value == want
    assert reached == meet


def check_stop(rng, cands, W):
    """Each case of `need`: just above the maximum, the oracle's minimum cut
    and its minimal source side; at or below it, a feasible flow worth at
    least `need` and no candidates; at most 0, the empty flow."""
    want, meet = brute_min_cut(cands, W)
    value, flow, reached = _max_flow(cands, W, want + 1)
    assert flow_value(cands, W, flow) == value == want
    assert reached == meet
    for need in {want, rng.randint(1, want), 1} if want else ():
        value, flow, reached = _max_flow(cands, W, need)
        assert flow_value(cands, W, flow) == value >= need
        assert reached == set()
    for need in (0, -rng.randint(1, 9)):
        assert _max_flow(cands, W, need) == (0, {}, set())


class TestFlows:
    def test_greedy_flow_is_feasible(self, monkeypatch):
        # the flow starts with the reference greedy flow, and a `need` that
        # it meets stops the flow there
        for cands, W, need in capture_nodes(monkeypatch):
            greedy = greedy_flow(cands, W)
            value = flow_value(cands, W, greedy)
            if value:
                assert _max_flow(cands, W, value) == (value, greedy, set())
            stopped, flow, _ = _max_flow(cands, W, need)
            assert flow_value(cands, W, flow) == stopped

    def test_greedy_value_bounds_the_relaxation(self, monkeypatch):
        # the greedy value is at most the maximum, and a flow stopped at the
        # node's bound falls short of it exactly when the maximum does, and
        # then is the maximum with the same candidates
        for cands, W, need in capture_nodes(monkeypatch):
            value, _, reached = unstopped(cands, W)
            assert flow_value(cands, W, greedy_flow(cands, W)) <= value
            stopped, _, stopped_reached = _max_flow(cands, W, need)
            if value < need:
                assert (stopped, stopped_reached) == (value, reached)
            else:
                assert need <= stopped <= value and stopped_reached == set()

    def test_warm_start_matches_cold_on_real_nodes(self, monkeypatch):
        # the flow, warm-started greedily, reaches the minimum cut that the
        # oracle enumerates from nothing
        checked = 0
        for cands, W, _ in capture_nodes(monkeypatch):
            if len(cands) <= 12:
                check_max_flow(cands, W)
                checked += 1
        assert checked > 100

    def test_warm_start_matches_cold_on_random_graphs(self):
        rng = random.Random(9)
        for _ in range(500):
            check_max_flow(*random_bipartite(rng))

    def test_resumed_flow_matches_cold_on_real_right_children(self, monkeypatch):
        # a right child resumes its parent's maximum flow less what the
        # candidates it drops sent: a feasible flow on its graph, from which
        # it reaches the candidates a flow from nothing reaches and, below
        # the node's bound, the same value.  Each branch set has one right
        # child, and every other node starts from the empty flow
        max_flow = fcfam.sepip._max_flow
        resumed = 0

        def check(cands, W, need, start=None):
            nonlocal resumed
            if start.senders is None:
                assert (start.value, start.flow) == (0, {})
                return max_flow(cands, W, need, start)
            check_state(cands, W, start)
            value, _, reached = max_flow(cands, W, need)
            got = max_flow(cands, W, need, start)
            check_state(cands, W, start)
            assert got[2] == reached and got[0] == start.value
            assert got[0] == value if value < need else got[0] >= need
            resumed += 1
            return got

        checked = 0
        for base, w, dom in flow_instances():
            resumed = 0
            monkeypatch.setattr(fcfam.sepip, "_max_flow", check)
            res = solve_separation(build_separation(base, dom), w)
            monkeypatch.undo()
            if res.proof is not None:
                assert resumed == sum(entry != LEAF for entry in res.proof)
            checked += resumed
        assert checked > 100

    def test_resumed_flow_matches_cold_on_random_graphs(self):
        # a random feasible flow, less what some dropped candidates send, is
        # resumed on the rest of the graph to the oracle's minimum cut, and
        # stops at a `need` it meets; its senders are kept or rebuilt
        rng = random.Random(11)
        for _ in range(500):
            cands, W = random_bipartite(rng)
            kept = {s: arcs for s, arcs in cands.items() if rng.random() < 0.7}
            want, meet = brute_min_cut(kept, W)
            for need in (want + 1, rng.randint(-2, want + 1)):
                state = flow_state(cands, W, random_flow(rng, cands, W))
                for s, arcs in cands.items():
                    if s not in kept:
                        state.drop(s, arcs)
                check_state(kept, W, state)
                start = state.value
                if rng.random() < 0.5:
                    state.senders = None
                value, flow, reached = _max_flow(kept, W, need, state)
                check_state(kept, W, state)
                assert flow is state.flow and value == state.value >= start
                if need > want:
                    assert (value, reached) == (want, meet)
                else:
                    assert value >= need and reached == set()

    def test_stop_rule_on_real_nodes(self, monkeypatch):
        rng = random.Random(8)
        checked = 0
        for cands, W, _ in capture_nodes(monkeypatch):
            if len(cands) <= 12:
                check_stop(rng, cands, W)
                checked += 1
        assert checked > 100

    def test_stop_rule_on_random_graphs(self):
        rng = random.Random(10)
        for _ in range(500):
            check_stop(rng, *random_bipartite(rng))

    def test_reached_is_closed_under_forcing(self, monkeypatch):
        # the pick from the arcs alone is the pick from the forcing sets, the
        # reached candidates and all they force that the relaxation counts,
        # and the least minimum cut closed under forcing
        small = 0
        for ones, forced, arcs, W in forcing_nodes(monkeypatch):
            _, _, reached = unstopped(arcs, W)
            assert all(t in reached for s in reached for t in forced[s] if t in forced)
            old = {t for s in reached for t in forced[s]
                   if t in forced or (W[t] < 0 and t not in ones)}
            assert reached.union(*(arcs[s] for s in reached)) == old
            if len(arcs) <= 12:
                assert brute_min_cut(arcs, W, forces=forced)[1] == reached
                small += 1
        assert small > 50


def bitset(masks):
    return sum(1 << x for x in set(masks))


def set_rule_branch(cands, W, ones):
    """The branch set of a node by the set rule.  A reached candidate's
    escape is the negative sets outside the relaxed pick that its unions
    with the pick fall on.  The reached candidate, in candidate order, whose
    escape weighs the most, the first on ties, scanning no further than the
    first whose escape weighs at least the node's gap (its bound minus the
    maximum flow).  With no escape, the first reached candidate."""
    value, _, reached = unstopped(cands, W)
    gap = sum(W[s] for s in ones) + sum(W[s] for s in cands) - value
    chosen = set(ones).union(reached, *(cands[s] for s in reached))
    picked = [s for s in cands if s in reached]
    best, heaviest = picked[0], 0
    for s in picked:
        weight = -sum(W[t] for t in {s | o for o in chosen} - chosen if W[t] < 0)
        if weight > heaviest:
            best, heaviest = s, weight
            if weight >= gap:
                break
    return best


class TestBitsets:
    def test_shift_is_the_union_with_every_member(self):
        rng = random.Random(31)
        for _ in range(400):
            n = rng.randint(1, 8)
            fam = rng.sample(range(1 << n), rng.randint(0, min(1 << n, 40)))
            s = rng.randrange(1 << n)
            assert _shift(bitset(fam), _shift_steps(n)[s]) == bitset(s | x for x in fam)

    def test_weigh_is_the_sum_of_the_weights(self):
        # weights with zeros and unequal denominators, over random domains
        rng = random.Random(33)
        for _ in range(400):
            n = rng.randint(1, 8)
            raw = [Fraction(rng.choice([0, 0, 1, 2, 5]), rng.randint(1, 9)) for _ in range(n)]
            if not any(raw):
                raw[rng.randrange(n)] = Fraction(1)
            w = [x / sum(raw) for x in raw]
            seeds = rng.sample(range(1 << n), min(1 << n, rng.randint(1, 6)))
            dom = powerset_family(n) if rng.random() < 0.5 else union_closure(
                Family.from_masks(n, seeds + [0]))
            _, W = fcfam.sepip._integer_weights(w, dom)
            weigh = weigher(w)
            F = bitset(x for x in dom.members if rng.random() < 0.5)
            assert weigh(F) == sum(W[x] for x in fcfam.setfam.bits(F))
            # W derives from weigh, so both answer to the Fraction formula,
            # scaled by an lcm taken here
            L = math.lcm(*(x.denominator for x in w))
            fam = Family.from_masks(n, fcfam.setfam.bits(F))
            assert weigh(F) == L * family_value(fam, w)
            assert all(W[s] == L * family_value(Family.from_masks(n, [s]), w)
                       for s in dom.members)

    def test_branch_test_is_the_escape_rule(self):
        rng = random.Random(32)
        escapes = 0
        for _ in range(400):
            n = rng.randint(1, 8)
            W = [rng.randint(-3, 3) for _ in range(1 << n)]
            neg = bitset(t for t in range(1 << n) if W[t] < 0)
            chosen = set(rng.sample(range(1 << n), rng.randint(0, min(1 << n, 30))))
            s = rng.randrange(1 << n)
            got = bool(_shift(bitset(chosen), _shift_steps(n)[s]) & neg & ~bitset(chosen))
            assert got == any(s | o not in chosen and W[s | o] < 0 for o in chosen)
            escapes += got
        assert 50 < escapes < 350

    def test_every_node_matches_the_set_rule(self, monkeypatch):
        # every node of real proofs hands its candidates to the flow, in one
        # call (a right child's inherited from its parent, a left child's
        # filtered from its parent's, the root's from all), and they are the
        # set rule's, in the same order and with the same arcs, and each
        # branch set is the set rule's pick.  A search that finds a violated
        # family calls the flow at every node but, when that family is the
        # node's 1-fixed sets, the last
        nodes = branches = 0
        for base, w, dom in flow_instances():
            calls = []
            max_flow = fcfam.sepip._max_flow
            monkeypatch.setattr(fcfam.sepip, "_max_flow", lambda cands, W, need, start=None: (
                calls.append(cands) or max_flow(cands, W, need, start)))
            res = solve_separation(build_separation(base, dom), w)
            monkeypatch.undo()
            if res.proof is None:
                assert res.nodes - 1 <= len(calls) <= res.nodes
                continue
            assert len(calls) == res.nodes
            _, W = fcfam.sepip._integer_weights(w, dom)
            pending = iter(calls)
            for ones, zeros, entry in proof_nodes(base, res.proof):
                cands = separation_candidates(base, dom, W, ones, zeros)
                assert list(next(pending).items()) == list(cands.items())
                nodes += 1
                if entry != LEAF:
                    assert entry == set_rule_branch(cands, W, ones)
                    branches += 1
            assert next(pending, None) is None
        # each branch set has one right child
        assert nodes > 400 and branches > 100


class TestClassicalCuts:
    """The bitset forms `is_fc` takes from this module: its classical cuts
    and its LP rows' element counts."""

    def test_classical_cut_is_the_avoiding_family(self):
        # over the full domain and over restricted ones, for masks x of
        # every size from 0 to n
        rng = random.Random(48)
        draws = covering_families(rng, 40) + restricted_domains(rng, 40)
        for fam, dom in draws:
            n = fam.n
            dom = dom or powerset_family(n)
            prob = build_separation(union_closure(fam), dom)
            assert prob.domain_bits == bitset(dom.members)
            for size in range(n + 1):
                x = sum(1 << i for i in rng.sample(range(n), size))
                cut = classical_cut(prob, fam, x)
                assert cut == bitset(avoiding_cut(fam, dom, x).members), (fam, dom, x)

    def test_element_counts_are_the_frequencies(self):
        rng = random.Random(49)
        for _ in range(400):
            n = rng.randint(1, 8)
            F = rng.sample(range(1 << n), rng.randint(0, min(1 << n, 60)))
            counts = frequencies(Family.from_masks(n, F)).counts
            assert element_counts(n, bitset(F)) == list(counts)

    def test_full_domain_checks_only_the_base_for_union_closure(self, monkeypatch):
        checked = []
        real = fcfam.sepip.is_union_closed
        monkeypatch.setattr(fcfam.sepip, "is_union_closed",
                            lambda fam: checked.append(fam) or real(fam))
        for n in range(1, 9):
            base = union_closure(Family.from_masks(n, [(1 << n) - 1, 1]))
            checked.clear()
            prob = build_separation(base, powerset_family(n))
            assert checked == [base] and prob.domain_bits == (1 << (1 << n)) - 1
        # any other domain is checked too
        base = union_closure(Family.from_sets(3, [[1, 2, 3]]))
        dom = no_singletons_family(3)
        checked.clear()
        build_separation(base, dom)
        assert checked == [base, dom]
        # one set short of P([3]), and {1} u {2} is the missing one
        short = Family.from_masks(3, [m for m in range(8) if m != 3])
        checked.clear()
        with pytest.raises(ValueError, match="not union-closed"):
            build_separation(base, short)
        assert checked == [base, short]


class TestBuild:
    def test_domain_not_absorb_closed(self):
        base = union_closure(Family.from_sets(2, [[1, 2]]))
        with pytest.raises(ValueError, match="union with base"):
            build_separation(base, Family.from_masks(2, [0, 0b01]))

    def test_domain_not_union_closed(self):
        base = union_closure(Family.from_sets(2, [[1], [2]]))
        with pytest.raises(ValueError, match="not union-closed"):
            build_separation(base, Family.from_masks(2, [0, 1, 2]))

    def test_base_must_cover_ground(self):
        base = union_closure(Family.from_sets(3, [[1, 2]]))
        with pytest.raises(ValueError, match="universe"):
            build_separation(base, powerset_family(3))

    def test_weights_validated(self):
        base = union_closure(Family.from_sets(2, [[1, 2]]))
        prob = build_separation(base, powerset_family(2))
        with pytest.raises(ValueError, match="sum"):
            solve_separation(prob, [Fraction(1, 2), Fraction(1, 3)])


class TestKnownValues:
    def test_two_set_family_no_violation(self):
        # a 2-set family is FC; at (1/2, 1/2) nothing separates
        base = union_closure(Family.from_sets(2, [[1, 2]]))
        res = brute_separation(base, [Fraction(1, 2)] * 2, powerset_family(2))
        assert res.optimum == 0
        check_against_oracle(base, [Fraction(1, 2)] * 2, powerset_family(2))

    def test_three_set_uniform_violated(self):
        base = union_closure(Family.from_sets(3, [[1, 2, 3]]))
        res = brute_separation(base, uniform(3), powerset_family(3))
        assert res.optimum > 0
        assert check_against_oracle(base, uniform(3), powerset_family(3)).optimum > 0

    def test_single_element_ground(self):
        base = union_closure(Family.from_sets(1, [[1]]))
        res = brute_separation(base, [Fraction(1)], powerset_family(1))
        assert res.optimum == 0

    def test_base_itself_is_feasible(self):
        rng = random.Random(19)
        for _ in range(40):
            n = rng.choice([2, 3, 4])
            base, w, dom = random_instance(rng, n)
            if any(m not in set(dom.members) for m in base.members):
                continue
            if family_value(Family(n, base.members), w) > 0:
                assert solve_separation(build_separation(base, dom), w).optimum > 0


class TestOracleEquivalence:
    def test_exhaustive_small(self):
        # every union-closed base over [2] and [3] at a few weight vectors
        from oracles import uc_subfamilies

        for n in (2, 3):
            full = (1 << n) - 1
            weight_choices = [uniform(n)]
            if n == 3:
                weight_choices.append([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
            for members in uc_subfamilies(n):
                if not members:
                    continue
                uni = 0
                for m in members:
                    uni |= m
                if uni != full or 0 not in members:
                    continue
                base = union_closure(Family(n, members))
                for w in weight_choices:
                    check_against_oracle(base, w, powerset_family(n))

    def test_exhaustive_bases_up_to_four(self):
        # every union-closed base with universe [n], n <= 4, up to isomorphism,
        # at the uniform and a fully concentrated weight vector
        from fractions import Fraction

        from oracles import uc_reps_with_full_universe

        total = 0
        for n in (2, 3, 4):
            dom = powerset_family(n)
            vectors = [
                [Fraction(1, n)] * n,
                [Fraction(1)] + [Fraction(0)] * (n - 1),
            ]
            for rep in uc_reps_with_full_universe(n):
                base = union_closure(rep)
                for w in vectors:
                    check_against_oracle(base, w, dom)
                    total += 1
        assert total == 728

    def test_random_instances(self):
        rng = random.Random(42)
        violated = 0
        for _ in range(200):
            base, w, dom = random_instance(rng, 4)
            violated += check_against_oracle(base, w, dom).optimum > 0
        assert 20 < violated < 180


class TestMonotonicity:
    def test_enlarging_domain_never_decreases(self):
        rng = random.Random(45)
        for _ in range(40):
            n = 3
            base, w, _ = random_instance(rng, n)
            small = Family(n, union_closure(Family.from_masks(n, list(base.members))).members)
            big = powerset_family(n)
            if solve_separation(build_separation(base, small), w).optimum > 0:
                assert solve_separation(build_separation(base, big), w).optimum > 0


class TestCaps:
    def test_brute_domain_cap(self):
        base = union_closure(Family.from_sets(5, [[1, 2, 3, 4, 5]]))
        with pytest.raises(ValueError, match="too large"):
            brute_separation(base, uniform(5), powerset_family(5))

    def test_solve_ground_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_separation(
                union_closure(Family.from_sets(9, [list(range(1, 10))])),
                powerset_family(9),
            )


if __name__ == "__main__":
    print(trajectory_digest())
