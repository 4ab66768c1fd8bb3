"""Independent re-verification of FC / Non-FC certificates.

Everything recomputable is recomputed from the certificate's own family and
domain; the checks share nothing with the solving path beyond the set
algebra, exact arithmetic and the flow routines, whose output is checked
arithmetically before it is used.

A report lists the checks in the order they ran, and the first failed check
ends the verification: it is the report's last entry and its failure, and
nothing after it runs on data that has already failed.  Numbers must be
exact: an FC weight, a Farkas multiplier or lambda that is not an int (a bool
is not one) or a Fraction fails its check (`weights-simplex`,
`multipliers-nonnegative`), and so does a proof entry that is not an int
(`separation-nonpositive`), so no verdict rests on floating point.

An FC certificate is its weights and the search tree of its final
separation solve, in preorder (`sepip.LEAF` for a pruned node, else the
branch set).  The checker replays that tree without searching: from its own
scaled weights W, it fixes each branch set S to 1 (adding the closure of S
under unions with the base and with the sets already fixed to 1; the
subtree is absent when that closure meets a set fixed to 0) and then to 0.
A branch set must lie in the domain and be free at its node, and the proof
must end exactly with the tree.  At a leaf with 1-fixed sets O (value val) and 0-fixed sets Z, every
positive set S that a family could still take is a candidate: S is free and
{S u X : X in base or O} misses Z.  Base u O is union-closed, so forcing is
transitive and this one pass needs no fixpoint.  It is the rule the
producer's search applies at every node, but `sepip` keeps its own copy:
the checker replays on its own bitsets (`check_separation_proof`) and
shares only `setfam.bits`, `LEAF` and `_max_flow` with the producer.  Each
candidate S keeps its arcs, the negative sets T not in O that it forces,
listed here from this leaf's own forcing sets.  The leaf holds if
val + W(candidates) - F <= 0 for a flow of value F on the bipartite
forcing graph: S sends f(S, T) > 0 only along one of its arcs, S sends at
most W[S] in all and T takes at most -W[T].  Such a
flow need not be maximum nor conserved anywhere, by weak duality: take a
feasible family B below the leaf, C the candidates in B and N(C) the
negative sets outside O that C forces, all in B.  Every unit of flow
leaves a candidate outside C or enters N(C), so
F <= W(candidates outside C) - W(N(C)), and
W(B) <= val + W(C) + W(N(C)) <= val + W(candidates) - F.  The flow is the
one the shared `_max_flow` returns, stopped at the leaf's bound (the empty
flow when val + W(candidates) <= 0); the checks above are made here on that
flow, and the value `_max_flow` reports is not used.

Non-FC certificates are replayed as a pure Farkas computation over their
cuts, each checked to be a union-closed family in the domain absorbed by
<A>, with its size and element counts taken from the cut itself: with
multipliers y_B >= 0 and lambda on sum(c) = 1,

    sum_B y_B |B_i| + lambda <= 0   for every element i, while
    sum_B y_B |B|/2 + lambda  = 1   (> 0 proves infeasibility; == 1 pins
                                     the scale so single-field tampers
                                     cannot slip through)
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .setfam import (
    DECISION_GROUND_CAP,
    Family,
    bits,
    frequencies,
    is_union_closed,
    powerset_family,
    union_closure,
    universe,
    uplus,
)
from .fcsolve import (
    Certificate,
    FcCertificate,
    NonFcCertificate,
)
from .sepip import (
    LEAF,
    _max_flow,
    # not called here; bench/spans.py wraps these three by name
    brute_separation,  # noqa: F401
    build_separation,  # noqa: F401
    solve_separation,  # noqa: F401
)


class _Refused(Exception):
    """A check failed; the report that raised it holds its name and detail."""


@dataclass
class VerificationReport:
    """The checks run on a certificate, in order, and the first failure."""

    checked: list[tuple[str, bool]] = field(default_factory=list)
    failure: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.failure is None

    def summary(self) -> str:
        lines = [f"{'ok' if ok else 'FAIL'}  {name}" for name, ok in self.checked]
        lines.append("PASS" if self.passed else f"FAIL: {self.failure}")
        return "\n".join(lines)

    def _check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record a check; a failed one is the report's failure and ends it."""
        self.checked.append((name, ok))
        if not ok:
            self.failure = f"{name}: {detail}" if detail else name
            raise _Refused


def _inexact(what: str, values: Sequence) -> str:
    """Why `values` are not all exact (an int but not a bool, or a Fraction);
    empty if they are."""
    kind = next((type(v).__name__ for v in values
                 if isinstance(v, bool) or not isinstance(v, (int, Fraction))), "")
    return f"{what} must be int or Fraction, not {kind}" if kind else ""


def _structural(cert: Certificate, rep: VerificationReport) -> tuple[Family, Family]:
    """Shared structural checks; returns the domain and <A>."""
    n = cert.n
    rep._check("ground-size", type(n) is int and 1 <= n <= DECISION_GROUND_CAP, f"n={n!r}")
    rep._check("family-universe", cert.family.n == n and universe(cert.family) == (1 << n) - 1,
               "family universe is not all of [n]")
    closure = union_closure(cert.family)
    if cert.domain is None:
        # P([n]), built here, is union-closed and holds {} and <A>
        rep._check("domain-valid", True)
        return powerset_family(n), closure
    dom = cert.domain
    ok = (
        dom.n == n
        and 0 in dom.members
        and is_union_closed(dom)
        and set(closure.members) <= set(dom.members)
    )
    rep._check("domain-valid", ok, "domain must be union-closed, contain {} and <A>")
    return dom, closure


def _cuts_wellformed(cert: NonFcCertificate, dom: Family, closure: Family,
                     rep: VerificationReport) -> None:
    dom_set = set(dom.members)
    for idx, cut in enumerate(cert.cuts):
        fault = ("ground size mismatch" if cut.n != cert.n
                 else "leaves the domain" if not set(cut.members) <= dom_set
                 else "not union-closed" if not is_union_closed(cut)
                 else "not absorbed by <A>" if uplus(closure, cut) != cut
                 else "")
        if fault:
            rep._check("cuts-wellformed", False, f"cut {idx}: {fault}")
    rep._check("cuts-wellformed", True)


def verify_fc(cert: FcCertificate) -> VerificationReport:
    """Check an FC certificate: weights on the simplex and a replay of the
    separation proof showing that no family violates them."""
    rep = VerificationReport()
    with suppress(_Refused):
        dom, closure = _structural(cert, rep)
        inexact = _inexact("weights", cert.weights)
        ok = (
            not inexact
            and len(cert.weights) == cert.n
            and all(w >= 0 for w in cert.weights)
            and sum(cert.weights, Fraction(0)) == 1
        )
        rep._check("weights-simplex", ok, inexact or "weights must be nonnegative and sum to 1")
        if cert.proof is None:
            failure = "the certificate carries no separation proof"
        else:
            failure = check_separation_proof(closure, dom, cert.weights, cert.proof)
        rep._check("separation-nonpositive", failure is None, failure or "")
    return rep


class _ProofError(Exception):
    """The replay of a separation proof failed; the message says where."""


def check_separation_proof(
    base: Family, domain: Family, weights: Sequence[Fraction], proof: Sequence[int]
) -> Optional[str]:
    """Replay a separation search tree; None if it proves that no
    union-closed family in `domain` absorbed by `base` has positive value at
    `weights`, else the reason it does not.

    `base` must be union-closed with the empty set, `domain` union-closed
    and containing `base`, and `weights` exact (int or Fraction),
    nonnegative and summing to 1: `verify_fc` checks all of this, the
    weights included, before it replays the proof.  A proof entry that is
    not an int (a bool is not one) is refused before it is read as `LEAF`
    or as a set, and a branch set outside 0 <= S < 2^n before it is read
    as a bit.

    The replay runs on the checker's own bitsets, 2^n-bit ints in which bit
    x stands for the set x: O, Z, the base, the domain and the negative sets
    are one int each.  With M[i] the bitset of the masks that hold element
    i, {S u X : X in F} takes one step per element i of S, which keeps
    F & M[i] and moves F & ~M[i] up by 2^i.  It shares only `setfam.bits`,
    which lists the arcs, `LEAF` and `_max_flow` with the producer.
    """
    n = domain.n
    size = 1 << n
    lcm = math.lcm(*(w.denominator for w in weights))
    scaled = [int(w * lcm) for w in weights]
    W = [0] * size
    for s in domain.members:
        W[s] = lcm - 2 * sum(c for i, c in enumerate(scaled) if s >> i & 1)
    full = (1 << size) - 1
    M = [sum(1 << x for x in range(size) if x >> i & 1) for i in range(n)]
    # for each domain set S, its steps (M[i], the complement of M[i], 2^i)
    steps = {s: [(M[i], full ^ M[i], 1 << i) for i in bits(s)] for s in domain.members}
    dom = sum(1 << s for s in domain.members)
    base_bits = sum(1 << x for x in base.members)
    neg = sum(1 << s for s in domain.members if W[s] < 0)
    positives = [s for s in domain.members if W[s] > 0]
    entries = iter(proof)

    def leaf(ones: int, val: int, zeros: int) -> None:
        fixed, taken, free_neg = base_bits | ones, ones | zeros, neg & ~ones
        cands = {}  # candidate -> its arcs, the negative sets outside O it forces
        for s in positives:
            if not taken >> s & 1:
                forced = fixed
                for keep, move, by in steps[s]:
                    forced = forced & keep | (forced & move) << by
                if not forced & zeros:
                    cands[s] = bits(forced & free_neg)
        bound = val + sum(W[s] for s in cands)
        bound -= _flow_value(cands, W, _max_flow(cands, W, bound)[1])
        if bound > 0:
            raise _ProofError(f"a leaf bounds the value only by {bound}/{lcm} > 0")

    def replay(ones: int, val: int, zeros: int) -> None:
        entry = next(entries, None)
        if entry is None:
            raise _ProofError("the proof ends before the tree does")
        if type(entry) is not int:
            raise _ProofError(f"proof entry {entry!r} is not an int")
        if entry == LEAF:
            leaf(ones, val, zeros)
            return
        if not (0 <= entry < size and dom >> entry & 1 and not (ones | zeros) >> entry & 1):
            raise _ProofError(f"branch set {entry} is outside the domain or already fixed")
        grown = base_bits | ones
        for keep, move, by in steps[entry]:
            grown = grown & keep | (grown & move) << by
        grown |= ones
        if not grown & zeros:
            replay(grown, val + sum(W[s] for s in bits(grown & ~ones)), zeros)
        replay(ones, val, zeros | 1 << entry)

    try:
        replay(0, 0, 0)
        if next(entries, None) is not None:
            raise _ProofError("the proof has entries left over after the tree")
    except _ProofError as exc:
        return str(exc)
    return None


def _flow_value(cands: dict[int, list[int]], W: list[int],
                flow: dict[tuple[int, int], int]) -> int:
    sent: dict[int, int] = {}
    received: dict[int, int] = {}
    for (s, t), f in flow.items():
        if not (s in cands and t in cands[s] and f > 0):
            raise _ProofError(f"flow {f} from {s} into {t}, which is not a forcing arc")
        sent[s] = sent.get(s, 0) + f
        received[t] = received.get(t, 0) + f
    if any(f > W[s] for s, f in sent.items()) or any(f > -W[t] for t, f in received.items()):
        raise _ProofError("the leaf's flow exceeds a capacity")
    return sum(sent.values())


def verify_nonfc(cert: NonFcCertificate) -> VerificationReport:
    """Replay a Non-FC certificate's Farkas combination exactly."""
    rep = VerificationReport()
    with suppress(_Refused):
        dom, closure = _structural(cert, rep)
        rep._check("multiplier-count", len(cert.multipliers) == len(cert.cuts),
                   "one multiplier per cut required")
        _cuts_wellformed(cert, dom, closure, rep)
        inexact = _inexact("multipliers and lambda", (*cert.multipliers, cert.lam))
        rep._check("multipliers-nonnegative",
                   not inexact and all(y >= 0 for y in cert.multipliers), inexact)
        freqs = [frequencies(cut).counts for cut in cert.cuts]
        coeffs = (
            sum((y * freq[i] for y, freq in zip(cert.multipliers, freqs)), Fraction(0))
            + cert.lam
            for i in range(cert.n)
        )
        bad = next(((i, c) for i, c in enumerate(coeffs) if c > 0), None)
        detail = f"element {bad[0] + 1}: aggregated coefficient {bad[1]} > 0" if bad else ""
        rep._check("farkas-aggregation", bad is None, detail)
        rhs = sum(
            (y * Fraction(len(cut.members), 2) for y, cut in zip(cert.multipliers, cert.cuts)),
            Fraction(0),
        ) + cert.lam
        rep._check("farkas-normalized", rhs == 1,
                   f"aggregated right side is {rhs}, expected exactly 1")
    return rep


def verify_certificate(cert: Certificate) -> VerificationReport:
    if isinstance(cert, FcCertificate):
        return verify_fc(cert)
    if isinstance(cert, NonFcCertificate):
        return verify_nonfc(cert)
    raise TypeError(f"not a certificate: {type(cert).__name__}")
