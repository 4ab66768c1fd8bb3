"""FC / V-FC decision procedure and replayable certificates.

A family A over [n] is FC iff some nonnegative weight vector c with
sum(c) = 1 satisfies  sum_i c_i |B_i| >= |B|/2  for every union-closed B in
the variable domain with <A> |+| B = B.  The decision alternates a pure
feasibility LP over the inequalities collected so far with the exact
separation solve, which either returns a violated family (the next cut) or
proves that none exists.  An LP-infeasibility ends in a Non-FC certificate
(cuts plus Farkas multipliers), once `lp_solve` has checked the Farkas
multipliers against the LP.  The certificate is returned pending: it holds
the stored cuts, the generators and the multipliers, and builds its cuts,
multipliers and lambda the first time one of them is read, so a caller
that keeps only some certificates builds only those.  A proof ends in an
FC certificate: the weights and the final separation's search tree, with
no cuts, because the cuts are only the LP's working set and an FC verdict
does not rest on them.
The separation instance is built once per decision, before the first LP,
which validates a caller's domain; the full domain P([n]) skips the
domain's union-closure check, so a decision that its first LP settles pays
little for it.  `sepip` owns the bitset form of a family that the instance
holds, and `is_fc` takes its classical cuts (`classical_cut`) and its LP
rows (`element_counts`) from there; `is_fc` itself encodes a violated
witness as a bitset, reads |B| as the cut's popcount, and `_build_nonfc`
decodes each Non-FC cut with `setfam.bits`.

A warm decision (the default) also uses the classical cuts B_X = <A> |+| D_X,
with D_X the domain sets disjoint from X.  D_X is union-closed and holds the
empty set, so B_X is union-closed, holds <A>, lies in the domain and is
absorbed by <A>: every B_X is a valid cut.  The B_i (|X| = 1) enter the first
LP.  The B_ij (|X| = 2) form a pool, built on the first feasible round: after
each feasible LP the most violated pool cut, if there is one, is the next
cut, and the exact separation runs only when none is violated.  The pool is
weighed with `sepip.weigher`, the separation's own value of a family.  So a
separation runs only at a point that violates no stored or pool cut.  The
first feasible round tries the barycenter (1/n, ..., 1/n) when no B_i rules
it out, and a B_ij that does becomes the round's pool cut.  So the round
separates there when no B_i and no B_ij rules it out: any weight vector
that the separation proves valid proves FC (Poonen), and a proof there ends
the decision in one search.  A violated family found there is the round's
cut like any other, and rules the barycenter out for every later round.  A
cold decision uses none of this.  Either way an FC verdict rests on an
exact separation proof and a Non-FC verdict on a Farkas certificate over
cuts that the checker replays one by one; the cold path cross-checks the
warm one.

The LP has one variable per automorphism orbit of <A> when symmetry is
enabled, and one per element otherwise (the same construction over the
trivial partition): each stored cut and sum(c) = 1 enter as rows summed
over the orbits, and the LP point is replicated back to the elements.  This
is sound because averaging a feasible point over the group gives an
orbit-constant feasible point, for any group that fixes both <A> and the
domain.  The group is taken inside the part of Aut(<A>) that fixes the
domain: it is generated by the generators of `canon.generating_set` that
map the domain onto itself (all of them for the full domain).  A cut is a
bitset of sets, one per orbit of cuts, and its row is counted by
popcounts.  Only a Non-FC certificate lists each cut's orbit of images,
once, with its Farkas multiplier spread uniformly over them, so the
certificate replays over the original, unprojected system.  The element
orbits and the images are closures of the generators, so a decision never
lists the group.
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .setfam import (
    DECISION_GROUND_CAP,
    Family,
    bits,
    powerset_family,
    union_closure,
    universe,
)
from .canon import (
    apply_perm_family,
    automorphism_group,  # noqa: F401  (not called here; bench/spans.py wraps it by name)
    element_orbits,
    family_orbit,
    generating_set,
)
from .ratlp import Infeasible, LinearProgram, lp_solve
from .sepip import LEAF, build_separation, classical_cut, element_counts, solve_separation, weigher

ProgressFn = Callable[[str], None]


class CertificateError(ValueError):
    """Structurally malformed certificate."""


@dataclass
class FcCertificate:
    family: Family
    n: int
    domain: Optional[Family]  # None means all of P([n])
    weights: tuple[Fraction, ...]
    proof: tuple[int, ...]  # the final separation's search tree (sepip.LEAF = pruned)

    kind = "fc"


@dataclass
class NonFcCertificate:
    family: Family
    n: int
    domain: Optional[Family]
    cuts: list[Family]
    multipliers: tuple[Fraction, ...]  # one per cut, >= 0
    lam: Fraction  # multiplier of sum(c) = 1

    kind = "non-fc"

    @classmethod
    def pending(cls, family: Family, domain: Optional[Family], cuts: list[int],
                gens: list[tuple[int, ...]], farkas: Infeasible) -> "NonFcCertificate":
        """The certificate of a decided Non-FC family, whose cuts, multipliers
        and lambda `_build_nonfc` builds from the stored cut bitsets, the
        generators and the LP's Farkas multipliers when one is first read."""
        cert = cls.__new__(cls)
        cert.family, cert.n, cert.domain = family, family.n, domain
        cert._farkas = (cuts, gens, farkas)
        return cert

    def __getattr__(self, name: str):
        # called only for a name the instance lacks: the three built fields
        # of a pending certificate, which are filled in here once
        farkas = self.__dict__.get("_farkas")
        if name not in ("cuts", "multipliers", "lam") or farkas is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.cuts, self.multipliers, self.lam = _build_nonfc(self.n, *farkas)
        del self._farkas
        return getattr(self, name)


Certificate = Union[FcCertificate, NonFcCertificate]


def fc3_value(n: int) -> int:
    """Known closed form for families of 3-sets: floor(n/2) + 1."""
    if n < 4:
        raise ValueError("defined for n >= 4")
    return n // 2 + 1


def upper_bound(k: int, n: int, n0: int, m0: int) -> int:
    """1 + ceil((m0-1) / (n0 falling k) * (n falling k)), exact integers.

    Valid whenever m0 = FC(k, n0) <= C(n0, k) and n > n0 >= k >= 3; the
    result never exceeds C(n, k).
    """
    if not (n > n0 >= k >= 3):
        raise ValueError("need n > n0 >= k >= 3")
    if m0 > math.comb(n0, k):
        raise ValueError("m0 exceeds C(n0, k)")
    if m0 < 1:
        raise ValueError("m0 must be positive")
    num = (m0 - 1) * math.perm(n, k)
    den = math.perm(n0, k)
    value = 1 + -(-num // den)
    if value > math.comb(n, k):
        raise RuntimeError(f"upper bound {value} exceeds C({n}, {k})")
    return value


def is_fc(
    family: Family,
    *,
    symmetry: bool = False,
    warm_start: bool = True,
    domain: Optional[Family] = None,
    deadline: Optional[float] = None,
    progress: Optional[ProgressFn] = None,
) -> Certificate:
    """Decide FC (full domain) or V-FC (restricted domain) exactly.

    The input universe must be all of [n] with n <= 8; the decision runs on
    the union closure of the input.  With `warm_start` (the default, as in
    every driver) the LP starts from the classical cuts B_i and tries the
    pairwise B_ij before each separation, and the first feasible round
    separates at the barycenter when no B_i or B_ij rules it out; without
    it, it does none of this, a slower path that cross-checks the verdicts.
    """
    n = family.n
    if n > DECISION_GROUND_CAP:
        raise ValueError(f"ground size {n} exceeds cap {DECISION_GROUND_CAP}")
    if universe(family) != (1 << n) - 1:
        raise ValueError("family universe must be all of [n] (compact it first)")
    closure = union_closure(family)
    # the decision's one separation instance, built before the first LP, so
    # an invalid domain never gets a verdict
    prob = build_separation(closure, powerset_family(n) if domain is None else domain)

    # without symmetry every element is its own orbit; with it, the group is
    # generated by the generators of Aut(<A>) that fix the domain
    gens: list[tuple[int, ...]] = generating_set(closure) if symmetry else []
    if domain is not None:
        gens = [g for g in gens if apply_perm_family(g, domain) == domain]
    orbits = element_orbits(gens, n)
    # oid[j]: the index of element j+1's orbit
    oid = [k for _, k in sorted((x, k) for k, orbit in enumerate(orbits) for x in orbit)]

    def over_orbits(coeffs: Sequence[int]) -> tuple[int, ...]:
        out = [0] * len(orbits)
        for j, c in enumerate(coeffs):
            out[oid[j]] += c
        return tuple(out)

    # one LP for the whole decision: sum(c) = 1, which weighs each orbit's
    # variable by the orbit's size, and one row per stored cut.  A cut is
    # stored once per orbit of cuts, as a bitset (bit x for the set x), and
    # its row over the orbits is counted by `sepip.element_counts`, the
    # |B_i| of each element i.  Every row is doubled, so that |B|/2 is an
    # integer: 2 sum(c) = 2 and sum_i 2 c_i |B_i| >= |B|
    lp = LinearProgram(len(orbits), [(over_orbits([2] * n), 2)])
    cuts: list[int] = []

    def add_cut(cut: int) -> None:
        cuts.append(cut)
        lp.add_ge(over_orbits([2 * c for c in element_counts(n, cut)]), cut.bit_count())

    if warm_start:
        # the classically strongest inequalities, the B_i, up front.  Only
        # the first element of each orbit gets one, since the other B_i are
        # its images; the B_i of two orbits can still coincide, and are then
        # stored once
        for orbit in orbits:
            b = classical_cut(prob, family, 1 << (orbit[0] - 1))
            if b not in cuts:
                add_cut(b)
    # the pairwise B_ij, built on the first feasible round
    pool: Optional[list[int]] = None
    barycenter = (Fraction(1, n),) * n

    rounds = 0
    while True:
        rounds += 1
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("is_fc deadline exceeded")
        res = lp_solve(lp)
        if isinstance(res, Infeasible):
            return NonFcCertificate.pending(family, domain, cuts, gens, res)
        point = tuple(res.point[o] for o in oid)
        # the LP point is orbit-constant and satisfies every stored row, so a
        # violated family, from the pool or the separation, is no image of a
        # stored cut
        if warm_start:
            if pool is None:
                pool = list(dict.fromkeys(classical_cut(prob, family, x)
                                          for x in range(1 << n) if x.bit_count() == 2))
                # the first feasible round tries the barycenter when no
                # stored B_i rules it out; a B_ij that does becomes the
                # round's pool cut below, and any cut taken there rules it
                # out for every later round.  It is constant, so it too
                # violates no image of a stored cut
                centre = weigher(barycenter)
                if all(centre(b) <= 0 for b in cuts):
                    point = barycenter
            # a warm decision adds the most violated pool cut, the first on
            # ties, weighed with the separation's `weigher`
            weigh = weigher(point)
            cut = max(pool, key=weigh, default=0)
            if weigh(cut) > 0:
                if progress:
                    progress(f"round {rounds}: {len(cuts)} cut classes, pool cut")
                add_cut(cut)
                continue
        if progress:
            at = " at the barycenter" if point == barycenter else ""
            progress(f"round {rounds}: {len(cuts)} cut classes, separating{at}")
        sep = solve_separation(prob, point, deadline=deadline)
        if sep.optimum > 0:
            cut = sum(1 << x for x in sep.witness.members)
            if cut in cuts:
                # the same LP would come back and the loop would never end
                raise RuntimeError("separation returned an already stored cut")
            add_cut(cut)
            continue
        return FcCertificate(family=family, n=n, domain=domain, weights=point, proof=sep.proof)


def _build_nonfc(n: int, cuts: list[int], gens: list[tuple[int, ...]],
                 farkas: Infeasible) -> tuple[list[Family], tuple[Fraction, ...], Fraction]:
    """The cuts, multipliers and lambda of a Non-FC certificate over the
    original system: each stored cut's orbit of images, with its multiplier
    spread uniformly over them.  The LP's multipliers are integers, fixed
    only up to a positive factor, and its rows are twice the inequalities;
    dividing by rhs = 2 lambda + sum y |B|, the aggregated right side in the
    LP's integer scale, removes both factors and makes the original system's
    aggregated right side exactly 1, so any single-field change breaks the
    replay.  Each cut orbit's share becomes one `Fraction`."""
    lam = farkas.eq_multipliers[0]
    ys = farkas.ge_multipliers
    cut_images = [family_orbit(Family(n, tuple(bits(cut))), gens) for cut in cuts]
    rhs = 2 * lam + sum(y * cut.bit_count() for y, cut in zip(ys, cuts))
    if rhs <= 0:
        raise RuntimeError("Farkas certificate has a nonpositive right side")
    cut_mult: list[tuple[Family, Fraction]] = []
    for images, y in zip(cut_images, ys):
        share = Fraction(2 * y, len(images) * rhs)
        cut_mult.extend((img, share) for img in images)
    cut_mult.sort(key=lambda pair: pair[0].members)
    return [c for c, _ in cut_mult], tuple(y for _, y in cut_mult), Fraction(2 * lam, rhs)


# ---------------------------------------------------------------------------
# certificate file format


def frac_str(x: Fraction) -> str:
    """Serialize with an explicit denominator, e.g. "0/1", "1/3"."""
    return f"{x.numerator}/{x.denominator}"


def certificate_to_dict(cert: Certificate) -> dict:
    out = {
        "kind": cert.kind,
        "n": cert.n,
        "family": [list(s) for s in cert.family.member_sets()],
        "domain": "full" if cert.domain is None else [list(s) for s in cert.domain.member_sets()],
    }
    # an FC verdict rests on its weights and proof alone, a Non-FC one on its
    # cuts and their Farkas multipliers
    if isinstance(cert, FcCertificate):
        out["weights"] = [frac_str(w) for w in cert.weights]
        out["proof"] = list(cert.proof)
    else:
        out["cuts"] = [[list(s) for s in cut.member_sets()] for cut in cert.cuts]
        out["farkas"] = {
            "multipliers": [frac_str(y) for y in cert.multipliers],
            "lambda": frac_str(cert.lam),
        }
    return out


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _rational(x) -> Fraction:
    """An exact rational as the file holds it: an int or a "p/q" string.
    Floats (binary approximations) and booleans are refused."""
    if type(x) is int or isinstance(x, str) and _RATIONAL.fullmatch(x):
        return Fraction(x)
    raise CertificateError(f"{x!r} is not an exact rational (an int or a \"p/q\" string)")


def certificate_from_dict(data: dict) -> Certificate:
    try:
        kind = data["kind"]
        n = data["n"]
        if type(n) is not int:
            raise CertificateError("n must be an integer")
        if not 1 <= n <= DECISION_GROUND_CAP:
            raise CertificateError(f"ground size {n} out of range")
        family = Family.from_sets(n, data["family"])
        domain = None if data["domain"] == "full" else Family.from_sets(n, data["domain"])
        if kind == "fc":
            weights = tuple(_rational(w) for w in data["weights"])
            if len(weights) != n:
                raise CertificateError("weight count does not match n")
            if "proof" not in data:
                raise CertificateError("FC certificate carries no separation proof")
            proof = tuple(data["proof"])
            if not all(type(x) is int and (x == LEAF or 0 <= x < 1 << n) for x in proof):
                raise CertificateError(f"proof entries must be {LEAF} or set masks below 2^{n}")
            return FcCertificate(family, n, domain, weights, proof)
        if kind == "non-fc":
            cuts = [Family.from_sets(n, f) for f in data["cuts"]]
            farkas = data["farkas"]
            multipliers = tuple(_rational(y) for y in farkas["multipliers"])
            if len(multipliers) != len(cuts):
                raise CertificateError("multiplier count does not match cut count")
            lam = _rational(farkas["lambda"])
            return NonFcCertificate(family, n, domain, cuts, multipliers, lam)
        raise CertificateError(f"unknown certificate kind {kind!r}")
    except CertificateError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CertificateError(f"malformed certificate: {exc}") from exc


def save_certificate(cert: Certificate, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(certificate_to_dict(cert), fh, indent=1)
        fh.write("\n")


def load_certificate(path: str) -> Certificate:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CertificateError(f"not valid JSON: {exc}") from exc
    return certificate_from_dict(data)
