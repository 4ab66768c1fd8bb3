"""FC / V-FC decision procedure and replayable certificates.

A family A over [n] is FC iff some nonnegative weight vector c with
sum(c) = 1 satisfies  sum_i c_i |B_i| >= |B|/2  for every union-closed B in
the variable domain with <A> |+| B = B.  The decision alternates a pure
feasibility LP over the inequalities collected so far with the exact
separation solve, which either returns a violated family (the next cut) or
proves that none exists.  An LP-infeasibility ends in a Non-FC certificate
(cuts plus Farkas multipliers).  A proof ends in an FC certificate: the
weights and the final separation's search tree, with no cuts, because the
cuts are only the LP's working set and an FC verdict does not rest on them.
The separation instance is built once: over a caller's domain before the
first LP, which validates the domain, and over the full domain on the first
feasible LP round, so a full-domain decision that its first LP settles
builds none.

The LP has one variable per automorphism orbit of <A> when symmetry is
enabled, and one per element otherwise (the same construction over the
trivial partition): each stored cut class and sum(c) = 1 enter as rows
summed over the orbits, and the LP point is replicated back to the
elements.  This is sound because averaging a feasible point over the group
gives an orbit-constant feasible point.  Every witness is stored with its
full orbit of images, and Farkas multipliers are spread uniformly over each
orbit so the emitted certificate replays over the original, unprojected
system.  The group enters only as the strong generating set of
`canon.generating_set`: the element orbits and each witness's images are
closures of those generators, so a decision never lists the group.
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
    frequencies,
    powerset_family,
    union_closure,
    universe,
)
from .canon import (
    OrbitPartition,
    automorphism_group,  # noqa: F401  (not called here; bench/spans.py wraps it by name)
    family_orbit,
    generating_set,
)
from .ratlp import (
    Feasible,
    FarkasCertificate,
    Infeasible,
    LinearProgram,
    frac_str,
    lp_solve,
)
from .sepip import LEAF, _bits, _shift, _shift_steps, build_separation, solve_separation

ProgressFn = Callable[[str], None]


class CertificateError(ValueError):
    """Structurally malformed certificate."""


@dataclass
class FcCertificate:
    family: Family
    n: int
    domain: Optional[Family]  # None means all of P([n])
    weights: tuple[Fraction, ...]
    symmetry: bool
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
    symmetry: bool

    kind = "non-fc"


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
    warm_start: bool = False,
    domain: Optional[Family] = None,
    deadline: Optional[float] = None,
    progress: Optional[ProgressFn] = None,
) -> Certificate:
    """Decide FC (full domain) or V-FC (restricted domain) exactly.

    The input universe must be all of [n] with n <= 8; the decision runs on
    the union closure of the input.
    """
    n = family.n
    if n > DECISION_GROUND_CAP:
        raise ValueError(f"ground size {n} exceeds cap {DECISION_GROUND_CAP}")
    full = (1 << n) - 1
    if universe(family) != full:
        raise ValueError("family universe must be all of [n] (compact it first)")
    closure = union_closure(family)
    # a caller's domain is validated before the first LP, so an invalid one
    # never gets a verdict; the full domain's instance waits for the first
    # feasible round
    prob = None if domain is None else build_separation(closure, domain)

    # without symmetry every element is its own orbit
    gens: list[tuple[int, ...]] = generating_set(closure) if symmetry else []
    orbit_part = OrbitPartition.from_generators(gens, n)
    oid = orbit_part.orbit_id

    def over_orbits(coeffs: Sequence[int]) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * orbit_part.num_orbits
        for j, c in enumerate(coeffs):
            out[oid[j]] += c
        return tuple(out)

    # one list per orbit of stored cuts: each distinct image, sorted by
    # members; the first is the representative the LP sees, as one row over
    # the orbits
    classes: list[list[Family]] = []
    ge_rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
    seen: set[tuple[int, ...]] = set()

    def add_cut(fam: Family) -> bool:
        if fam.members in seen:
            return False
        images = family_orbit(fam, gens) if symmetry else [fam]
        for img in images:
            seen.add(img.members)
        classes.append(images)
        rep = images[0]
        ge_rows.append((over_orbits(frequencies(rep).counts), Fraction(len(rep.members), 2)))
        return True

    if warm_start:
        # the classically strongest inequalities: B_i = <A> |+| D_i, with D_i
        # the domain sets that avoid element i, built on bitsets (bit x for
        # the set x) by B |= shift(B, a) for each member a of A.  B_i needs
        # no check: D_i holds the empty set, so B_i holds <A> and is not
        # empty, and the validated D is union-closed and holds <A>, so B_i
        # stays inside D
        steps = _shift_steps(n)
        inside = (1 << (1 << n)) - 1 if domain is None else sum(1 << s for s in domain.members)
        for _, avoids, _ in steps[full]:
            b = inside & avoids
            for a in family.members:
                b |= _shift(b, steps[a])
            add_cut(Family(n, tuple(_bits(b))))

    # sum(c) = 1 weighs each orbit's variable by the orbit's size
    eq_row = (over_orbits([1] * n), Fraction(1))
    rounds = 0
    while True:
        rounds += 1
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("is_fc deadline exceeded")
        res = lp_solve(LinearProgram(orbit_part.num_orbits, [eq_row], list(ge_rows)))
        if isinstance(res, Infeasible):
            return _build_nonfc(family, n, domain, classes, res.certificate, symmetry)
        if not isinstance(res, Feasible):
            raise RuntimeError(f"the LP returned {type(res).__name__}")
        point = tuple(res.point[o] for o in oid)
        if progress:
            progress(f"round {rounds}: {len(classes)} cut classes, separating")
        if prob is None:
            prob = build_separation(closure, powerset_family(n))
        sep = solve_separation(prob, point, deadline=deadline)
        if sep.optimum > 0:
            if not add_cut(sep.witness):
                # the same LP would come back and the loop would never end
                raise RuntimeError("separation returned an already stored cut")
            continue
        return FcCertificate(
            family=family,
            n=n,
            domain=domain,
            weights=tuple(point),
            symmetry=symmetry,
            proof=sep.proof,
        )


def _build_nonfc(
    family: Family,
    n: int,
    domain: Optional[Family],
    classes: list[list[Family]],
    farkas: FarkasCertificate,
    symmetry: bool,
) -> NonFcCertificate:
    lam = farkas.eq_multipliers[0]
    cut_mult: list[tuple[Family, Fraction]] = []
    for cls, y in zip(classes, farkas.ge_multipliers):
        share = y / len(cls)
        cut_mult.extend((cut, share) for cut in cls)
    # normalize so the aggregated right side is exactly 1; any single-field
    # change then breaks the replay
    rhs = sum(y * Fraction(len(c.members), 2) for c, y in cut_mult) + lam
    if rhs <= 0:
        raise RuntimeError("Farkas certificate has a nonpositive right side")
    cut_mult = [(c, y / rhs) for c, y in cut_mult]
    lam = lam / rhs
    cut_mult.sort(key=lambda pair: pair[0].members)
    return NonFcCertificate(
        family=family,
        n=n,
        domain=domain,
        cuts=[c for c, _ in cut_mult],
        multipliers=tuple(y for _, y in cut_mult),
        lam=lam,
        symmetry=symmetry,
    )


# ---------------------------------------------------------------------------
# certificate file format


def certificate_to_dict(cert: Certificate) -> dict:
    out = {
        "kind": cert.kind,
        "n": cert.n,
        "family": [list(s) for s in cert.family.member_sets()],
        "domain": "full" if cert.domain is None else [list(s) for s in cert.domain.member_sets()],
    }
    # cuts only for Non-FC, ahead of symmetry as Non-FC files have always
    # had them; an FC verdict rests on its weights and proof alone
    if isinstance(cert, NonFcCertificate):
        out["cuts"] = [[list(s) for s in cut.member_sets()] for cut in cert.cuts]
    out["symmetry"] = cert.symmetry
    if isinstance(cert, FcCertificate):
        out["weights"] = [frac_str(w) for w in cert.weights]
        out["proof"] = list(cert.proof)
    else:
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
        n, symmetry = data["n"], data["symmetry"]
        if type(n) is not int or type(symmetry) is not bool:
            raise CertificateError("n must be an integer and symmetry true or false")
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
            return FcCertificate(family, n, domain, weights, symmetry, proof)
        if kind == "non-fc":
            cuts = [Family.from_sets(n, f) for f in data["cuts"]]
            farkas = data["farkas"]
            multipliers = tuple(_rational(y) for y in farkas["multipliers"])
            if len(multipliers) != len(cuts):
                raise CertificateError("multiplier count does not match cut count")
            lam = _rational(farkas["lambda"])
            return NonFcCertificate(family, n, domain, cuts, multipliers, lam, symmetry)
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
