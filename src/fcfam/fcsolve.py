"""FC / V-FC decision procedure and replayable certificates.

A family A over [n] is FC iff some nonnegative weight vector c with
sum(c) = 1 satisfies  sum_i c_i |B_i| >= |B|/2  for every union-closed B in
the variable domain with <A> |+| B = B.  The decision alternates a pure
feasibility LP over the inequalities collected so far with the exact
separation solve: an LP-infeasibility ends in a Non-FC certificate (cuts
plus Farkas multipliers), a separation optimum <= 0 ends in an FC
certificate (the weights plus the cuts that pinned them down).

With symmetry enabled the LP is projected to one variable per automorphism
orbit of <A> (sound: averaging a feasible point over the group gives an
orbit-constant feasible point), every witness is stored with its full orbit
of images, and Farkas multipliers are spread uniformly over each orbit so
the emitted certificate replays over the original, unprojected system.  The
group enters only as the strong generating set of `canon.generating_set`:
the element orbits and each witness's images are closures of those
generators, so a decision never lists the group.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .setfam import (
    Family,
    UCFamily,
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
    frac,
    frac_str,
    lp_solve,
)
from .sepip import build_separation, solve_separation

ProgressFn = Callable[[str], None]

FC_GROUND_CAP = 8


class CertificateError(ValueError):
    """Structurally malformed certificate."""


@dataclass(frozen=True)
class Cut:
    """One inequality sum_i c_i|B_i| >= |B|/2, with cached counts."""

    family: Family
    size: int
    freq: tuple[int, ...]

    @classmethod
    def from_family(cls, fam: Family) -> "Cut":
        return cls(fam, len(fam.members), frequencies(fam).counts)

    def cache_consistent(self) -> bool:
        return self.size == len(self.family.members) and self.freq == frequencies(self.family).counts


@dataclass
class FcCertificate:
    family: Family
    n: int
    closure_size: int
    domain: Optional[Family]  # None means all of P([n])
    weights: tuple[Fraction, ...]
    cuts: list[Cut]
    symmetry: bool

    kind = "fc"


@dataclass
class NonFcCertificate:
    family: Family
    n: int
    closure_size: int
    domain: Optional[Family]
    cuts: list[Cut]
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
    assert value <= math.comb(n, k)
    return value


def symmetry_reduce(lp: LinearProgram, orbits: OrbitPartition) -> LinearProgram:
    """Project an LP to one variable per orbit by aggregating coefficients."""
    oid = orbits.orbit_id
    if len(oid) != lp.num_vars:
        raise ValueError("orbit partition size does not match variable count")
    k = orbits.num_orbits

    def reduce_row(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * k
        for j, c in enumerate(coeffs):
            out[oid[j]] += c
        return tuple(out)

    return LinearProgram(
        k,
        [(reduce_row(c), r) for c, r in lp.eq_rows],
        [(reduce_row(c), r) for c, r in lp.ge_rows],
    )


def lift_point(point: Sequence[Fraction], orbits: OrbitPartition) -> tuple[Fraction, ...]:
    """Replicate an orbit-space point back to the original variables."""
    return tuple(point[orbits.orbit_id[j]] for j in range(len(orbits.orbit_id)))


@dataclass
class _CutClass:
    images: list[Family]  # distinct orbit images, sorted by members
    rep_cut: Cut


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
    if n > FC_GROUND_CAP:
        raise ValueError(f"ground size {n} exceeds cap {FC_GROUND_CAP}")
    full = (1 << n) - 1
    if universe(family) != full:
        raise ValueError("family universe must be all of [n] (compact it first)")
    closure = union_closure(family)
    dom = domain if domain is not None else powerset_family(n)
    prob0 = build_separation(closure, _uniform_weights(n), dom)

    gens: list[tuple[int, ...]] = []
    orbit_part: Optional[OrbitPartition] = None
    if symmetry:
        gens = generating_set(closure)
        orbit_part = OrbitPartition.from_generators(gens, n)

    classes: list[_CutClass] = []
    seen: set[tuple[int, ...]] = set()

    def add_cut(fam: Family) -> bool:
        if fam.members in seen:
            return False
        images = family_orbit(fam, gens) if symmetry else [fam]
        for img in images:
            seen.add(img.members)
        classes.append(_CutClass(images, Cut.from_family(images[0])))
        return True

    if warm_start:
        # the classically strongest inequalities: B = <A> |+| P([n] \ {i}),
        # with the right factor cut down to the domain (the intersection is
        # still union-closed, and D being union-closed keeps B inside D)
        dom_set = set(dom.members)
        for i in range(n):
            rest = full & ~(1 << i)
            sub = [m for m in dom.members if m & rest == m]
            b = Family.from_masks(n, (a | s for a in closure.members for s in sub))
            if b.members and all(m in dom_set for m in b.members):
                add_cut(b)

    def expanded_cuts() -> list[Cut]:
        return sorted(
            (Cut.from_family(img) for cls in classes for img in cls.images),
            key=lambda cut: cut.family.members,
        )

    rounds = 0
    while True:
        rounds += 1
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("is_fc deadline exceeded")
        lp = LinearProgram(n)
        lp.add_eq([1] * n, 1)
        for cls in classes:
            lp.add_ge(cls.rep_cut.freq, Fraction(cls.rep_cut.size, 2))
        if symmetry:
            res = lp_solve(symmetry_reduce(lp, orbit_part))
        else:
            res = lp_solve(lp)
        if isinstance(res, Infeasible):
            return _build_nonfc(
                family, n, closure, domain, classes, res.certificate, symmetry
            )
        assert isinstance(res, Feasible)
        point = lift_point(res.point, orbit_part) if symmetry else res.point
        if progress:
            progress(f"round {rounds}: {len(classes)} cut classes, separating")
        prob = prob0.with_weights(point)
        sep = solve_separation(prob, mode="violation", deadline=deadline)
        if sep.optimum > 0:
            added = add_cut(sep.witness)
            assert added, "separation returned an already stored cut"
            continue
        return FcCertificate(
            family=family,
            n=n,
            closure_size=len(closure.members),
            domain=domain,
            weights=tuple(point),
            cuts=expanded_cuts(),
            symmetry=symmetry,
        )


def _uniform_weights(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1, n) for _ in range(n))


def _build_nonfc(
    family: Family,
    n: int,
    closure: UCFamily,
    domain: Optional[Family],
    classes: list[_CutClass],
    farkas: FarkasCertificate,
    symmetry: bool,
) -> NonFcCertificate:
    lam = farkas.eq_multipliers[0]
    cut_mult: list[tuple[Cut, Fraction]] = []
    for cls, y in zip(classes, farkas.ge_multipliers):
        share = y / len(cls.images)
        for img in cls.images:
            cut_mult.append((Cut.from_family(img), share))
    # normalize so the aggregated right side is exactly 1; any single-field
    # change then breaks the replay
    rhs = sum(y * Fraction(c.size, 2) for c, y in cut_mult) + lam
    assert rhs > 0
    cut_mult = [(c, y / rhs) for c, y in cut_mult]
    lam = lam / rhs
    cut_mult.sort(key=lambda pair: pair[0].family.members)
    return NonFcCertificate(
        family=family,
        n=n,
        closure_size=len(closure.members),
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
        "cuts": [[list(s) for s in cut.family.member_sets()] for cut in cert.cuts],
        "symmetry": cert.symmetry,
    }
    if isinstance(cert, FcCertificate):
        out["weights"] = [frac_str(w) for w in cert.weights]
    else:
        out["farkas"] = {
            "multipliers": [frac_str(y) for y in cert.multipliers],
            "lambda": frac_str(cert.lam),
        }
    return out


def certificate_from_dict(data: dict) -> Certificate:
    try:
        kind = data["kind"]
        n = int(data["n"])
        if not 1 <= n <= FC_GROUND_CAP:
            raise CertificateError(f"ground size {n} out of range")
        family = Family.from_sets(n, data["family"])
        domain = None
        if data["domain"] != "full":
            domain = Family.from_sets(n, data["domain"])
        cuts = [Cut.from_family(Family.from_sets(n, f)) for f in data["cuts"]]
        symmetry = bool(data["symmetry"])
        closure_size = len(union_closure(family).members)
        if kind == "fc":
            weights = tuple(frac(w) for w in data["weights"])
            if len(weights) != n:
                raise CertificateError("weight count does not match n")
            return FcCertificate(family, n, closure_size, domain, weights, cuts, symmetry)
        if kind == "non-fc":
            farkas = data["farkas"]
            multipliers = tuple(frac(y) for y in farkas["multipliers"])
            if len(multipliers) != len(cuts):
                raise CertificateError("multiplier count does not match cut count")
            lam = frac(farkas["lambda"])
            return NonFcCertificate(
                family, n, closure_size, domain, cuts, multipliers, lam, symmetry
            )
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
