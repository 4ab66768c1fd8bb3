"""Isomorph-free enumeration of k-set families and the FC value drivers.

`gen_noniso_families` produces one representative per isomorphism class by
incremental augmentation: each (m-1)-set representative over a compacted
universe [u] is extended by every k-set that takes j fresh elements
(canonically u+1..u+j) and k-j old ones, then deduplicated by canonical
form, so every representative is its own canonical form.  `get_nfc` is the
recursive Non-FC enumeration, memoized bottom-up over universe sizes
J = {max(k, n-k), ..., n}.  It extends each Non-FC parent over [i] by the
same rule with j = n - i, so the new k-set brings the missing elements.  It
rejects isomorphs against both accumulators and skips any extension
containing a proper FC subfamily (checked one member down against the
previous level's FC keys; an FC verdict there also covers deeper
containment because such families were pruned earlier).  A subfamily is
canonicalized for that check only when the previous level has an FC key of
its universe size, so runs whose previous levels are all Non-FC never
canonicalize a subfamily.  `fcv_value` skips families with a V-FC
subfamily by the same check.

`EnumSession.classify` is the one place where a driver, or the CLI's
getnfc, decides a family: with `is_fc` over the session's domain (all of
P([n]) unless one is given), streaming (family, certificate) pairs in input
order, so a caller keeps only the certificates it reports.  Each getNFC
cell keeps the certificate of its smallest Non-FC family, which `fc_value`
reports as its witness without solving it again.  Each decision stops at
the earlier of the session's run deadline and its own start plus
`time_limit`.  With jobs > 1 the decisions fan out over one worker pool per
session.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

from .setfam import (
    Family,
    compact_universe,
    lex_ksets,
    no_singletons_family,
)
from .canon import canonical_form
from .fcsolve import (
    Certificate,
    FcCertificate,
    NonFcCertificate,
    is_fc,
)

ProgressFn = Callable[[str], None]

CanonKey = tuple[int, tuple[int, ...]]


@dataclass
class NfcRegistry:
    """Non-FC families and FC keys of one (n, k, m) cell, by canonical form.

    `witness` is `nfc_sorted()[0]`, and its certificate is the only one kept:
    all Non-FC certificates of a cell can take megabytes.
    """

    nfc: dict[CanonKey, Family] = field(default_factory=dict)
    fc: set[CanonKey] = field(default_factory=set)
    witness: Optional[Family] = None
    witness_certificate: Optional[NonFcCertificate] = None

    def record(self, key: CanonKey, fam: Family, cert: Certificate) -> None:
        if isinstance(cert, FcCertificate):
            self.fc.add(key)
            return
        self.nfc[key] = fam
        if self.witness is None or (fam.n, fam.members) < (self.witness.n, self.witness.members):
            self.witness, self.witness_certificate = fam, cert

    def nfc_sorted(self) -> list[Family]:
        return sorted(self.nfc.values(), key=lambda f: (f.n, f.members))


@dataclass
class FcValueReport:
    k: int
    n: int
    value: Optional[int]
    status: str  # "found" | "undefined" | "exhausted"
    witness: Optional[Family]
    counts: dict[tuple[int, int], int]  # (universe size, m) -> Non-FC class count
    wall_time: float
    witness_certificate: Optional[NonFcCertificate] = None


@dataclass
class LexScanResult:
    m: int
    prefix_fc: FcCertificate
    # None when the predecessor prefix is itself FC over its smaller
    # universe, which happens in the trivial k = 3 scans; the bundle then
    # carries only the upper-bound half of the evidence.
    prev_nonfc: Optional[NonFcCertificate]


def noniso_levels(n: int, k: int, m_max: int) -> Iterator[list[Family]]:
    """Yield representatives of families of m distinct k-sets over ground
    sets of at most n elements (universes compacted to [u]), m = 1..m_max."""
    if k > n or m_max < 1:
        return
    level = [Family.from_masks(k, [(1 << k) - 1])]
    yield level
    for _ in range(2, m_max + 1):
        registry: dict[CanonKey, Family] = {}
        for fam in level:
            for j in range(0, min(k, n - fam.n) + 1):
                for ext in _extensions(fam, k, j):
                    cf = canonical_form(ext)
                    registry.setdefault(cf.key, cf.relabeled)
        level = sorted(registry.values(), key=lambda f: (f.n, f.members))
        yield level


def _extensions(fam: Family, k: int, j: int) -> Iterator[Family]:
    """fam over its universe [u] plus one new k-set that takes the fresh
    elements u+1..u+j and k-j old ones, over [u+j]."""
    u = fam.n
    memberset = set(fam.members)
    for combo in itertools.combinations(range(u), k - j):
        s = ((1 << j) - 1) << u
        for e in combo:
            s |= 1 << e
        if s not in memberset:
            yield Family.from_masks(u + j, fam.members + (s,))


def gen_noniso_families(n: int, k: int, m: int) -> list[Family]:
    """One representative per isomorphism class of families of m distinct
    k-sets with universe exactly [n]; empty when the parameters are
    impossible."""
    if m < 1:
        raise ValueError("m must be positive")
    if k > n or k * m < n or m > math.comb(n, k):
        return []
    last: list[Family] = []
    for level in itertools.islice(noniso_levels(n, k, m), m - 1, m):
        last = level
    return [f for f in last if f.n == n]


def _decide(
    args: tuple[Family, Optional[Family], bool, bool, Optional[float], Optional[float]]
) -> Certificate:
    family, domain, symmetry, warm_start, deadline, time_limit = args
    # monotonic clock values are system-wide, so a session deadline holds in workers too
    if time_limit:
        own = time.monotonic() + time_limit
        deadline = own if deadline is None else min(deadline, own)
    return is_fc(
        family, symmetry=symmetry, warm_start=warm_start, domain=domain, deadline=deadline
    )


class EnumSession:
    """Shared memo of getNFC cells plus the isFC configuration.

    A context manager: the worker pool of jobs > 1 opens on first use and
    closes with the session.
    """

    def __init__(
        self,
        jobs: int = 1,
        symmetry: bool = False,
        warm_start: bool = True,
        deadline: Optional[float] = None,
        progress: Optional[ProgressFn] = None,
        time_limit: Optional[float] = None,
        domain: Optional[Family] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.symmetry = symmetry
        self.warm_start = warm_start
        self.deadline = deadline
        self.time_limit = time_limit  # per isFC call
        self.domain = domain  # None means all of P([n])
        self.progress = progress
        self.memo: dict[tuple[int, int, int], NfcRegistry] = {}
        self._pool = None

    def __enter__(self) -> "EnumSession":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def _say(self, msg: str) -> None:
        if self.progress:
            self.progress(msg)

    def check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise TimeoutError("enumeration deadline exceeded")

    def classify(self, fams: Sequence[Family]) -> Iterator[tuple[Family, Certificate]]:
        """Decide each family lazily, yielding (family, certificate) in input order."""
        config = (self.domain, self.symmetry, self.warm_start, self.deadline, self.time_limit)
        args = [(f, *config) for f in fams]
        if self.jobs > 1 and len(fams) > 1:
            if self._pool is None:
                from multiprocessing import Pool

                self._pool = Pool(self.jobs)
            chunk = -(-len(args) // (4 * self.jobs))  # Pool.map's default chunking
            return zip(fams, self._pool.imap(_decide, args, chunk))
        return zip(fams, map(_decide, args))

    def candidates(self, n: int, k: int, m: int) -> list[Family]:
        """The canonical families the (n, k, m) cell decides, sorted by
        members: every class at the base level, else the extensions of the
        Non-FC families one member down that contain no FC subfamily."""
        if not (n >= k >= 3):
            raise ValueError("need n >= k >= 3")
        self.check_deadline()
        if k * m < n or m > math.comb(n, k):
            return []
        if k * (m - 1) < n:
            # gen_noniso_families already returns canonical representatives
            return gen_noniso_families(n, k, m)

        j_range = range(max(k, n - k), n + 1)
        parents: list[Family] = []
        for i in j_range:
            parents.extend(self.get_nfc(i, k, m - 1).nfc_sorted())
        prev_fc: dict[int, set[CanonKey]] = {i: self.get_nfc(i, k, m - 1).fc for i in j_range}

        pending: set[CanonKey] = set()
        candidates: list[Family] = []
        for parent in parents:
            # the new set must cover the elements the parent's universe lacks
            for ext in _extensions(parent, k, n - parent.n):
                cf = canonical_form(ext)
                if cf.key in pending:
                    continue
                if _has_subfamily_in(ext, prev_fc):
                    continue
                pending.add(cf.key)
                candidates.append(cf.relabeled)
        candidates.sort(key=lambda f: f.members)
        self._say(f"getNFC({n},{k},{m}): {len(candidates)} candidates to classify")
        return candidates

    def get_nfc(self, n: int, k: int, m: int) -> NfcRegistry:
        if (n, k, m) not in self.memo:
            reg = NfcRegistry()
            for fam, cert in self.classify(self.candidates(n, k, m)):
                reg.record((fam.n, fam.members), fam, cert)
            self._say(f"getNFC({n},{k},{m}): {len(reg.nfc)} Non-FC, {len(reg.fc)} FC")
            self.memo[n, k, m] = reg
        return self.memo[n, k, m]


def get_nfc(
    n: int,
    k: int,
    m: int,
    *,
    jobs: int = 1,
    symmetry: bool = False,
    warm_start: bool = True,
    deadline: Optional[float] = None,
    progress: Optional[ProgressFn] = None,
    time_limit: Optional[float] = None,
) -> list[Family]:
    """All pairwise nonisomorphic Non-FC families of m distinct k-sets with
    universe [n] (families containing a proper FC subfamily are not
    explored)."""
    with EnumSession(jobs, symmetry, warm_start, deadline, progress, time_limit) as session:
        return session.get_nfc(n, k, m).nfc_sorted()


def fc_value(
    k: int,
    n: int,
    m_max: Optional[int] = None,
    *,
    jobs: int = 1,
    symmetry: bool = False,
    warm_start: bool = True,
    deadline: Optional[float] = None,
    progress: Optional[ProgressFn] = None,
    time_limit: Optional[float] = None,
) -> FcValueReport:
    """Least m such that every family of m distinct k-sets over any universe
    of at most n elements is FC; "undefined" when even the complete family
    of all k-subsets of [n] is Non-FC."""
    if not (n > k >= 3):
        raise ValueError("need n > k >= 3")
    t0 = time.monotonic()
    cap = math.comb(n, k)
    counts: dict[tuple[int, int], int] = {}
    witness_cell: Optional[NfcRegistry] = None  # first nonempty cell of the last Non-FC level
    value: Optional[int] = None
    status = "exhausted"
    m = 1
    with EnumSession(jobs, symmetry, warm_start, deadline, progress, time_limit) as session:
        while m <= (m_max if m_max is not None else cap):
            cells = [session.get_nfc(i, k, m) for i in range(k, n + 1)]
            for i, reg in zip(range(k, n + 1), cells):
                counts[(i, m)] = len(reg.nfc)
            if progress:
                progress(f"fc_value({k},{n}): m={m} Non-FC classes="
                         f"{sum(len(reg.nfc) for reg in cells)}")
            level_cell = next((reg for reg in cells if reg.nfc), None)
            if level_cell is None:
                value, status = m, "found"
                break
            witness_cell = level_cell
            m += 1
        else:
            if m_max is None or m_max >= cap:
                status = "undefined"
    witness = witness_cell.witness if witness_cell else None
    cert = witness_cell.witness_certificate if witness_cell and status == "found" else None
    return FcValueReport(
        k, n, value, status, witness, counts, time.monotonic() - t0, cert
    )


def lex_scan(
    k: int,
    n: int,
    *,
    symmetry: bool = False,
    warm_start: bool = True,
    deadline: Optional[float] = None,
    progress: Optional[ProgressFn] = None,
    time_limit: Optional[float] = None,
) -> LexScanResult:
    """First m such that the length-m lexicographic prefix of k-subsets of
    [n] is FC, with certificates for that prefix and the one before it."""
    if not (n > k >= 3):
        raise ValueError("need n > k >= 3")
    order = lex_ksets(n, k)
    # the sets {1..k-1, j}, j = k..n, make the shortest prefix over all of [n]
    m0 = n - k + 1
    prefixes = [Family.from_masks(n, order[:m]) for m in range(m0, len(order) + 1)]
    prev_nonfc: Optional[NonFcCertificate] = None
    with EnumSession(
        symmetry=symmetry, warm_start=warm_start, deadline=deadline, time_limit=time_limit
    ) as session:
        # one job, so classify decides lazily and the scan stops at the first FC prefix
        for fam, cert in session.classify(prefixes):
            m = len(fam.members)
            if progress:
                progress(f"lex_scan({k},{n}): prefix {m} is {cert.kind}")
            if isinstance(cert, NonFcCertificate):
                prev_nonfc = cert
                continue
            if m == m0:
                # the predecessor lies on [n-1], so the scan never decided it
                _, prev_cert = next(session.classify([Family.from_masks(n - 1, order[: m - 1])]))
                if isinstance(prev_cert, NonFcCertificate):
                    prev_nonfc = prev_cert
            return LexScanResult(m, cert, prev_nonfc)
    raise ValueError(f"no FC prefix up to C({n},{k})")


def fcv_value(
    k: int,
    n: int,
    v_spec: Union[str, Family] = "no-singletons",
    *,
    jobs: int = 1,
    warm_start: bool = True,
    deadline: Optional[float] = None,
    progress: Optional[ProgressFn] = None,
    time_limit: Optional[float] = None,
) -> FcValueReport:
    """Least m such that every family of at least m distinct k-sets with
    universe exactly [n] is V-FC, by brute force over isomorphism classes.

    Scanning each exact level m suffices: a V-FC subfamily makes its
    supersets V-FC, and any family of more than n sets keeps universe [n]
    after dropping some member, so once a level at or beyond n is clean all
    larger levels are clean too.
    """
    if not (n > k >= 3):
        raise ValueError("need n > k >= 3")
    if isinstance(v_spec, str):
        if v_spec != "no-singletons":
            raise ValueError(f"unknown domain spec {v_spec!r}")
        dom = no_singletons_family(n)
    else:
        dom = v_spec
        if dom.n != n:
            raise ValueError("domain ground size mismatch")
        if not _is_symmetric_family(dom):
            raise ValueError("isomorphism pruning needs a symmetric domain")
    t0 = time.monotonic()
    cap = math.comb(n, k)
    counts: dict[tuple[int, int], int] = {}
    bad_levels: list[int] = []
    witness: Optional[Family] = None
    witness_cert: Optional[NonFcCertificate] = None
    prev_vfc: set[CanonKey] = set()
    levels = noniso_levels(n, k, cap)
    value: Optional[int] = None
    status = "found"
    with EnumSession(
        jobs, warm_start=warm_start, deadline=deadline, time_limit=time_limit, domain=dom
    ) as session:
        for m in range(1, cap + 1):
            session.check_deadline()
            level = next(levels)
            reps = [f for f in level if f.n == n]
            vfc_here: set[CanonKey] = set()
            to_solve: list[Family] = []
            for fam in reps:
                if _has_subfamily_in(fam, {n: prev_vfc}):
                    vfc_here.add((fam.n, fam.members))
                else:
                    to_solve.append(fam)
            bad_here = 0
            for fam, cert in session.classify(to_solve):
                if isinstance(cert, FcCertificate):
                    vfc_here.add((fam.n, fam.members))
                else:
                    bad_here += 1
                    witness, witness_cert = fam, cert
            counts[(n, m)] = bad_here
            if progress:
                progress(
                    f"fcv_value({k},{n}): m={m} classes={len(reps)} "
                    f"solved={len(to_solve)} non-V-FC={bad_here}"
                )
            if bad_here:
                bad_levels.append(m)
            prev_vfc = vfc_here
            if not bad_here and m >= n:
                break
        else:
            if bad_levels and bad_levels[-1] == cap:
                status = "undefined"
    if status != "undefined":
        value = (bad_levels[-1] + 1) if bad_levels else 1
    return FcValueReport(
        k, n, value, status, witness, counts, time.monotonic() - t0,
        witness_cert if status == "found" else None,
    )


def _has_subfamily_in(fam: Family, tables: dict[int, set[CanonKey]]) -> bool:
    """Whether dropping one member of fam leaves a family whose canonical key
    is in the table of its compacted universe size; a subfamily whose size
    has no table, or an empty one, is not canonicalized."""
    for drop in range(len(fam.members)):
        rest = fam.members[:drop] + fam.members[drop + 1 :]
        sub, _ = compact_universe(Family.from_masks(fam.n, rest))
        table = tables.get(sub.n)
        if table and canonical_form(sub).key in table:
            return True
    return False


def _is_symmetric_family(dom: Family) -> bool:
    """Invariant under all transpositions (i, i+1), hence under S_n."""
    memberset = set(dom.members)
    for i in range(dom.n - 1):
        a, b = 1 << i, 1 << (i + 1)
        for m in dom.members:
            if bool(m & a) != bool(m & b) and (m ^ a ^ b) not in memberset:
                return False
    return True
