"""Isomorph-free enumeration of k-set families and the FC value drivers.

`get_nfc` is getNFC, the one enumeration behind FC(k, n) and FC_V(k, n),
memoized bottom-up over cells (u, k, m) of families of m distinct k-sets
with universe [u]; m = 1, the single k-set over [k], is its only base case.
An isomorphism class is named by its canonical family,
`canonical_form(f).relabeled`, which is frozen and hashable, so the class
sets of a cell and of a run hold these families.  Cell (u, k, m) extends each
parent of m-1 sets over [i], max(k, u-k) <= i <= u, by every k-set that
takes the fresh elements i+1..u and k-(u-i) old ones, so the new k-set
brings the missing elements.  A cell's parents are its Non-FC classes,
except that a session with a domain over [n] decides nothing in a cell
with u < n and keeps every class there as a parent: V-FC is defined only
for universe [n].  Cells with u = n are decided over the domain, and
without a domain every cell is decided over P([u]).  That reaches every
Non-FC class: dropping one member of a Non-FC family over [u] leaves a
universe of at least u - k elements, and either the universe shrinks below
the domain, where every class is a parent, or the subfamily is Non-FC too,
because FC is monotone under supersets and V-FC is monotone for a fixed
[n] and V (a larger <A> leaves A fewer constraints).

Both drivers share one known-FC rule.  A cell's `fc` set holds every class
known to be FC: those decided FC, and the extension classes skipped
because a one-down subfamily is in the previous level's `fc` set of its
universe size.  By monotonicity a skipped class is FC, so recording it
hides no Non-FC class.  Each extension class is tested once, and a class
is decided only when no one-down subfamily in a decided cell is FC: if F
extends the parent F - y and F - x is FC, then (F - x) - y lies in F - y,
is a parent too, and F - x was listed, so its class is in `fc`.  A
subfamily is canonicalized only when the previous level has an FC class of
its universe size, so runs whose previous levels are all Non-FC never
canonicalize one.

`fc_value` and `fcv_value` share one threshold scan, `_scan`, over the
levels m = 1..min(m_max, C(n, k)) that `_levels` reads off the getNFC
cells: u = k..n for FC, u = n for FC_V.  Each level gives its Non-FC class
count per (u, m) cell and the certificate of its first Non-FC class.  The
value is one past the last level with a Non-FC class, found at the first
clean level at or past a floor (1 for FC, n for FC_V).  The witness is the
first Non-FC class of that last level, and the report holds it only as the
family of its certificate, whatever the status, so no report has a witness
without its certificate.

`EnumSession.classify` is the one place where a driver, or the CLI's
getnfc, decides a family: with `is_fc` over the session's domain (all of
P([n]) unless one is given), streaming (family, certificate) pairs in input
order, so a caller keeps only the certificates it reports.  Each getNFC
cell keeps the certificate of its first Non-FC family, which the drivers
report as their witness without solving it again.  Each decision stops at
the earlier of the session's run deadline and its own start plus
`time_limit`.  With jobs > 1 the decisions fan out over one worker pool per
session.  Decisions use the session defaults, symmetry off and warm start
on, unless `fc_value` or `fcv_value` is given other values: `lex_scan`
takes only `progress` and `time_limit`, and `get_nfc` only `jobs` and
`deadline`.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

from .setfam import (
    Family,
    lex_ksets,
    no_singletons_family,
    universe,
)
from .canon import _twin_classes, canonical_form
from .fcsolve import (
    Certificate,
    FcCertificate,
    NonFcCertificate,
    is_fc,
)

ProgressFn = Callable[[str], None]

# one level of a threshold scan: its Non-FC class count per (u, m) cell, and
# the certificate of its first Non-FC family (None if clean)
Level = tuple[dict[tuple[int, int], int], Optional[NonFcCertificate]]


@dataclass
class NfcRegistry:
    """The parents and the known-FC classes of one (n, k, m) cell.

    A class is named by its canonical family, `canonical_form(f).relabeled`.
    `nfc` holds the cell's Non-FC classes in decision order, which is
    sorted order because candidates are sorted by members; below a
    session's domain it holds every class, undecided.  `fc` holds the
    classes known to be FC: decided FC, or skipped by `candidates`.
    Only the certificate of `nfc[0]`, the cell's witness, is kept: all
    Non-FC certificates of a cell can take megabytes.
    """

    nfc: list[Family] = field(default_factory=list)
    fc: set[Family] = field(default_factory=set)
    witness_certificate: Optional[NonFcCertificate] = None

    def record(self, fam: Family, cert: Certificate) -> None:
        if isinstance(cert, FcCertificate):
            self.fc.add(fam)
            return
        if not self.nfc:
            self.witness_certificate = cert
        self.nfc.append(fam)


@dataclass
class FcValueReport:
    """A threshold run's value and status, its Non-FC class counts, and the
    certificate of its witness, the first Non-FC class of the last level
    with one (None only when no level has a Non-FC class)."""

    k: int
    n: int
    value: Optional[int]
    status: str  # "found" | "undefined" | "exhausted"
    counts: dict[tuple[int, int], int]  # (universe size, m) -> Non-FC class count
    wall_time: float
    witness_certificate: Optional[NonFcCertificate]

    @property
    def witness(self) -> Optional[Family]:
        return None if self.witness_certificate is None else self.witness_certificate.family


@dataclass
class LexScanResult:
    m: int
    prefix_fc: FcCertificate
    # None when the predecessor prefix is itself FC over its smaller
    # universe, which happens in the trivial k = 3 scans; the bundle then
    # carries only the upper-bound half of the evidence.
    prev_nonfc: Optional[NonFcCertificate]


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


def _decide(family: Family, *, domain: Optional[Family], symmetry: bool, warm_start: bool,
            deadline: Optional[float], time_limit: Optional[float]) -> Certificate:
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
        decide = functools.partial(_decide, domain=self.domain, symmetry=self.symmetry,
                                   warm_start=self.warm_start, deadline=self.deadline,
                                   time_limit=self.time_limit)
        if self.jobs > 1 and len(fams) > 1:
            if self._pool is None:
                from multiprocessing import Pool

                self._pool = Pool(self.jobs)
            chunk = -(-len(fams) // (4 * self.jobs))  # Pool.map's default chunking
            return zip(fams, self._pool.imap(decide, fams, chunk))
        return zip(fams, map(decide, fams))

    def candidates(self, n: int, k: int, m: int) -> tuple[list[Family], set[Family]]:
        """The canonical families of the (n, k, m) cell, sorted by members,
        and those of the classes it skips as known FC: the single k-set
        at m = 1, else the extensions of the parents one member down (every
        class below the domain, else the Non-FC ones) whose one-down
        subfamilies are not known FC."""
        if not (n >= k >= 3):
            raise ValueError("need n >= k >= 3")
        self.check_deadline()
        if k * m < n or m > math.comb(n, k):
            return [], set()
        if m == 1:
            return [Family.from_masks(k, [(1 << k) - 1])], set()

        prev = {i: self.get_nfc(i, k, m - 1) for i in range(max(k, n - k), n + 1)}
        prev_fc = {i: reg.fc for i, reg in prev.items()}

        seen: set[Family] = set()  # tested once per class, kept or not
        candidates: list[Family] = []
        known_fc: set[Family] = set()
        for parent in (p for reg in prev.values() for p in reg.nfc):
            # the new set must cover the elements the parent's universe lacks
            for ext in _extensions(parent, k, n - parent.n):
                canon = canonical_form(ext).relabeled
                if canon in seen:
                    continue
                seen.add(canon)
                if _has_subfamily_in(ext, prev_fc):
                    known_fc.add(canon)
                else:
                    candidates.append(canon)
        candidates.sort(key=lambda f: f.members)
        self._say(f"getNFC({n},{k},{m}): {len(candidates)} candidates, "
                  f"{len(known_fc)} known FC")
        return candidates, known_fc

    def get_nfc(self, n: int, k: int, m: int) -> NfcRegistry:
        if (n, k, m) not in self.memo:
            candidates, known_fc = self.candidates(n, k, m)
            reg = NfcRegistry(fc=known_fc)
            if self.domain is not None and n < self.domain.n:
                reg.nfc = candidates
                self._say(f"getNFC({n},{k},{m}): {len(candidates)} classes kept undecided "
                          f"below [{self.domain.n}]")
            else:
                for fam, cert in self.classify(candidates):
                    reg.record(fam, cert)
                self._say(f"getNFC({n},{k},{m}): {len(reg.nfc)} Non-FC, {len(reg.fc)} FC")
            self.memo[n, k, m] = reg
        return self.memo[n, k, m]


def get_nfc(
    n: int, k: int, m: int, *, jobs: int = 1, deadline: Optional[float] = None
) -> list[Family]:
    """All pairwise nonisomorphic Non-FC families of m distinct k-sets with
    universe [n] (families containing a proper FC subfamily are not
    explored)."""
    with EnumSession(jobs, deadline=deadline) as session:
        return session.get_nfc(n, k, m).nfc


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
    if m_max is not None and m_max < 1:
        raise ValueError("m_max must be >= 1")
    cap = math.comb(n, k)
    last = cap if m_max is None else min(m_max, cap)
    with EnumSession(jobs, symmetry, warm_start, deadline, progress, time_limit) as session:
        return _scan(k, n, _levels(session, k, range(k, n + 1)), last, 1)


def lex_scan(
    k: int,
    n: int,
    *,
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
    with EnumSession(time_limit=time_limit) as session:
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
    universe exactly [n] is V-FC, from the getNFC cells (n, k, m) decided
    over V, whose recursion keeps every class over a smaller universe.

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
        # S_n-invariant iff swapping the first element with any other fixes it
        if any(_twin_classes(dom.members, n)):
            raise ValueError("isomorphism pruning needs a symmetric domain")
    with EnumSession(jobs, warm_start=warm_start, deadline=deadline, progress=progress,
                     time_limit=time_limit, domain=dom) as session:
        return _scan(k, n, _levels(session, k, [n]), math.comb(n, k), n)


def _levels(session: EnumSession, k: int, sizes: Sequence[int]) -> Iterator[Level]:
    """Levels m = 1, 2, ... of the getNFC cells (u, k, m), u in sizes."""
    for m in itertools.count(1):
        cells = {(u, m): session.get_nfc(u, k, m) for u in sizes}
        session._say(f"m={m}: {sum(len(reg.nfc) for reg in cells.values())} Non-FC classes")
        first = next((reg.witness_certificate for reg in cells.values() if reg.nfc), None)
        yield {cell: len(reg.nfc) for cell, reg in cells.items()}, first


def _scan(k: int, n: int, levels: Iterator[Level], last: int, floor: int) -> FcValueReport:
    """The threshold over levels m = 1..last <= C(n, k): one past the last
    level with a Non-FC class, found at the first clean level m >= floor;
    else "undefined" if level C(n, k) has a Non-FC class, "exhausted" if not."""
    t0 = time.monotonic()
    counts: dict[tuple[int, int], int] = {}
    last_bad = 0
    cert: Optional[NonFcCertificate] = None
    for m, (level_counts, first) in zip(range(1, last + 1), levels):
        counts.update(level_counts)
        if first is not None:
            last_bad, cert = m, first
        elif m >= floor:
            return FcValueReport(k, n, last_bad + 1, "found", counts, time.monotonic() - t0, cert)
    status = "undefined" if last_bad == math.comb(n, k) else "exhausted"
    return FcValueReport(k, n, None, status, counts, time.monotonic() - t0, cert)


def _has_subfamily_in(fam: Family, tables: dict[int, set[Family]]) -> bool:
    """Whether dropping one member of fam leaves a family whose canonical
    family is in the table of its universe size; a subfamily whose size has
    no table, or an empty one, is not canonicalized."""
    for drop in range(len(fam.members)):
        sub = Family.from_masks(fam.n, fam.members[:drop] + fam.members[drop + 1 :])
        table = tables.get(universe(sub).bit_count())
        if table and canonical_form(sub).relabeled in table:
            return True
    return False
