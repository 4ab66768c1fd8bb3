"""Isomorph-free enumeration of k-set families and the FC value drivers.

`get_nfc` is getNFC, the one enumeration behind FC(k, n) and FC_V(k, n),
memoized bottom-up over cells (u, k, m) of families of m distinct k-sets
with universe [u]; m = 1, the single k-set over [k], is its only base case.
An isomorphism class is named by its canonical family, which
`canonical_form` returns frozen and hashable, so the class sets of a cell
and of a run hold these families.  Cell (u, k, m) extends each
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

Both drivers share one known-FC rule.  A cell's `fc` set holds the classes
known to be FC: those decided FC, and the extension classes skipped because
dropping a member of the parent leaves a class in the previous level's `fc`
set of its universe size.  By monotonicity a skipped class is FC, so
recording it hides no Non-FC class, and each extension class is tested
once.  The test saves decisions and is not needed for exactness: an FC
class whose every deletion of a member of maximum invariant (below) is FC
is never listed, so an extension that holds it may be decided FC instead of
skipped.  The subfamily test runs only in a cell whose previous level knows
an FC class, and there it canonicalizes a subfamily only when the previous
level has an FC class of its universe size.

Before canonical labeling, `candidates` keeps one new set per orbit of the
parent's twin transpositions.  Elements i and j of the parent are twins
when the transposition (i j) fixes it (`canon.twin_classes`); twins form an
equivalence, and their transpositions generate the product of the
symmetric groups on the twin classes, a subgroup of Aut(parent).  Two new
sets that meet every twin class in equally many elements are images of
each other under it, so they extend the parent to isomorphic families, and
a new set is kept only if it meets each class in that class's lowest
elements.  The fresh elements lie outside the parent and stay fixed.  The
test runs first, and it drops no class: the invariant filter below
compares an invariant of the extension and its new member, and the
subfamily test labels the extension less each member of the parent, which
the parent's automorphisms permute, so both answer a dropped set as they
answer its kept image.

Next, `candidates` drops an extension whose new set does not reach the
maximum of a member invariant over the extension: the degree sum of the
member's elements, then the sorted sizes of its intersections with the
other members, both unchanged by relabeling (the cheap half of McKay's
canonical deletion, *J. Algorithms* 26, 1998).  Ties pass, and a class
already kept, as a candidate or as known FC, is skipped.  Each extension's
invariants are computed afresh, and they compare the degree sums first, so
the intersection sizes decide only a tie.  The filter drops no Non-FC
class, and below the domain no class.  Let F be such a class and y a
member of maximum invariant: by the argument above, F - y is a parent, and
its canonical family plus the image of y is a copy of F whose new set has
the maximum, as has the image of that set that the twin test keeps.  F has
no FC subfamily, so the subfamily test does not skip it.  So the Non-FC
classes, their counts and the witnesses are those of full extension, and
the classes full extension lists and `candidates` does not are FC.

`fc_value` and `fcv_value` share one threshold scan, `_scan`, which reads
the levels m = 1..min(m_max, C(n, k)) off the getNFC cells (u, k, m):
u = k..n for FC, u = n for FC_V.  Each level gives its Non-FC class
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

from .setfam import Family, lex_ksets, no_singletons_family, universe
from .canon import canonical_form, twin_classes
from .fcsolve import (
    Certificate,
    FcCertificate,
    NonFcCertificate,
    ProgressFn,
    is_fc,
)


@dataclass
class NfcRegistry:
    """The parents and the known-FC classes of one (n, k, m) cell.

    A class is named by its canonical family (see `canonical_form`).
    `nfc` holds the cell's Non-FC classes in decision order, which is
    sorted order because candidates are sorted by members; below a
    session's domain it holds every class, undecided.  `fc` holds the
    classes known to be FC: decided FC, or skipped by `candidates`.
    Only the certificate of `nfc[0]`, the cell's witness, is kept: all
    Non-FC certificates of a cell can take megabytes.  A Non-FC
    certificate is built on first read (see `NonFcCertificate.pending`),
    so the ones dropped here are never built.
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


def _new_sets(fam: Family, k: int, j: int) -> Iterator[int]:
    """The k-sets that extend fam over its universe [u] to a family over
    [u+j]: each takes the fresh elements u+1..u+j and k-j old ones, and is
    not a member already."""
    u = fam.n
    memberset = set(fam.members)
    for combo in itertools.combinations(range(u), k - j):
        s = ((1 << j) - 1) << u
        for e in combo:
            s |= 1 << e
        if s not in memberset:
            yield s


def _member_invariant(members: Sequence[int], s: int) -> tuple[int, list[int]]:
    """The degree sum of member s's elements and the sorted sizes of s & y
    over the other members y: unchanged when the family is relabeled."""
    meets = sorted((s & y).bit_count() for y in members if y != s)
    return s.bit_count() + sum(meets), meets


def _new_set_wins(old: Sequence[int], s: int) -> bool:
    """Whether the new set s has the maximum member invariant in the
    extension of the members `old` by s; ties win."""
    members = (*old, s)
    mine = _member_invariant(members, s)
    return all(_member_invariant(members, y) <= mine for y in old)


def _twin_gate(parent: Family) -> Callable[[int], bool]:
    """Whether a new set s meets every twin class of the parent in that
    class's lowest elements.

    Each twin is linked to the one before it in its class, and s passes
    when it holds the earlier element of every link whose later one it
    holds, so every s passes when the parent has no twins.  Fresh elements
    lie outside the parent and are never linked.
    """
    last: dict[int, int] = {}
    links = []
    for e, rep in enumerate(twin_classes(parent.members, parent.n)):
        if rep != e:
            links.append((1 << e, 1 << last[rep]))
        last[rep] = e
    return lambda s: all(s & earlier or not s & later for later, earlier in links)


def _decide(family: Family, *, domain: Optional[Family], symmetry: bool, warm_start: bool,
            deadline: Optional[float], time_limit: Optional[float]) -> Certificate:
    # monotonic clock values are system-wide, so a session deadline holds in workers too
    if time_limit is not None:
        own = time.monotonic() + time_limit
        deadline = own if deadline is None else min(deadline, own)
    return is_fc(
        family, symmetry=symmetry, warm_start=warm_start, domain=domain, deadline=deadline
    )


class EnumSession:
    """Shared memo of getNFC cells plus `decide`, isFC bound to the session's
    configuration once.

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
        if time_limit is not None and time_limit <= 0:
            raise ValueError("time_limit must be > 0")
        self.jobs = jobs
        self.deadline = deadline
        self.domain = domain  # None means all of P([n])
        self.progress = progress
        # every decision of the session; time_limit bounds each one
        self.decide = functools.partial(_decide, domain=domain, symmetry=symmetry,
                                        warm_start=warm_start, deadline=deadline,
                                        time_limit=time_limit)
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
        if self.jobs > 1 and len(fams) > 1:
            if self._pool is None:
                from multiprocessing import Pool

                self._pool = Pool(self.jobs)
            chunk = -(-len(fams) // (4 * self.jobs))  # Pool.map's default chunking
            return zip(fams, self._pool.imap(self.decide, fams, chunk))
        return zip(fams, map(self.decide, fams))

    def candidates(self, n: int, k: int, m: int) -> tuple[list[Family], set[Family]]:
        """The canonical families of the (n, k, m) cell, sorted by members,
        and those of the classes it skips as known FC: the single k-set
        at m = 1, else the extensions of the parents one member down (every
        class below the domain, else the Non-FC ones) that no parent member's
        deletion puts in a known-FC class.  An extension is canonicalized
        only if its new set meets each twin class of the parent in its
        lowest elements (every new set of a parent without twins does) and
        has the maximum member invariant (`_new_set_wins`); the subfamily
        test runs only once the previous level knows an FC class.  No
        Non-FC class is lost (see the module docstring)."""
        if not (n >= k >= 3):
            raise ValueError("need n >= k >= 3")
        if m < 1:
            raise ValueError("m must be >= 1")
        self.check_deadline()
        if k * m < n or m > math.comb(n, k):
            return [], set()
        if m == 1:
            return [Family.from_masks(k, [(1 << k) - 1])], set()

        prev = {i: self.get_nfc(i, k, m - 1) for i in range(max(k, n - k), n + 1)}
        prev_fc = {i: reg.fc for i, reg in prev.items() if reg.fc}
        # every class tested lands in one of these two, so it is tested once
        candidates: set[Family] = set()
        known_fc: set[Family] = set()
        for parent in (p for reg in prev.values() for p in reg.nfc):
            # the new set must cover the elements the parent's universe lacks
            new_sets = _new_sets(parent, k, n - parent.n)
            # one new set per orbit of the twin transpositions, which fix the parent
            new_sets = filter(_twin_gate(parent), new_sets)
            # new sets of maximum member invariant still reach every Non-FC class
            new_sets = filter(functools.partial(_new_set_wins, parent.members), new_sets)
            for s in new_sets:
                ext = Family.from_masks(n, parent.members + (s,))
                canon = canonical_form(ext)
                if canon in candidates or canon in known_fc:
                    continue
                if prev_fc and _has_subfamily_in(ext, parent.members, prev_fc):
                    known_fc.add(canon)
                else:
                    candidates.add(canon)
        self._say(f"getNFC({n},{k},{m}): {len(candidates)} candidates, "
                  f"{len(known_fc)} known FC")
        return sorted(candidates, key=lambda f: f.members), known_fc

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
        return _scan(session, k, n, range(k, n + 1), last, 1)


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
        # S_n-invariant iff it holds all or none of the r-subsets of [n], each r
        sizes = [s.bit_count() for s in dom.members]
        if any(sizes.count(r) not in (0, math.comb(n, r)) for r in range(n + 1)):
            raise ValueError("isomorphism pruning needs a symmetric domain")
    with EnumSession(jobs, warm_start=warm_start, deadline=deadline, progress=progress,
                     time_limit=time_limit, domain=dom) as session:
        return _scan(session, k, n, [n], math.comb(n, k), n)


def _scan(session: EnumSession, k: int, n: int, sizes: Sequence[int], last: int,
          floor: int) -> FcValueReport:
    """The threshold over levels m = 1..last <= C(n, k) of the getNFC cells
    (u, k, m), u in sizes: one past the last level with a Non-FC class,
    found at the first clean level m >= floor; else "undefined" if level
    C(n, k) has a Non-FC class, "exhausted" if not."""
    t0 = time.monotonic()
    counts: dict[tuple[int, int], int] = {}
    last_bad = 0
    cert: Optional[NonFcCertificate] = None
    for m in range(1, last + 1):
        cells = [session.get_nfc(u, k, m) for u in sizes]
        counts.update(((u, m), len(reg.nfc)) for u, reg in zip(sizes, cells))
        session._say(f"m={m}: {sum(len(reg.nfc) for reg in cells)} Non-FC classes")
        first = next((reg.witness_certificate for reg in cells if reg.nfc), None)
        if first is not None:
            last_bad, cert = m, first
        elif m >= floor:
            return FcValueReport(k, n, last_bad + 1, "found", counts, time.monotonic() - t0, cert)
    status = "undefined" if last_bad == math.comb(n, k) else "exhausted"
    return FcValueReport(k, n, None, status, counts, time.monotonic() - t0, cert)


def _has_subfamily_in(fam: Family, old: Sequence[int], tables: dict[int, set[Family]]) -> bool:
    """Whether dropping one member of fam that is in old, the parent's
    members, leaves a family whose canonical family is in the table of its
    universe size, a set of classes known to be FC; a subfamily whose size
    has no table, or an empty one, is not canonicalized.  Dropping the new
    set gives back the parent, a Non-FC class or one below the domain,
    never in a table.  An FC subfamily that the member-invariant filter
    never listed is in no table, so a family that holds it is decided."""
    for y in old:
        sub = Family.from_masks(fam.n, [x for x in fam.members if x != y])
        table = tables.get(universe(sub).bit_count())
        if table and canonical_form(sub) in table:
            return True
    return False
