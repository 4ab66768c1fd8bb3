"""Set families over small ground sets.

A member set over the ground set [n] = {1, ..., n} is an integer bit mask
with bit i-1 set iff element i is present.  A family is an immutable,
sorted, duplicate-free tuple of such masks together with its ground size.
Parsed families, canonical forms and orbits cap the ground set at
`GROUND_CAP` = 16 elements, and the FC decision and its certificates at
`DECISION_GROUND_CAP` = 8; only the translate construction over Z_n x Z_n
uses wider masks (up to 256 cells), which is fine because Python integers
are arbitrary width and only counting operations ever touch those families.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

GROUND_CAP = 16
DECISION_GROUND_CAP = 8
WIDE_GROUND_CAP = 256


def mask_from_elements(elements: Iterable[int], n: int) -> int:
    """Build a member mask from 1-based element labels (ints, not booleans)."""
    mask = 0
    for e in elements:
        if type(e) is not int:
            raise ValueError(f"element {e!r} is not an integer")
        if not 1 <= e <= n:
            raise ValueError(f"element {e} out of range 1..{n}")
        mask |= 1 << (e - 1)
    return mask


def bits(x: int) -> list[int]:
    """The 0-based positions of the set bits of x, ascending: one loop step
    per set bit, each taking the lowest with x & -x."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def mask_elements(mask: int) -> tuple[int, ...]:
    """1-based element labels of a member mask, ascending."""
    # bit i-1 stands for element i, so one shift makes positions into labels
    return tuple(bits(mask << 1))


@dataclass(frozen=True)
class Family:
    """A finite family of subsets of [n], in normal form.

    Normal form: members strictly sorted by integer value of the bit mask.
    """

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= WIDE_GROUND_CAP:
            raise ValueError(f"ground size {self.n} not in 1..{WIDE_GROUND_CAP}")
        prev = -1
        for m in self.members:
            if m <= prev:
                raise ValueError("members must be strictly sorted and distinct")
            prev = m
        if self.members and self.members[-1] >> self.n:
            raise ValueError("member exceeds ground set")

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "Family":
        return cls(n, tuple(sorted(set(masks))))

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "Family":
        return cls.from_masks(n, (mask_from_elements(s, n) for s in sets))

    def member_sets(self) -> list[tuple[int, ...]]:
        return [mask_elements(m) for m in self.members]

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        body = ", ".join("{" + ",".join(map(str, s)) + "}" for s in self.member_sets())
        return f"Family(n={self.n}, {{{body}}})"


@dataclass(frozen=True)
class FrequencyTable:
    """Per-element membership counts of a family."""

    counts: tuple[int, ...]
    family_size: int

    @property
    def frankl_element(self) -> bool:
        """True iff some element lies in at least half of the members."""
        return any(2 * c >= self.family_size for c in self.counts)


def is_union_closed(family: Family) -> bool:
    members = family.members
    have = set(members)
    for i, s in enumerate(members):
        for t in members[i + 1 :]:
            if s | t not in have:
                return False
    return True


def parse_family(text: str, ground_size: Optional[int] = None) -> Family:
    """Parse the family text format.

    One member per line as comma-separated 1-based elements; "#" starts a
    comment; "{}" or a fully blank line is the empty set; an optional
    header line "n=<ground_size>" fixes the ground size (defaults to the
    maximum element seen); a repeated header must give the same size.
    """
    header_n = None
    raw_members: list[list[int]] = []
    for line in text.splitlines():
        had_comment = "#" in line
        body = line.split("#", 1)[0].strip()
        if not body:
            if not had_comment:
                raw_members.append([])  # blank line denotes the empty set
            continue
        if body == "{}":
            raw_members.append([])
            continue
        if body.lower().startswith("n="):
            line_n = int(body[2:].strip())
            if header_n not in (None, line_n):
                raise ValueError(f"header n={line_n} conflicts with header n={header_n}")
            header_n = line_n
            continue
        raw_members.append([int(tok) for tok in body.split(",") if tok.strip()])
    if ground_size is not None and header_n is not None and ground_size != header_n:
        raise ValueError(f"ground size {ground_size} conflicts with header n={header_n}")
    n = ground_size if ground_size is not None else header_n
    if n is None:
        n = max((max(m) for m in raw_members if m), default=0)
    if n < 1:
        raise ValueError("cannot determine a positive ground size")
    if n > GROUND_CAP:
        raise ValueError(f"ground size {n} exceeds cap {GROUND_CAP}")
    return Family.from_sets(n, raw_members)


def format_family(family: Family) -> str:
    """Render a family in the family text format."""
    lines = [f"n={family.n}"]
    for s in family.member_sets():
        lines.append(",".join(map(str, s)) if s else "{}")
    return "\n".join(lines) + "\n"


def union_closure(family: Family) -> Family:
    """Smallest union-closed family containing the input and the empty set."""
    closed = {0}
    for m in family.members:
        closed |= {m | x for x in closed}
    return Family(family.n, tuple(sorted(closed)))


def uplus(a: Family, b: Family) -> Family:
    """All pairwise unions {A u B : A in a, B in b}."""
    if a.n != b.n:
        raise ValueError(f"ground size mismatch: {a.n} != {b.n}")
    return Family.from_masks(a.n, (x | y for x in a.members for y in b.members))


def frequencies(family: Family) -> FrequencyTable:
    counts = [0] * family.n
    for m in family.members:
        for b in bits(m):
            counts[b] += 1
    return FrequencyTable(tuple(counts), len(family.members))


def universe(family: Family) -> int:
    """Union of all members, as a mask."""
    out = 0
    for m in family.members:
        out |= m
    return out


def compact_universe(family: Family) -> tuple[Family, tuple[int, ...]]:
    """Relabel the universe to [u] dropping unused ground elements.

    Returns the compacted family and the original universe elements in
    ascending order (the old label of new element i is the i-th entry).
    Families with an empty universe compact to ground size 1, and a family
    whose universe is already [n] comes back as it is.
    """
    uni = universe(family)
    if uni == (1 << family.n) - 1:
        return family, tuple(range(1, family.n + 1))
    elems = mask_elements(uni)
    pos = {e - 1: i for i, e in enumerate(elems)}
    masks = [sum(1 << pos[b] for b in bits(member)) for member in family.members]
    return Family.from_masks(max(1, len(elems)), masks), elems


def restrict_fiber(family: Family, t_mask: int, n: int) -> Family:
    """Members whose part above [n] equals t_mask, cut down to [n]."""
    if n > family.n:
        raise ValueError(f"fiber ground size {n} exceeds family ground size {family.n}")
    low = (1 << n) - 1
    if t_mask & low:
        raise ValueError("fiber tail intersects [n]")
    return Family.from_masks(
        n, (m & low for m in family.members if m & ~low == t_mask)
    )


def lex_ksets(n: int, k: int) -> list[int]:
    """All k-subsets of [n] in lexicographic order (A < B iff min(A^B) in A)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return [mask_from_elements(c, n) for c in itertools.combinations(range(1, n + 1), k)]


def lex_prefix(n: int, k: int, m: int) -> Family:
    """The first m k-subsets of [n] in lexicographic order."""
    order = lex_ksets(n, k)
    if not 1 <= m <= len(order):
        raise ValueError(f"prefix length {m} not in 1..{len(order)}")
    return Family.from_masks(n, order[:m])


def powerset_family(n: int) -> Family:
    """The full power set of [n] as a family."""
    if n > GROUND_CAP:
        raise ValueError(f"ground size {n} exceeds cap {GROUND_CAP}")
    return Family(n, tuple(range(1 << n)))


def no_singletons_family(n: int) -> Family:
    """All subsets of [n] except the singletons."""
    if n > GROUND_CAP:
        raise ValueError(f"ground size {n} exceeds cap {GROUND_CAP}")
    return Family(n, tuple(m for m in range(1 << n) if m.bit_count() != 1))


def translates_family(n: int, residues: Iterable[int]) -> Family:
    """Translates of R x {0} and {0} x R over the torus Z_n x Z_n.

    Cells are numbered (row, col) -> row*n + col + 1, so the ground set has
    n*n elements; this is the one wide-family construction.
    """
    r = sorted({x % n for x in residues})
    if len(r) != 3:
        raise ValueError("need exactly 3 distinct residues mod n")
    if n < 4:
        raise ValueError("need n >= 4")
    if n * n > WIDE_GROUND_CAP:
        raise ValueError(f"torus with {n * n} cells exceeds cap {WIDE_GROUND_CAP}")

    def cell(row: int, col: int) -> int:
        return 1 << (row * n + col)

    masks = set()
    for a in range(n):
        for b in range(n):
            masks.add(sum(cell((a + x) % n, b) for x in r))
            masks.add(sum(cell(a, (b + x) % n) for x in r))
    return Family.from_masks(n * n, masks)


def regularity(family: Family) -> Optional[int]:
    """Common degree of the universe elements, or None if not regular."""
    uni = universe(family)
    counts = frequencies(family).counts
    degs = {counts[i] for i in bits(uni)}
    return degs.pop() if len(degs) == 1 else None


def regular_3set_fc(family: Family) -> bool:
    """FC by counting: a regular family of 3-sets with degree >= 2 on a
    universe of at least 4 elements has at least ceil(2n/3) >= floor(n/2)+1
    members."""
    if any(m.bit_count() != 3 for m in family.members):
        return False
    if universe(family).bit_count() < 4:
        return False
    deg = regularity(family)
    return deg is not None and deg >= 2
