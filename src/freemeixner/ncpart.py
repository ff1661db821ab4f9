"""Non-crossing set partitions of {1..n}.

No library computation runs over these objects: the transforms, the
Meixner cumulants and the joint moments of free pairs all use equivalent
first-block recursions.  The public enumerators are the combinatorial
oracle those recursions are tested against.  Both enumerate by one
first-block recursion, memoized within a call; the module keeps no state
between calls.
Partitions are kept in a canonical form -- blocks sorted by least element,
elements ascending inside a block -- so they can be hashed, compared and
deduplicated.
"""

from __future__ import annotations

import itertools

from .errors import EnumerationCapError
from .scalars import Frozen

# Enumeration sizes grow like the Catalan numbers; past this point a single
# call would materialize tens of millions of blocks.
DEFAULT_ENUMERATION_CAP = 14


class Partition(Frozen):
    """A set partition of {1..n} in canonical block order."""

    __slots__ = ("n", "blocks")
    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, n, blocks):
        if n < 0:
            raise ValueError(f"ground set size must be >= 0, got {n}")
        seen = set()
        prev_least = 0
        for block in blocks:
            if not block:
                raise ValueError("empty block")
            if list(block) != sorted(block):
                raise ValueError(f"block {block} is not sorted")
            if block[0] <= prev_least:
                raise ValueError("blocks are not ordered by least element")
            prev_least = block[0]
            for i in block:
                if not 1 <= i <= n:
                    raise ValueError(f"element {i} outside 1..{n}")
                if i in seen:
                    raise ValueError(f"element {i} appears twice")
                seen.add(i)
        if len(seen) != n:
            raise ValueError("blocks do not cover the ground set")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def _trusted(cls, n, blocks):
        """Build a Partition the enumerators already know to be canonical,
        skipping the validation in ``__init__``."""
        part = object.__new__(cls)
        object.__setattr__(part, "n", n)
        object.__setattr__(part, "blocks", blocks)
        return part

    @classmethod
    def from_blocks(cls, n, blocks):
        """Build a Partition, canonicalizing block and element order."""
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        return cls(n, canon)

    @property
    def block_count(self):
        return len(self.blocks)

    def __repr__(self):
        inner = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"Partition({self.n}, {{{inner}}})"


def singleton_count(p: Partition) -> int:
    """Number of blocks of size 1."""
    return sum(1 for b in p.blocks if len(b) == 1)


def is_crossing(p: Partition) -> bool:
    """True iff two blocks interleave as i1 < j1 < i2 < j2."""
    for b1, b2 in itertools.combinations(p.blocks, 2):
        # Walk the merged order of the two blocks and collapse runs of equal
        # labels; an alternation of length >= 4 is exactly a crossing.
        merged = sorted(((i, 0) for i in b1), key=lambda t: t[0])
        merged = sorted(merged + [(j, 1) for j in b2], key=lambda t: t[0])
        switches = 1
        last = merged[0][1]
        for _, label in merged[1:]:
            if label != last:
                switches += 1
                last = label
        if switches >= 4:
            return True
    return False


def _shift(blocks, offset):
    return tuple(tuple(i + offset for i in b) for b in blocks)


def _nc_blocks(n, largest):
    """Non-crossing partitions of {1..n} whose blocks have at most
    ``largest`` elements, as canonical block tuples.

    Every other block fits in one gap of the block holding 1: between two
    of its members, or after the last.  A gap is a shorter segment split
    the same way, so segments are memoized by length within the call."""
    memo = {0: ((),)}

    def segment(m):
        if m not in memo:
            out = []
            for size in range(min(m, largest)):
                for tail in itertools.combinations(range(2, m + 1), size):
                    first = (1,) + tail
                    bounds = first + (m + 1,)
                    gap_parts = [
                        [_shift(part, lo) for part in segment(hi - lo - 1)]
                        for lo, hi in zip(first, bounds[1:])
                    ]
                    for combo in itertools.product(*gap_parts):
                        blocks = (first,)
                        for sub in combo:
                            blocks += sub
                        out.append(blocks)
            memo[m] = tuple(out)
        return memo[m]

    return segment(n)


def _check_cap(n, cap):
    if n < 0:
        raise ValueError(f"ground set size must be >= 0, got {n}")
    if n > cap:
        raise EnumerationCapError(
            f"refusing to enumerate partitions of {n} elements (cap {cap})"
        )


def enumerate_nc(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> list[Partition]:
    """All non-crossing partitions of {1..n}, canonical, no duplicates."""
    _check_cap(n, cap)
    return [Partition._trusted(n, blocks) for blocks in _nc_blocks(n, n)]


def enumerate_nc_le2(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> list[Partition]:
    """The subset of non-crossing partitions whose blocks have size <= 2."""
    _check_cap(n, cap)
    return [Partition._trusted(n, blocks) for blocks in _nc_blocks(n, 2)]
