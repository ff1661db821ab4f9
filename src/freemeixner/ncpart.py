"""Non-crossing set partitions of {1..n}.

No library computation runs over these objects: the transforms, the
Meixner cumulants and the joint moments of free pairs all use equivalent
first-block recursions.  The public enumerators are the combinatorial
oracle those recursions are tested against.
Partitions are kept in a canonical form -- blocks sorted by least element,
elements ascending inside a block -- so they can be hashed, compared and
deduplicated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import EnumerationCapError

# Enumeration sizes grow like the Catalan numbers; past this point a single
# call would materialize tens of millions of blocks.
DEFAULT_ENUMERATION_CAP = 14


@dataclass(frozen=True)
class Partition:
    """A set partition of {1..n} in canonical block order."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"ground set size must be >= 0, got {self.n}")
        seen = set()
        prev_least = 0
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            if list(block) != sorted(block):
                raise ValueError(f"block {block} is not sorted")
            if block[0] <= prev_least:
                raise ValueError("blocks are not ordered by least element")
            prev_least = block[0]
            for i in block:
                if not 1 <= i <= self.n:
                    raise ValueError(f"element {i} outside 1..{self.n}")
                if i in seen:
                    raise ValueError(f"element {i} appears twice")
                seen.add(i)
        if len(seen) != self.n:
            raise ValueError("blocks do not cover the ground set")

    @classmethod
    def _trusted(cls, n, blocks):
        """Build a Partition the enumerators already know to be canonical,
        skipping the validation in ``__post_init__``."""
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


# Partitions of a segment depend only on its length, so small segments are
# cached as 0-based block tuples and shifted on use.
_CACHE_LIMIT = 10
_NC_CACHE: dict[int, tuple] = {}
_NC_LE2_CACHE: dict[int, tuple] = {}


def _shift(blocks, offset):
    if offset == 0:
        return blocks
    return tuple(tuple(i + offset for i in b) for b in blocks)


def _nc_zero(n):
    """All non-crossing partitions of {0..n-1} as canonical block tuples."""
    cached = _NC_CACHE.get(n)
    if cached is not None:
        return cached
    if n == 0:
        result = ((),)
    else:
        out = []
        rest = range(1, n)
        for size in range(n):
            for tail in itertools.combinations(rest, size):
                first = (0,) + tail
                # Every other block must fit in one gap between consecutive
                # members of the first block (or after its last member).
                bounds = first + (n,)
                gap_parts = [
                    tuple(_shift(part, lo + 1) for part in _nc_zero(hi - lo - 1))
                    for lo, hi in zip(first, bounds[1:])
                ]
                for combo in itertools.product(*gap_parts):
                    blocks = (first,)
                    for sub in combo:
                        blocks += sub
                    out.append(blocks)
        result = tuple(out)
    if n <= _CACHE_LIMIT:
        _NC_CACHE[n] = result
    return result


def _nc_le2_zero(n):
    """Non-crossing partitions of {0..n-1} with block sizes at most 2."""
    cached = _NC_LE2_CACHE.get(n)
    if cached is not None:
        return cached
    if n == 0:
        result = ((),)
    else:
        out = []
        for sub in _nc_le2_zero(n - 1):
            out.append(((0,),) + _shift(sub, 1))
        for j in range(1, n):
            inner = tuple(_shift(part, 1) for part in _nc_le2_zero(j - 1))
            outer = tuple(_shift(part, j + 1) for part in _nc_le2_zero(n - 1 - j))
            for left in inner:
                for right in outer:
                    out.append(((0, j),) + left + right)
        result = tuple(out)
    if n <= _CACHE_LIMIT:
        _NC_LE2_CACHE[n] = result
    return result


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
    return [Partition._trusted(n, _shift(blocks, 1)) for blocks in _nc_zero(n)]


def enumerate_nc_le2(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> list[Partition]:
    """The subset of non-crossing partitions whose blocks have size <= 2."""
    _check_cap(n, cap)
    return [Partition._trusted(n, _shift(blocks, 1)) for blocks in _nc_le2_zero(n)]
