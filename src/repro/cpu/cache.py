"""A set-associative last-level cache model.

RowHammer is only reachable from user space if the attacker's accesses
*miss* the cache on every iteration — otherwise the row is never
re-activated.  §II-A's "very simple user-level program" uses CLFLUSH;
the JavaScript variant [33] has no flush instruction and must build
*eviction sets* instead.  This cache model is what makes those two
strategies (and their different achievable hammer rates) expressible.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.utils.validation import check_positive, check_power_of_two


class SetAssociativeCache:
    """A physically indexed, LRU, set-associative cache.

    Args:
        size_bytes: total capacity.
        line_bytes: cache-line size.
        ways: associativity.
    """

    def __init__(self, size_bytes: int = 8 * 1024 * 1024, line_bytes: int = 64, ways: int = 16) -> None:
        check_positive("size_bytes", size_bytes)
        check_power_of_two("line_bytes", line_bytes)
        check_positive("ways", ways)
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = size_bytes // (line_bytes * ways)
        if self.n_sets < 1 or size_bytes % (line_bytes * ways):
            raise ValueError("size must be a multiple of line_bytes * ways")
        # Per-set tag list in LRU order (front = LRU, back = MRU).
        self._sets: List[List[int]] = [[] for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def _index_tag(self, address: int):
        line = address // self.line_bytes
        return line % self.n_sets, line // self.n_sets

    def set_index(self, address: int) -> int:
        """Cache set an address maps to."""
        return self._index_tag(address)[0]

    def access(self, address: int) -> bool:
        """Access one address; returns True on hit.  Misses fill the line
        (evicting the LRU way if the set is full)."""
        index, tag = self._index_tag(address)
        ways = self._sets[index]
        if tag in ways:
            self.hits += 1
            ways.remove(tag)
            ways.append(tag)
            return True
        self.misses += 1
        if len(ways) >= self.ways:
            ways.pop(0)
            self.evictions += 1
        ways.append(tag)
        return False

    def flush(self, address: int) -> bool:
        """CLFLUSH: drop the line if present; returns True if it was cached."""
        index, tag = self._index_tag(address)
        ways = self._sets[index]
        if tag in ways:
            ways.remove(tag)
            return True
        return False

    def contains(self, address: int) -> bool:
        """Whether the address's line is currently cached."""
        index, tag = self._index_tag(address)
        return tag in self._sets[index]

    def lru_state(self, indices: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
        """A snapshot of the sets ``indices``: each one's tags, LRU first."""
        return tuple(tuple(self._sets[index]) for index in indices)


def build_eviction_set(cache: SetAssociativeCache, target: int, region_base: int, region_bytes: int) -> List[int]:
    """Addresses in a region that map to the target's cache set.

    Returns ``cache.ways`` congruent addresses — accessing them all
    evicts the target from a cache with true-LRU replacement (the
    primitive the JavaScript attack constructs by timing).  They are
    the first congruent addresses of a line-by-line walk from
    ``region_base``, computed directly: the first is the walk's first
    line in the wanted set, and the rest follow one cache span
    (``n_sets * line_bytes``) apart.  The target itself is skipped.
    """
    wanted = cache.set_index(target)
    first = region_base + ((wanted - region_base // cache.line_bytes) % cache.n_sets) * cache.line_bytes
    out: List[int] = []
    for address in range(first, region_base + region_bytes, cache.n_sets * cache.line_bytes):
        if address != target:
            out.append(address)
            if len(out) == cache.ways:
                return out
    raise ValueError("region too small to build a full eviction set")
