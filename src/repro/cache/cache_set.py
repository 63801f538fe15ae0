"""One cache set: parallel line-state arrays plus a stamp-based LRU.

The set is the unit every policy in the paper manipulates: lookups are
restricted to permitted ways (RAP registers), fills are restricted to
writable ways (WAP registers), and victim selection walks the recency
order filtered by those same way subsets.

Hot-path representation (everything the inner loop touches is flat,
preallocated and allocation-free to mutate, and is the *only* copy of
the state — the C kernel indexes the same buffers in place):

* ``tags``/``owner`` are ``array('q')`` columns with a ``-1`` sentinel
  (:data:`NO_TAG`/``NO_OWNER``) instead of ``list[int | None]``;
* ``dirty`` is an ``array('B')`` of 0/1 flags;
* recency is a monotonically increasing **stamp** per way (``stamp``
  plus the set's ``clock`` counter) instead of a reordered stack: a
  touch is two integer stores, and the LRU victim is the minimum stamp
  among the candidate ways — no ``list.remove``/``insert`` churn and
  no ``set(candidates)`` allocation per eviction.  Stamps are unique,
  so the induced order is exactly the old stack's order;
* ``clock`` and ``valid_count`` (valid lines, which lets the fill path
  skip the invalid-way scan once the set is full) live in per-cache
  ``array('q')`` columns indexed by set — :class:`SetAssociativeCache`
  owns them and hands each set its slot, so a whole cache's counters
  are two buffers;
* ``mapped`` (LLC sets only) resolves a tag to the way holding its
  *most recently installed* copy: ``mapped[way]`` is that way's tag
  while the way is the newest copy of it, else :data:`NO_TAG`.  A
  probe scans it and tests the way against the caller's precomputed
  membership bitmask (see
  :meth:`repro.partitioning.base.BaseSharedCachePolicy.access_fast`).
  The newest copy is, for every simulated probe pattern, the only copy
  the prober may see (cores have disjoint address spaces, and a stale
  duplicate can only exist in a way its owner no longer probes).
  Private L1 sets never hold duplicates, so they carry no ``mapped``
  column (``None``) and are probed by scanning ``tags``.
"""

from __future__ import annotations

from array import array

from repro.cache.line import NO_OWNER, CacheLine

#: Sentinel way index meaning "not found".
NO_WAY = -1

#: Sentinel tag meaning "invalid line" (real tags are non-negative).
NO_TAG = -1


class CacheSet:
    """State of a single set in a set-associative cache.

    ``clocks``/``valid``/``index`` place the set's recency clock and
    valid-line count in its cache's shared columns; a standalone set
    (``CacheSet(ways)``) allocates one-slot columns of its own.
    ``track_copies`` allocates the ``mapped`` lookup column (LLC sets).
    """

    __slots__ = ("ways", "tags", "dirty", "owner", "stamp", "mapped",
                 "index", "clocks", "valid")

    def __init__(
        self,
        ways: int,
        clocks: array | None = None,
        valid: array | None = None,
        index: int = 0,
        track_copies: bool = True,
    ) -> None:
        if ways <= 0:
            raise ValueError(f"a cache set needs at least one way, got {ways}")
        self.ways = ways
        self.tags = array("q", [NO_TAG]) * ways
        self.dirty = array("B", bytes(ways))
        self.owner = array("q", [NO_OWNER]) * ways
        # Initial recency matches the historical stack [0, 1, .., w-1]
        # (way 0 most recent); stamps stay unique forever because the
        # clock only moves forward.
        self.stamp = array("q", range(ways, 0, -1))
        self.mapped = array("q", [NO_TAG]) * ways if track_copies else None
        if clocks is None:
            clocks = array("q", [ways + 1])
            valid = array("q", [0])
            index = 0
        self.clocks = clocks
        self.valid = valid
        self.index = index

    @property
    def clock(self) -> int:
        """Next recency stamp (the set's slot in the clock column)."""
        return self.clocks[self.index]

    @clock.setter
    def clock(self, value: int) -> None:
        self.clocks[self.index] = value

    @property
    def valid_count(self) -> int:
        """Valid lines in the set (its slot in the valid column)."""
        return self.valid[self.index]

    @valid_count.setter
    def valid_count(self, value: int) -> None:
        self.valid[self.index] = value

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def find(self, tag: int, ways: tuple[int, ...] | None = None) -> int:  # repro: hot
        """Return the way holding ``tag`` among ``ways`` (all if None).

        Returns :data:`NO_WAY` when the tag is absent from the searched
        ways.  Searching a subset models the RAP-restricted probes that
        give Cooperative Partitioning its dynamic-energy savings.  This
        is the general (scan-based) API; the LLC's inner loop resolves
        ``mapped`` against precomputed membership masks instead.
        """
        tags = self.tags
        if ways is None:
            for way in range(self.ways):
                if tags[way] == tag:
                    return way
            return NO_WAY
        for way in ways:
            if tags[way] == tag:
                return way
        return NO_WAY

    def touch(self, way: int) -> None:
        """Make ``way`` the most recently used."""
        clocks = self.clocks
        index = self.index
        self.stamp[way] = clocks[index]
        clocks[index] += 1

    def stack_position(self, way: int) -> int:
        """Recency position of ``way`` (0 = MRU)."""
        mine = self.stamp[way]
        return sum(1 for other in self.stamp if other > mine)

    @property
    def lru(self) -> list[int]:
        """Way indices ordered most-recently-used first (API/debugging;
        the hot paths compare stamps directly)."""
        order = sorted(range(self.ways), key=self.stamp.__getitem__)
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Victim selection
    # ------------------------------------------------------------------
    def victim(self, ways: tuple[int, ...] | None = None) -> int:  # repro: hot
        """LRU victim among ``ways`` (all ways if None).

        Invalid ways are returned first (fill before evict); otherwise
        the least recently used permitted way is chosen.
        """
        tags = self.tags
        stamp = self.stamp
        if ways is None:
            if self.valid_count != self.ways:
                for way in range(self.ways):
                    if tags[way] == NO_TAG:
                        return way
            return stamp.index(min(stamp))
        if self.valid_count != self.ways:
            for way in ways:
                if tags[way] == NO_TAG:
                    return way
        best = NO_WAY
        best_stamp = 0
        for way in ways:
            s = stamp[way]
            if best < 0 or s < best_stamp:
                best = way
                best_stamp = s
        if best < 0:
            raise ValueError("victim() called with an empty way set")
        return best

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def install(self, way: int, tag: int, owner: int, dirty: bool) -> None:
        """Fill ``way`` with a new line and make it MRU."""
        tags = self.tags
        old = tags[way]
        mapped = self.mapped
        if old == NO_TAG:
            self.valid[self.index] += 1
        elif mapped is not None and mapped[way] == old:
            mapped[way] = NO_TAG
        tags[way] = tag
        if mapped is not None:
            # The new copy supersedes any older one as the tag's home.
            if tag in mapped:
                mapped[mapped.index(tag)] = NO_TAG
            mapped[way] = tag
        self.dirty[way] = 1 if dirty else 0
        self.owner[way] = owner
        self.touch(way)

    def invalidate(self, way: int) -> None:
        """Drop the line in ``way`` (used by power-gating and CPE flushes)."""
        old = self.tags[way]
        if old != NO_TAG:
            self.valid[self.index] -= 1
            mapped = self.mapped
            if mapped is not None and mapped[way] == old:
                mapped[way] = NO_TAG
        self.tags[way] = NO_TAG
        self.dirty[way] = 0
        self.owner[way] = NO_OWNER

    def mark_dirty(self, way: int) -> None:
        """Record a write to the line in ``way``."""
        self.dirty[way] = 1

    def clean(self, way: int) -> None:
        """Clear the dirty bit after the line is flushed to memory."""
        self.dirty[way] = 0

    def set_owner(self, way: int, owner: int) -> None:
        """Reassign the per-line owner bits (cooperative takeover)."""
        self.owner[way] = owner

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def line(self, way: int) -> CacheLine:
        """Read-only snapshot of the line in ``way``."""
        tag = self.tags[way]
        valid = tag != NO_TAG
        return CacheLine(
            tag=tag if valid else None,
            valid=valid,
            dirty=bool(self.dirty[way]),
            owner=self.owner[way],
        )

    def valid_ways(self) -> list[int]:
        """Ways currently holding valid lines."""
        tags = self.tags
        return [way for way in range(self.ways) if tags[way] != NO_TAG]

    def occupancy(self, core: int) -> int:
        """Number of valid lines in this set owned by ``core``."""
        tags = self.tags
        owner = self.owner
        count = 0
        for way in range(self.ways):
            if tags[way] != NO_TAG and owner[way] == core:
                count += 1
        return count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        entries = ", ".join(
            f"w{way}:{'-' if self.tags[way] == NO_TAG else self.tags[way]}"
            f"{'*' if self.dirty[way] else ''}@{self.owner[way]}"
            for way in range(self.ways)
        )
        return f"CacheSet({entries}; lru={self.lru})"
