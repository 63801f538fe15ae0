"""A set-associative cache assembled from :class:`CacheSet` objects.

This class provides *mechanism only*: probe a subset of ways, fill a
line evicting a chosen victim, flush or invalidate lines.  All *policy*
(which ways may be probed or filled, who the victim is, what happens on
an epoch boundary) lives in ``repro.partitioning`` and ``repro.core``.

Per-core occupancy is tracked **incrementally**: ``core_occupancy``
is updated on every install, invalidation and ownership transfer, so
:meth:`occupancy_by_core` is an O(cores) read instead of the full
sets x ways scan it used to be.  The simulator's inlined fill paths
(:mod:`repro.sim.simulator`, :mod:`repro.partitioning.base`) maintain
the same counters.

Line state is flat and shared.  Each set's line columns are
``array``-backed, and the cache itself owns the per-set ``clock`` and
``valid`` columns, so the Python tiers and the C kernel read and write
one copy of the state.  :meth:`pointer_table` exposes each column
family as a table of per-set buffer addresses for the kernel; the
buffers are allocated once and never resized, so a table stays valid
for the cache's lifetime.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.cache.cache_set import NO_TAG, NO_WAY, CacheSet
from repro.cache.geometry import CacheGeometry


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a cache probe-and-fill operation.

    Attributes
    ----------
    hit:
        Whether the probe found the line among the searched ways.
    way:
        The way that now holds the line (the hit way, or the fill way).
    set_index:
        Set the line maps to.
    evicted_tag:
        Tag of the line displaced by a fill, or ``None`` for hits or
        fills into invalid ways.
    evicted_dirty:
        Whether the displaced line needed a writeback.
    evicted_owner:
        Owner core of the displaced line (meaningful when a writeback
        must be attributed, e.g. UCP flush accounting in Figure 16).
    """

    hit: bool
    way: int
    set_index: int
    evicted_tag: int | None = None
    evicted_dirty: bool = False
    evicted_owner: int = -1


class SetAssociativeCache:
    """Array of cache sets plus address decomposition helpers."""

    def __init__(self, geometry: CacheGeometry, track_copies: bool = True) -> None:
        self.geometry = geometry
        ways = geometry.ways
        num_sets = geometry.num_sets
        #: per-set recency clocks and valid-line counts (one slot per set)
        self.clock = array("q", [ways + 1]) * num_sets
        self.valid = array("q", bytes(8 * num_sets))
        #: ``track_copies`` gives every set a ``mapped`` lookup column
        #: (a shared LLC, where stale duplicates can exist); private
        #: L1s pass False and are probed by scanning ``tags``
        self.sets = [
            CacheSet(ways, self.clock, self.valid, index, track_copies)
            for index in range(num_sets)
        ]
        #: valid lines per owning core, maintained incrementally;
        #: grown on demand (owner ids are small non-negative ints)
        self.core_occupancy: list[int] = []
        self._pointer_tables: dict[str, array] = {}

    def pointer_table(self, column: str) -> array:
        """Per-set buffer addresses of one line column (``tags``,
        ``stamp``, ``owner``, ``dirty`` or ``mapped``), built on first
        use and cached: the kernel's view of the sets, with no copy."""
        table = self._pointer_tables.get(column)
        if table is None:
            table = array("q", [
                getattr(cset, column).buffer_info()[0] for cset in self.sets
            ])
            self._pointer_tables[column] = table
        return table

    def ensure_cores(self, n_cores: int) -> list[int]:
        """Grow (never shrink) the occupancy counters to ``n_cores``.

        Returns the counter list itself so hot paths can bind it to a
        local once instead of re-reading the attribute per access.
        """
        counters = self.core_occupancy
        while len(counters) < n_cores:
            counters.append(0)
        return counters

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe(
        self, line_address: int, ways: tuple[int, ...] | None = None
    ) -> tuple[bool, int, int]:
        """Look up ``line_address`` among ``ways``.

        Returns ``(hit, way, set_index)``; ``way`` is :data:`NO_WAY`
        on a miss.  Does not update recency — callers decide whether a
        probe counts as a use (:meth:`touch`).
        """
        geometry = self.geometry
        set_index = line_address & geometry.set_mask
        tag = line_address >> geometry.set_shift
        way = self.sets[set_index].find(tag, ways)
        return way != NO_WAY, way, set_index

    def touch(self, set_index: int, way: int) -> None:
        """Promote a hit line to MRU."""
        self.sets[set_index].touch(way)

    # ------------------------------------------------------------------
    # Filling
    # ------------------------------------------------------------------
    def fill(
        self,
        line_address: int,
        core: int,
        is_write: bool,
        victim_way: int,
    ) -> AccessResult:
        """Install ``line_address`` into ``victim_way`` of its set.

        The caller has already chosen the victim (via a
        :class:`~repro.cache.replacement.VictimSelector`), so this just
        records the eviction and installs the new line.
        """
        geometry = self.geometry
        set_index = line_address & geometry.set_mask
        tag = line_address >> geometry.set_shift
        cset = self.sets[set_index]
        evicted_tag = cset.tags[victim_way]
        evicted = evicted_tag != NO_TAG
        evicted_dirty = bool(cset.dirty[victim_way]) if evicted else False
        evicted_owner = cset.owner[victim_way] if evicted else -1
        counters = self.ensure_cores(max(core, evicted_owner) + 1)
        if evicted and evicted_owner >= 0:
            counters[evicted_owner] -= 1
        counters[core] += 1
        cset.install(victim_way, tag, core, is_write)
        return AccessResult(
            hit=False,
            way=victim_way,
            set_index=set_index,
            evicted_tag=evicted_tag if evicted else None,
            evicted_dirty=evicted_dirty,
            evicted_owner=evicted_owner,
        )

    # ------------------------------------------------------------------
    # Flush / invalidate / ownership
    # ------------------------------------------------------------------
    def flush_way_in_set(self, set_index: int, way: int) -> int | None:
        """Write back the line in (set, way) if dirty.

        Returns the flushed line address (for memory-bandwidth
        accounting) or ``None`` if the line was clean or invalid.  The
        line stays valid — cooperative takeover flushes data early but
        keeps it readable until ownership transfers.
        """
        cset = self.sets[set_index]
        tag = cset.tags[way]
        if tag == NO_TAG or not cset.dirty[way]:
            return None
        cset.dirty[way] = 0
        return self.geometry.rebuild_line_address(tag, set_index)

    def invalidate_way(self, way: int) -> list[int]:
        """Invalidate ``way`` across every set, returning dirty line addresses.

        Used when a way is power-gated (gated-Vdd is non-state-
        preserving) and by Dynamic CPE's immediate flush.  The returned
        addresses must be written back by the caller *before* the
        invalidation takes effect architecturally; we return them for
        bandwidth/energy accounting.
        """
        flushed: list[int] = []
        rebuild = self.geometry.rebuild_line_address
        counters = self.core_occupancy
        n_known = len(counters)
        for set_index, cset in enumerate(self.sets):
            tag = cset.tags[way]
            if tag != NO_TAG:
                if cset.dirty[way]:
                    flushed.append(rebuild(tag, set_index))
                owner = cset.owner[way]
                if 0 <= owner < n_known:
                    counters[owner] -= 1
            cset.invalidate(way)
        return flushed

    def transfer_ownership(self, set_index: int, way: int, owner: int) -> None:
        """Reassign a valid line's owner, keeping the counters exact."""
        cset = self.sets[set_index]
        if cset.tags[way] == NO_TAG:
            return
        counters = self.ensure_cores(max(owner, cset.owner[way]) + 1)
        previous = cset.owner[way]
        if previous >= 0:
            counters[previous] -= 1
        if owner >= 0:
            counters[owner] += 1
        cset.set_owner(way, owner)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def occupancy_by_core(self, n_cores: int) -> list[int]:
        """Total valid lines per core — an O(cores) counter read."""
        counters = self.core_occupancy
        return [counters[core] if core < len(counters) else 0
                for core in range(n_cores)]

    def valid_line_count(self) -> int:
        """Number of valid lines in the cache."""
        return sum(self.valid)
