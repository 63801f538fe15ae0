"""A set-associative cache stored as flat line columns.

This class is *state plus mechanism*: the line columns, and the few
per-set and way-wide operations on them (find a tag, pick an LRU
victim, touch, install, invalidate, flush a way).  It does not run
accesses.  The access path reads and writes the columns in place in
its three copies: :meth:`repro.sim.simulator.CMPSimulator._l1_miss`,
:meth:`repro.partitioning.base.BaseSharedCachePolicy.access_fast` and
``engine/kernel.c``.  Tests seed exact cache states with
:meth:`~SetAssociativeCache.install`, :meth:`~SetAssociativeCache.find`
and :meth:`~SetAssociativeCache.victim`.  All *policy* (which ways may
be probed or filled, who the victim is, what happens on an epoch
boundary) lives in ``repro.partitioning`` and ``repro.core``.

Line state is a handful of flat buffers, one per field, each holding
``num_sets * ways`` entries with line (s, w) at ``s * ways + w``:

* ``tags``/``owner`` are ``array('q')`` columns with a ``-1`` sentinel
  (:data:`NO_TAG`/``NO_OWNER``);
* ``dirty`` is an ``array('B')`` of 0/1 flags;
* recency is a monotonically increasing **stamp** per line plus a
  per-set ``clock``: a touch is two integer stores and the LRU victim
  is the minimum stamp among the candidate ways.  Stamps are unique
  within a set, so the induced order is a strict recency stack;
* ``mapped`` (a shared LLC only, ``track_copies``) resolves a tag to
  the way holding its *most recently installed* copy: ``mapped[line]``
  is the line's tag while the way is the newest copy of it, else
  :data:`NO_TAG`.  A probe scans it and tests the way against the
  caller's precomputed membership bitmask (see
  :meth:`repro.partitioning.base.BaseSharedCachePolicy.access_fast`).
  The newest copy is, for every simulated probe pattern, the only copy
  the prober may see (cores have disjoint address spaces, and a stale
  duplicate can only exist in a way its owner no longer probes).
  Private L1s never hold duplicates and are probed by scanning ``tags``.
  The C kernel's branch-free way scans keep the *last* match and are
  exact only because of these uniqueness properties (and unique
  stamps); ``tests/engine/test_kernel_invariants.py`` checks them at
  every epoch boundary on both engines.

Per set there are two more columns, ``clock`` (the next stamp) and
``valid`` (valid lines, which lets a fill skip the invalid-way scan
once the set is full).  Per core, ``core_occupancy`` counts valid lines
and is updated on every install and invalidation, so
:meth:`occupancy_by_core` is an O(cores) read.  The access path's
copies index the same buffers in place: they are allocated once and
never resized during a run, so there is one copy of the state.  Each
is allocated at its exact size (``array(code, [fill]) * n``), with no
slack past its end, so a sanitized kernel's overflow hits a redzone.

The way-wide sweeps, :meth:`~SetAssociativeCache.invalidate_way` (power
gating, a CPE flush) and :meth:`~SetAssociativeCache.flush_ways` (a
forced takeover completion), visit every set.  The Python loops here
are the reference; a compiled run binds the C kernel's copies of them
(``kernel_sweeps``) for its LLC.
"""

from __future__ import annotations

from array import array

from repro.cache.geometry import CacheGeometry

#: Sentinel way index meaning "not found".
NO_WAY = -1

#: Sentinel tag meaning "invalid line" (real tags are non-negative).
NO_TAG = -1

#: Owner value meaning "no core owns this line".  The paper tracks the
#: owner with "an extra two bits added to each tag entry to distinguish
#: data belonging to each core" (Section 2.5).
NO_OWNER = -1


class SetAssociativeCache:
    """Flat line columns plus address decomposition helpers."""

    __slots__ = ("geometry", "ways", "tags", "owner", "dirty", "stamp",
                 "mapped", "clock", "valid", "core_occupancy",
                 "kernel_sweeps")

    def __init__(
        self,
        geometry: CacheGeometry,
        track_copies: bool = True,
    ) -> None:
        self.geometry = geometry
        self.ways = ways = geometry.ways
        num_sets = geometry.num_sets
        lines = num_sets * ways
        self.tags = array("q", [NO_TAG]) * lines
        self.owner = array("q", [NO_OWNER]) * lines
        self.dirty = array("B", [0]) * lines
        # Every set starts with the recency stack [0, 1, .., w-1] (way 0
        # most recent); the clock only moves forward, so a set's stamps
        # stay unique forever.
        self.stamp = array("q", range(ways, 0, -1)) * num_sets
        #: ``track_copies`` gives a shared LLC its ``mapped`` column
        self.mapped = array("q", [NO_TAG]) * lines if track_copies else None
        self.clock = array("q", [ways + 1]) * num_sets
        self.valid = array("q", [0]) * num_sets
        #: valid lines per owning core, grown by :meth:`ensure_cores`
        self.core_occupancy = array("q")
        #: the C kernel's :meth:`invalidate_way`/:meth:`flush_ways`,
        #: bound by a compiled run (``repro.engine.compiled.KernelSweeps``)
        self.kernel_sweeps = None

    def ensure_cores(self, n_cores: int) -> array:
        """Grow (never shrink) the occupancy counters to ``n_cores``.

        Growing replaces the column with an exact-size copy, so an
        owner of the buffer (a policy, the kernel context) asks for
        every core it will count before it keeps the column.
        """
        counters = self.core_occupancy
        if len(counters) < n_cores:
            counters = counters + array("q", [0]) * (n_cores - len(counters))
            self.core_occupancy = counters
        return counters

    # ------------------------------------------------------------------
    # Per-set operations
    # ------------------------------------------------------------------
    def find(self, set_index: int, tag: int) -> int:
        """The way of ``set_index`` holding ``tag``, or :data:`NO_WAY`."""
        tags = self.tags
        base = set_index * self.ways
        for way in range(self.ways):
            if tags[base + way] == tag:
                return way
        return NO_WAY

    def victim(self, set_index: int, ways: tuple[int, ...] | None = None) -> int:  # repro: hot
        """LRU victim of ``set_index`` among ``ways`` (all if None).

        Invalid ways are returned first (fill before evict); otherwise
        the least recently used permitted way is chosen.
        """
        tags = self.tags
        stamp = self.stamp
        base = set_index * self.ways
        if ways is None:
            ways = range(self.ways)
        if self.valid[set_index] != self.ways:
            for way in ways:
                if tags[base + way] == NO_TAG:
                    return way
        best = NO_WAY
        best_stamp = 0
        for way in ways:
            s = stamp[base + way]
            if best < 0 or s < best_stamp:
                best = way
                best_stamp = s
        if best < 0:
            raise ValueError("victim() called with an empty way set")
        return best

    def touch(self, set_index: int, way: int) -> None:
        """Promote a line to MRU."""
        clock = self.clock
        self.stamp[set_index * self.ways + way] = clock[set_index]
        clock[set_index] += 1

    def install(self, set_index: int, way: int, tag: int, owner: int, dirty: bool) -> None:
        """Fill (set, way) with a new line, make it MRU and keep the
        valid, ``mapped`` and occupancy columns exact."""
        line = set_index * self.ways + way
        self.invalidate(set_index, way)
        self.valid[set_index] += 1
        self.tags[line] = tag
        mapped = self.mapped
        if mapped is not None:
            # The new copy supersedes any older one as the tag's home.
            base = set_index * self.ways
            for other in range(base, base + self.ways):
                if mapped[other] == tag:
                    mapped[other] = NO_TAG
            mapped[line] = tag
        self.dirty[line] = 1 if dirty else 0
        self.owner[line] = owner
        if owner >= 0:
            self.ensure_cores(owner + 1)[owner] += 1
        self.touch(set_index, way)

    def invalidate(self, set_index: int, way: int) -> None:
        """Drop the line in (set, way)."""
        line = set_index * self.ways + way
        old = self.tags[line]
        if old == NO_TAG:
            return
        self.valid[set_index] -= 1
        mapped = self.mapped
        if mapped is not None and mapped[line] == old:
            mapped[line] = NO_TAG
        owner = self.owner[line]
        if 0 <= owner < len(self.core_occupancy):
            self.core_occupancy[owner] -= 1
        self.tags[line] = NO_TAG
        self.dirty[line] = 0
        self.owner[line] = NO_OWNER

    # ------------------------------------------------------------------
    # Flush / invalidate
    # ------------------------------------------------------------------
    def invalidate_way(self, way: int) -> list[int]:
        """Invalidate ``way`` across every set, returning the dirty line
        addresses in set order.

        Used when a way is power-gated (gated-Vdd is non-state-
        preserving) and by CPE's immediate flush.  The returned
        addresses must be written back by the caller *before* the
        invalidation takes effect architecturally; we return them for
        bandwidth/energy accounting.
        """
        if self.kernel_sweeps is not None:
            return self.kernel_sweeps.invalidate_way(way)
        ways = self.ways
        tags = self.tags
        dirty = self.dirty
        owner = self.owner
        mapped = self.mapped
        valid = self.valid
        counters = self.core_occupancy
        n_known = len(counters)
        shift = self.geometry.set_shift
        flushed: list[int] = []
        line = way
        for set_index, tag in enumerate(tags[way::ways]):
            if tag != NO_TAG:
                if dirty[line]:
                    flushed.append((tag << shift) | set_index)
                line_owner = owner[line]
                if 0 <= line_owner < n_known:
                    counters[line_owner] -= 1
                valid[set_index] -= 1
                if mapped is not None and mapped[line] == tag:
                    mapped[line] = NO_TAG
            line += ways
        num_sets = len(valid)
        tags[way::ways] = array("q", [NO_TAG]) * num_sets
        dirty[way::ways] = array("B", bytes(num_sets))
        owner[way::ways] = array("q", [NO_OWNER]) * num_sets
        return flushed

    def flush_ways(self, ways: tuple[int, ...]) -> list[int]:
        """Write back every dirty line of ``ways``, returning the line
        addresses set by set and in ``ways`` order within a set.

        The lines stay valid and become clean: a forced takeover
        completion scrubs a donor's ways in the order the lazy protocol
        would have, had it visited every set.
        """
        if self.kernel_sweeps is not None:
            return self.kernel_sweeps.flush_ways(ways)
        width = self.ways
        tags = self.tags
        dirty = self.dirty
        shift = self.geometry.set_shift
        flushed: list[int] = []
        for set_index in range(len(self.valid)):
            base = set_index * width
            for way in ways:
                line = base + way
                if dirty[line] and tags[line] != NO_TAG:
                    dirty[line] = 0
                    flushed.append((tags[line] << shift) | set_index)
        return flushed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def occupancy_by_core(self, n_cores: int) -> list[int]:
        """Total valid lines per core — an O(cores) counter read."""
        counters = self.core_occupancy
        return [counters[core] if core < len(counters) else 0
                for core in range(n_cores)]
