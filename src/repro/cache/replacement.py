"""Victim selection.

The schemes compared in the paper differ in *which* line they evict on
a fill:

* plain LRU over all ways — the Unmanaged scheme;
* LRU restricted to the core's permitted ways — Fair Share and the
  way-aligned schemes (Cooperative Partitioning probes/fills only ways
  the RAP/WAP registers allow, so the restriction is supplied by the
  policy as a way subset);
* UCP's partition-aware selection — when a core is over its target
  occupancy the victim comes from its own lines, otherwise from the
  LRU line of an over-occupying core, which is how UCP migrates
  capacity lazily through the replacement policy (Section 2.5, [20]).

The two LRU cases are
:meth:`~repro.cache.set_associative.SetAssociativeCache.victim`; this
module holds UCP's selector.  It reads one set of the cache's flat
line columns, with its stamp-based recency: "least recently used
among a subset" is a min-stamp scan over the candidate ways, so
nothing here allocates per eviction.
"""

from __future__ import annotations

from repro.cache.set_associative import NO_TAG, SetAssociativeCache


class PartitionAwareVictimSelector:
    """UCP's replacement-driven partition enforcement.

    ``targets`` maps each core to its way allocation.  On a miss by
    ``core``:

    * if the core's occupancy in the set is below its target, the
      victim is the LRU line belonging to some core that is *over* its
      target (capacity migrates toward the new partition);
    * otherwise the victim is the core's own LRU line (the partition is
      respected in steady state).

    This is exactly the lazy migration whose slow convergence Figure 15
    of the paper measures against cooperative takeover.
    """

    def __init__(self, ways: int) -> None:
        self._ways = ways
        self.targets: dict[int, int] = {}
        #: dense mirrors of ``targets`` indexed by core id, plus a
        #: preallocated per-call occupancy scratch — the select path
        #: allocates nothing
        self._target_list: list[int | None] = []
        self._counts: list[int] = []

    def set_targets(self, targets: dict[int, int]) -> None:
        """Install the allocation produced by the lookahead algorithm."""
        self.targets = dict(targets)
        size = max(targets) + 1 if targets else 0
        self._target_list = [targets.get(core) for core in range(size)]
        self._counts = [0] * size

    def select(
        self, cache: SetAssociativeCache, set_index: int, core: int,
        ways: tuple[int, ...],
    ) -> int:
        tags = cache.tags
        n_ways = cache.ways
        base = set_index * n_ways
        if cache.valid[set_index] != n_ways:
            for way in ways:
                if tags[base + way] == NO_TAG:
                    return way
        # One pass over the whole set (occupancy counts all ways, not
        # just the permitted subset) instead of a per-owner rescan per
        # candidate way.  Owners without an entry in the target
        # table count as over-occupying, exactly like the historical
        # `targets.get(owner) is None` case.
        owner = cache.owner
        stamp = cache.stamp
        target_list = self._target_list
        counts = self._counts
        known = len(counts)
        for index in range(known):
            counts[index] = 0
        for line in range(base, base + n_ways):
            if tags[line] != NO_TAG:
                line_owner = owner[line]
                if 0 <= line_owner < known:
                    counts[line_owner] += 1
        target = target_list[core] if core < known else None
        if target is not None and counts[core] < target:
            # LRU valid line of some over-occupying core.
            best = -1
            best_stamp = 0
            for way in ways:
                line = base + way
                if tags[line] == NO_TAG:
                    continue
                line_owner = owner[line]
                if 0 <= line_owner < known:
                    owner_target = target_list[line_owner]
                    if owner_target is not None and counts[line_owner] <= owner_target:
                        continue
                s = stamp[line]
                if best < 0 or s < best_stamp:
                    best = way
                    best_stamp = s
            if best >= 0:
                return best
        # The core's own LRU line.
        best = -1
        best_stamp = 0
        for way in ways:
            line = base + way
            if tags[line] != NO_TAG and owner[line] == core:
                s = stamp[line]
                if best < 0 or s < best_stamp:
                    best = way
                    best_stamp = s
        if best >= 0:
            return best
        return cache.victim(set_index, ways)
