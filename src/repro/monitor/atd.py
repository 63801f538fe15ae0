"""Auxiliary tag directory: per-core LRU tag stacks for sampled sets.

The ATD simulates, for one core, a cache with the LLC's full
associativity dedicated entirely to that core.  Each sampled set keeps
an LRU-ordered stack of tags; a hit at stack position ``p`` means the
access would have hit had the core owned at least ``p + 1`` ways
(Mattson's stack-inclusion property), so one counter per position is
all that is needed to recover the full miss curve.

All state is flat ``array('q')`` storage updated in place — the C
kernel indexes the same buffers, so nothing is copied between the two:

* ``stacks``: one ``ways``-wide row per sampled set (its slot, in
  ``sampled_set_indices`` order), MRU first, ``lengths[slot]`` live;
* ``hits``: hits seen at each stack position (0 = MRU);
* ``counts``: ``[misses, accesses]``.
"""

from __future__ import annotations

from array import array

_MISSES = 0
_ACCESSES = 1


class AuxiliaryTagDirectory:
    """LRU tag stacks plus stack-position hit counters for one core."""

    def __init__(self, ways: int, sampled_set_indices: list[int]) -> None:
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self.ways = ways
        #: real set index -> row of this directory's stacks
        self._slots = {s: slot for slot, s in enumerate(sampled_set_indices)}
        self.stacks = array("q", [0]) * (ways * len(self._slots))
        self.lengths = array("q", [0]) * len(self._slots)
        self.hits = array("q", [0]) * ways
        self.counts = array("q", [0, 0])

    @property
    def position_hits(self) -> list[int]:
        """Hits per LRU stack position (a snapshot of ``hits``)."""
        return self.hits.tolist()

    @position_hits.setter
    def position_hits(self, values: list[int]) -> None:
        if len(values) != self.ways:
            raise ValueError(f"need {self.ways} position counters, got {len(values)}")
        self.hits[:] = array("q", values)

    @property
    def misses(self) -> int:
        """Accesses that missed even with full associativity."""
        return self.counts[_MISSES]

    @misses.setter
    def misses(self, value: int) -> None:
        self.counts[_MISSES] = value

    @property
    def accesses(self) -> int:
        """Total sampled accesses."""
        return self.counts[_ACCESSES]

    @accesses.setter
    def accesses(self, value: int) -> None:
        self.counts[_ACCESSES] = value

    def record(self, set_index: int, tag: int) -> int:
        """Record an access; returns the hit position or -1 for a miss.

        The caller has already established that ``set_index`` is
        sampled (so the hot path pays the slot lookup only for
        monitored sets).
        """
        slot = self._slots[set_index]
        ways = self.ways
        base = slot * ways
        length = self.lengths[slot]
        stacks = self.stacks
        counts = self.counts
        counts[_ACCESSES] += 1
        if length and stacks[base] == tag:
            # Re-reference of the MRU tag (the common case): no shift.
            self.hits[0] += 1
            return 0
        live = stacks[base:base + length]
        if tag not in live:
            counts[_MISSES] += 1
            if length < ways:
                self.lengths[slot] = length + 1
            else:
                length = ways - 1
            stacks[base + 1:base + length + 1] = live[:length]
            stacks[base] = tag
            return -1
        position = live.index(tag)
        stacks[base + 1:base + position + 1] = live[:position]
        stacks[base] = tag
        self.hits[position] += 1
        return position

    def decay(self, factor: float = 0.5) -> None:
        """Exponentially age the counters at an epoch boundary.

        UCP periodically ages its counters so that partitioning tracks
        phase changes rather than whole-run averages; a factor of 0
        resets outright.  Ages in place: the buffers are shared.
        """
        if not 0.0 <= factor < 1.0:
            raise ValueError(f"decay factor must be in [0, 1), got {factor}")
        hits = self.hits
        hits[:] = array("q", [int(value * factor) for value in hits])
        counts = self.counts
        counts[_MISSES] = int(counts[_MISSES] * factor)
        counts[_ACCESSES] = int(counts[_ACCESSES] * factor)
