"""Cooperative takeover: bit vectors and the lazy-flush protocol.

Sections 2.3–2.4 of the paper.  When a way migrates from a donor core
to a recipient (or is being turned off), the cache does *not* flush it
eagerly.  Instead, each donor core has a takeover bit vector with one
bit per set:

* whenever the **donor** accesses a set (hit or miss), dirty lines in
  the ways it is donating are written back and the set's bit is set;
* whenever a **recipient** accesses a set (hit or miss), dirty lines
  in the ways it is receiving are written back and the bit in the
  *donor's* vector is set;
* once every bit is set, the whole way has been scrubbed: the donor's
  read permission is withdrawn and the recipient owns the way (or the
  way is powered off).

Because both parties' accesses make progress — donor hits and
recipient misses dominate, Figure 14 — transfer completes ~5x faster
than UCP's recipient-miss-only migration (Figure 15).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.cache.memory import MainMemory
from repro.cache.set_associative import NO_TAG, SetAssociativeCache
from repro.energy.accounting import EnergyAccounting
from repro.partitioning.base import PolicyStats

#: recipient id used for ways that are being turned off
TO_OFF = -1


class TakeoverVector:
    """One bit per cache set; complete when every bit is set.

    ``bits`` is an exact-size ``array('B')`` the C kernel marks in
    place.
    """

    __slots__ = ("num_sets", "bits", "set_count")

    def __init__(self, num_sets: int) -> None:
        self.num_sets = num_sets
        self.bits = array("B", [0]) * num_sets
        self.set_count = 0

    def mark(self, set_index: int) -> bool:
        """Set the bit for ``set_index``; True if it was newly set."""
        if self.bits[set_index]:
            return False
        self.bits[set_index] = 1
        self.set_count += 1
        return True

    def reset(self) -> None:
        """Clear all bits in place (start of a transition period)."""
        self.bits[:] = array("B", [0]) * self.num_sets
        self.set_count = 0

    @property
    def complete(self) -> bool:
        """All sets have been visited at least once."""
        return self.set_count >= self.num_sets


@dataclass(frozen=True)
class WayTransition:
    """One way in flight from ``donor`` to ``recipient`` (or to off)."""

    way: int
    donor: int
    recipient: int  # TO_OFF when the way is being powered down
    start_cycle: int

    @property
    def to_off(self) -> bool:
        """Whether this transition ends in power gating."""
        return self.recipient == TO_OFF


class TakeoverEngine:
    """Tracks in-flight way transitions and applies the lazy flushes.

    The engine owns the per-donor takeover vectors and the mapping
    from cores to the ways they are donating/receiving; the policy
    (:class:`repro.core.policy.CooperativePartitioningPolicy`) asks it
    on every access whether flush work is due and finalises whatever
    the engine reports complete.
    """

    def __init__(
        self,
        cache: SetAssociativeCache,
        memory: MainMemory,
        energy: EnergyAccounting,
        stats: PolicyStats,
    ) -> None:
        self.cache = cache
        self.memory = memory
        self.energy = energy
        self.stats = stats
        self._num_sets = cache.geometry.num_sets
        self._line_address = cache.geometry.rebuild_line_address
        #: way -> transition
        self.transitions: dict[int, WayTransition] = {}
        #: donor core -> vector
        self.vectors: dict[int, TakeoverVector] = {}
        #: donor core -> tuple of ways it is donating
        self._donor_ways: dict[int, tuple[int, ...]] = {}
        #: recipient core -> {donor: tuple of ways moving donor->recipient}
        self._recipient_sources: dict[int, dict[int, tuple[int, ...]]] = {}
        #: bumped whenever the donor/recipient indexes (and with them
        #: the set of donor vectors) change, so the compiled engine
        #: repacks its way tables and vector pointers only then
        self.generation = 0

    # ------------------------------------------------------------------
    # Transition lifecycle
    # ------------------------------------------------------------------
    def begin(self, moves: list[WayTransition]) -> None:
        """Register new transitions and reset the donors' vectors.

        Per the paper, a donor's bit vector is reset at the start of a
        transition period even if an earlier transition of that donor
        is still in progress (the earlier one simply takes longer).
        """
        if not moves:
            return
        for move in moves:
            self.transitions[move.way] = move
        self._rebuild_indexes()
        for donor in sorted({move.donor for move in moves}):
            vector = self.vectors.get(donor)
            if vector is None:
                self.vectors[donor] = TakeoverVector(self._num_sets)
            else:
                vector.reset()
        self.stats.transitions_started += len(moves)

    def _rebuild_indexes(self) -> None:
        donor_ways: dict[int, list[int]] = {}
        recipient_sources: dict[int, dict[int, list[int]]] = {}
        for way, move in self.transitions.items():
            donor_ways.setdefault(move.donor, []).append(way)
            if not move.to_off:
                recipient_sources.setdefault(move.recipient, {}).setdefault(
                    move.donor, []
                ).append(way)
        self.generation += 1
        self._donor_ways = {d: tuple(ws) for d, ws in donor_ways.items()}
        self._recipient_sources = {
            r: {d: tuple(ws) for d, ws in sources.items()}
            for r, sources in recipient_sources.items()
        }

    # ------------------------------------------------------------------
    # Hot path: called on every LLC access while transitions exist
    # ------------------------------------------------------------------
    def on_access(self, core: int, set_index: int, hit: bool, now: int) -> tuple[int, ...]:
        """Apply takeover work for one access; returns completed donors.

        Allocation-free in the common case: most accesses mark no new
        bit (or complete no vector) and return the shared empty tuple.
        """
        completed: tuple[int, ...] = ()

        donating = self._donor_ways.get(core)
        if donating is not None:
            vector = self.vectors[core]
            if vector.bits[set_index] == 0:
                vector.bits[set_index] = 1
                vector.set_count += 1
                self._flush_ways_in_set(donating, set_index, now)
                events = self.stats.takeover_events
                events["donor_hit" if hit else "donor_miss"] += 1
                if vector.set_count >= vector.num_sets:
                    completed = (core,)

        sources = self._recipient_sources.get(core)
        if sources is not None:
            for donor, ways in sources.items():
                vector = self.vectors[donor]
                if vector.bits[set_index] == 0:
                    vector.bits[set_index] = 1
                    vector.set_count += 1
                    self._flush_ways_in_set(ways, set_index, now)
                    events = self.stats.takeover_events
                    events["recipient_hit" if hit else "recipient_miss"] += 1
                    if vector.set_count >= vector.num_sets:
                        completed += (donor,)
        return completed

    def _flush_ways_in_set(self, ways: tuple[int, ...], set_index: int, now: int) -> None:
        """Write back the dirty lines of ``ways`` in one set, in way
        order; the lines stay valid and become clean."""
        cache = self.cache
        tags = cache.tags
        dirty = cache.dirty
        base = set_index * cache.ways
        for way in ways:
            line = base + way
            if dirty[line] and tags[line] != NO_TAG:
                dirty[line] = 0
                self.memory.writeback(self._line_address(tags[line], set_index), now)
                self.energy.writeback()
                self.stats.note_transfer_flush(now)

    # ------------------------------------------------------------------
    # Completion / forced completion
    # ------------------------------------------------------------------
    def ways_of_donor(self, donor: int) -> tuple[int, ...]:
        """Ways ``donor`` is currently giving away."""
        return self._donor_ways.get(donor, ())

    def receiving_ways(self, core: int) -> tuple[int, ...]:
        """Ways in flight toward ``core``."""
        sources = self._recipient_sources.get(core)
        if not sources:
            return ()
        ways: list[int] = []
        for donor_ways in sources.values():
            ways.extend(donor_ways)
        return tuple(ways)

    def pop_donor(self, donor: int) -> list[WayTransition]:
        """Remove and return all of ``donor``'s finished transitions."""
        moves = [
            self.transitions.pop(way) for way in self._donor_ways.get(donor, ())
        ]
        self.vectors.pop(donor, None)
        self._rebuild_indexes()
        return moves

    def force_complete(self, donor: int, now: int) -> list[WayTransition]:
        """Flush a donor's transferring ways outright and complete them.

        Used when a new partitioning decision needs ways that are
        still mid-transition (rare — the paper reports never seeing
        the interaction in its experiments, but it must be handled).
        """
        ways = self._donor_ways.get(donor, ())
        if not ways:
            return []
        self.write_back(self.cache.flush_ways(ways), now)
        self.stats.transitions_forced += len(ways)
        return self.pop_donor(donor)

    def write_back(self, addresses: list[int], now: int) -> None:
        """Write back lines a takeover or a gated way flushed: the
        memory banks, the write-back energy and the transfer-flush
        statistics."""
        if not addresses:
            return
        writeback = self.memory.writeback
        for address in addresses:
            writeback(address, now)
        self.energy.writeback(len(addresses))
        self.stats.note_transfer_flush(now, len(addresses))

    @property
    def active(self) -> bool:
        """Whether any transition is in flight."""
        return bool(self.transitions)
