"""Utility-based Cache Partitioning (Qureshi & Patt, MICRO'06).

The paper's high-performance comparison point (Section 3.4).  UCP:

* monitors each core with UMON and repartitions every epoch using the
  lookahead algorithm with no threshold — every way is allocated;
* enforces partitions purely through the replacement policy: on a
  miss, an under-allocated core steals the LRU block of an
  over-allocated core, otherwise it recycles its own LRU block;
* keeps no way alignment, so every probe consults the full tag array
  (no dynamic-energy savings) and no way can be gated (no static
  savings).

Because capacity only migrates on recipient misses, a repartition
takes a long time to settle; Figure 15 of the paper measures this
"cycles to transfer one block from each set", and Figure 16 the
writeback traffic it causes.  This module tracks both.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.cache.replacement import PartitionAwareVictimSelector
from repro.partitioning.base import BaseSharedCachePolicy
from repro.partitioning.registry import register_policy


@dataclass
class _Transition:
    """Progress of one core's capacity gain after a repartition."""

    recipient: int
    ways_gained: int
    start_cycle: int
    num_sets: int
    gained_per_set: array = field(default_factory=lambda: array("q"))
    #: ``complete_sets[k]`` = sets that have yielded at least ``k+1`` blocks
    complete_sets: array = field(default_factory=lambda: array("q"))
    ways_done: int = 0

    def __post_init__(self) -> None:
        # ``array('q')`` rather than lists so engines can view the
        # migration counters zero-copy; index semantics are identical.
        self.gained_per_set = array("q", [0]) * self.num_sets
        self.complete_sets = array("q", [0]) * self.ways_gained

    def record_gain(self, set_index: int) -> bool:
        """Record a block gained in ``set_index``; True if a way completed."""
        level = self.gained_per_set[set_index]
        if level >= self.ways_gained:
            return False
        self.gained_per_set[set_index] = level + 1
        self.complete_sets[level] += 1
        if self.complete_sets[level] == self.num_sets and level == self.ways_done:
            self.ways_done += 1
            return True
        return False

    @property
    def finished(self) -> bool:
        """All gained ways have taken a block from every set."""
        return self.ways_done >= self.ways_gained


@register_policy("ucp")
class UCPPolicy(BaseSharedCachePolicy):
    """Dynamic utility-based partitioning with lazy block migration."""

    name = "UCP"
    needs_monitors = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._selector = PartitionAwareVictimSelector(self.geometry.ways)
        share = self.geometry.ways // self.n_cores
        self.targets = {core: share for core in range(self.n_cores)}
        self._selector.set_targets(self.targets)
        self._transitions: dict[int, _Transition] = {}
        self._all_ways = tuple(range(self.geometry.ways))
        # The post-fill hook only has work while a repartition is
        # migrating capacity; keep the fast path clear otherwise.
        self._post_fill_active = False

    # ------------------------------------------------------------------
    # Access-path hooks
    # ------------------------------------------------------------------
    def _select_victim(self, core: int, set_index: int, ways: tuple[int, ...] | None) -> int:
        return self._selector.select(
            self.cache, set_index, core, self._all_ways if ways is None else ways
        )

    def _post_fill(self, core: int, set_index: int, way: int, evicted_owner: int,
                   evicted_dirty: bool, now: int) -> None:
        transition = self._transitions.get(core)
        if transition is None or evicted_owner in (core, -1):
            return
        # The recipient took a block from another core in this set.
        if evicted_dirty:
            self.stats.note_transfer_flush(now)
        if transition.record_gain(set_index):
            self.stats.transition_durations.append(now - transition.start_cycle)
            self.stats.transitions_completed += 1
        if transition.finished:
            del self._transitions[core]
            self._post_fill_active = bool(self._transitions)

    def note_pending(self, now: int) -> None:
        """Record ages of unfinished migrations at run end (Figure 15).

        UCP transfers only progress on recipient misses, so many never
        finish within the measurement window — their current age is a
        lower bound on the true transfer time.
        """
        for transition in self._transitions.values():
            remaining = transition.ways_gained - transition.ways_done
            for _ in range(remaining):
                self.stats.pending_transition_ages.append(now - transition.start_cycle)

    def way_allocations(self) -> list[int]:
        """Per-slot way targets (timeline view)."""
        return [self.targets[core] for core in range(self.n_cores)]

    # ------------------------------------------------------------------
    # Scenario transitions
    # ------------------------------------------------------------------
    def _retarget_idle(self, core: int, now: int) -> None:
        """Zero the departed core's target; its blocks drain lazily.

        The survivors keep their utility-derived lookahead targets (the
        departed core's blocks count as over-target, so under-target
        cores steal them on their misses; the next epoch's lookahead
        reallocates the freed capacity properly).  UCP enforces
        partitions purely through replacement, so nothing is flushed or
        gated.  An in-flight gain transition of the departed core is
        abandoned.
        """
        self._transitions.pop(core, None)
        self._post_fill_active = bool(self._transitions)
        targets = dict(self.targets)
        targets[core] = 0
        self.targets = targets
        self._selector.set_targets(targets)
        self.stats.note_decision(now, repartitioned=True)

    def _retarget_active(self, core: int, now: int) -> None:
        """Even re-split on arrival (the newcomer has no UMON data to
        bid with); the next epoch's lookahead refines it."""
        targets = dict(enumerate(self.even_split()))
        self.targets = targets
        self._selector.set_targets(targets)
        self.stats.note_decision(now, repartitioned=True)

    # ------------------------------------------------------------------
    # Epoch behaviour
    # ------------------------------------------------------------------
    def decide(self, now: int) -> None:
        """Recompute way targets with plain (T=0) lookahead.

        Under a scenario, only active cores bid: the lookahead runs on
        their curves and idle cores are pinned to a zero target.
        """
        active = self.active_core_ids()
        if not active:
            self.stats.note_decision(now, repartitioned=False)
            return
        result = self.lookahead(active, threshold=0.0)
        new_targets = {core: 0 for core in range(self.n_cores)}
        for index, core in enumerate(active):
            new_targets[core] = result.allocations[index]
        repartitioned = new_targets != self.targets
        self.stats.note_decision(now, repartitioned)
        if not repartitioned:
            return
        for core in range(self.n_cores):
            delta = new_targets[core] - self.targets[core]
            if delta > 0:
                self._transitions[core] = _Transition(
                    recipient=core,
                    ways_gained=delta,
                    start_cycle=now,
                    num_sets=self.geometry.num_sets,
                )
                self.stats.transitions_started += delta
            elif core in self._transitions:
                # The core stopped gaining; abandon its pending transition.
                del self._transitions[core]
        self._post_fill_active = bool(self._transitions)
        self.targets = new_targets
        self._selector.set_targets(new_targets)
