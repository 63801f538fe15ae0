"""Dynamic CPE: the profile-driven, flush-on-repartition comparison.

Reddy & Petrov's CPE [23] computes energy-efficient static partitions
from per-application profiles.  The paper extends it into a dynamic
comparison point ("although unrealistic, this scheme serves as a
useful comparison"): profile data drives a repartition every epoch,
and each repartition takes effect *immediately* — every way whose
owner changes is flushed to memory and invalidated on the spot, the
burst contending with demand traffic.

That immediate flush is CPE's Achilles heel in the paper: with stable
partitions it tracks UCP/CP closely, but frequent repartitioning (and
four-core workloads) make it both slow and energy-hungry — which is
exactly the behaviour Figures 5-10 show and this model reproduces.

Like Cooperative Partitioning, CPE keeps data way-aligned, so probes
touch only the core's own ways and unallocated ways are power-gated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.partitioning.base import BaseSharedCachePolicy
from repro.partitioning.lookahead import lookahead_partition
from repro.partitioning.registry import register_policy

#: assignment value for a powered-off way
_OFF = -1


@dataclass(frozen=True)
class CPEParams:
    """Spec-addressable parameters of Dynamic CPE.

    ``threshold`` is config-linked: ``None`` resolves to
    ``SystemConfig.threshold`` at construction.
    """

    threshold: float | None = None


@register_policy("cpe", params=CPEParams, profile_kwarg="profiles")
class DynamicCPEPolicy(BaseSharedCachePolicy):
    """Profile-driven partitioning with immediate flush-and-invalidate."""

    name = "Dynamic CPE"
    needs_monitors = False

    def __init__(
        self,
        *args,
        profiles: list[list] | None = None,
        threshold: float = 0.05,
        **kwargs,
    ) -> None:
        """``profiles[core]`` is the core's profiled miss curve.

        Either a single curve (``list[int]``) used for every epoch, or
        a list of per-epoch curves (``list[list[int]]``) harvested from
        an isolated profiling run, giving CPE the phase awareness the
        paper grants it.
        """
        super().__init__(*args, **kwargs)
        self.threshold = threshold
        self.profiles = profiles
        ways = self.geometry.ways
        n = self.n_cores
        if ways % n:
            raise ValueError(f"{ways} ways do not split evenly over {n} cores")
        share = ways // n
        #: way -> owning core (or _OFF)
        self.assignment: list[int] = []
        for core in range(n):
            self.assignment.extend([core] * share)
        self._partitions: list[tuple[int, ...]] = []
        self._rebuild_partitions()
        self._epoch_index = 0
        #: stall cycles the simulator must charge after the last epoch
        self.pending_stall = 0

    def _rebuild_partitions(self) -> None:
        self._partitions = [
            tuple(w for w, owner in enumerate(self.assignment) if owner == core)
            for core in range(self.n_cores)
        ]
        # Way-aligned probes and fills both follow the assignment.
        for core, partition in enumerate(self._partitions):
            self._set_core_ways(core, partition, partition)

    # ------------------------------------------------------------------
    # Epoch behaviour
    # ------------------------------------------------------------------
    def _curve_for(self, core: int) -> list[int]:
        profile = self.profiles[core]
        if profile and isinstance(profile[0], list):
            return profile[self._epoch_index % len(profile)]
        return profile

    def decide(self, now: int) -> None:
        """Repartition from profiles, flushing every reassigned way.

        Under a scenario only active cores receive ways; idle cores'
        shares are left unallocated (and therefore gated).
        """
        if self.profiles is None:
            raise RuntimeError("Dynamic CPE needs profiled miss curves")
        self._epoch_index += 1
        active = self.active_core_ids()
        if not active:
            self.stats.note_decision(now, repartitioned=False)
            return
        curves = [self._curve_for(core) for core in active]
        result = lookahead_partition(curves, self.geometry.ways, threshold=self.threshold)
        allocations = [0] * self.n_cores
        for index, core in enumerate(active):
            allocations[core] = result.allocations[index]
        self._install_assignment(allocations, now)

    def _install_assignment(self, allocations: list[int], now: int) -> None:
        """Realise per-core way counts with CPE's immediate flush.

        Ways are packed contiguously by core id — the profile-driven
        epoch layout (and the arrival re-split, which flushes anyway).
        """
        new_assignment: list[int] = []
        for core in range(self.n_cores):
            new_assignment.extend([core] * allocations[core])
        new_assignment.extend([_OFF] * (self.geometry.ways - len(new_assignment)))
        self._apply_assignment(new_assignment, now)

    def _apply_assignment(self, new_assignment: list[int], now: int) -> None:
        """Diff against the current way owners, flushing every change."""
        repartitioned = new_assignment != self.assignment
        self.stats.note_decision(now, repartitioned)
        if not repartitioned:
            return

        flushed: list[int] = []
        for way, (old, new) in enumerate(zip(self.assignment, new_assignment)):
            if old != new and old != _OFF:
                flushed.extend(self.cache.invalidate_way(way))
        if flushed:
            # The burst of writebacks occupies the DRAM banks and the
            # cache is unusable while the ways are scrubbed: charge the
            # drain time as a stall the simulator applies to all cores.
            self.energy.writeback(len(flushed))
            self.stats.note_transfer_flush(now, len(flushed))
            self.pending_stall += self.memory.writeback_burst(flushed, now)

        self.assignment = new_assignment
        self._rebuild_partitions()
        self.energy.set_active_ways(self.active_ways(), now)

    # ------------------------------------------------------------------
    # Scenario transitions
    # ------------------------------------------------------------------
    def _retarget_idle(self, core: int, now: int) -> None:
        """Flush-and-gate the departing core's ways immediately.

        CPE's defining mechanism is the immediate flush, so departure
        uses it too: the core's ways are scrubbed on the spot and left
        unallocated (gated).  The survivors' ways are *not* repacked —
        they keep their physical ways (and their cached state) until
        the next profile-driven epoch rebalances them.
        """
        new_assignment = [
            _OFF if owner == core else owner for owner in self.assignment
        ]
        self._apply_assignment(new_assignment, now)

    def _retarget_active(self, core: int, now: int) -> None:
        """Even split over active cores; the next epoch re-applies the
        profile-driven allocation (which knows the arrival's curve)."""
        self._install_assignment(self.even_split(), now)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def active_ways(self) -> int:
        """Allocated (powered) ways; unallocated ways are gated."""
        return sum(1 for owner in self.assignment if owner != _OFF)

    def allocation_of(self, core: int) -> int:
        """Ways currently assigned to ``core``."""
        return len(self._partitions[core])
