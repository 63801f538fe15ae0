"""The Cooperative Partitioning LLC policy (paper Section 2).

Ties the pieces together:

* UMON monitors feed the threshold-extended lookahead algorithm every
  epoch (Section 2.1);
* the resulting allocation is realised through RAP/WAP permission
  changes and Algorithm 2's donor/recipient matching (Section 2.2);
* ways in flight migrate via cooperative takeover (Sections 2.3-2.4);
* unallocated ways are power-gated (gated-Vdd) once scrubbed, and a
  core's probes consult only the ways its RAP bits allow — these are
  the static and dynamic energy savings the paper reports.

Write semantics: RAP governs lookups and WAP governs *allocation*
(which ways a fill may replace into).  A write hit in a read-only
(donating) way updates the line in place and re-dirties it; the paper
acknowledges this can happen ("Although this can also happen in
Cooperative Partitioning, it is much less likely...") and the takeover
protocol or the eventual eviction writes the data back, so correctness
is preserved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.permissions import WayPermissionFile
from repro.core.takeover import TO_OFF, TakeoverEngine, WayTransition
from repro.core.transfer import OFF, InsufficientSettledWays, plan_transfers
from repro.partitioning.base import BaseSharedCachePolicy
from repro.partitioning.lookahead import AllocationResult
from repro.partitioning.registry import register_policy

#: the paper's default takeover threshold (Section 5.1 justifies 0.05)
DEFAULT_THRESHOLD = 0.05


@dataclass(frozen=True)
class CooperativeParams:
    """Spec-addressable parameters of Cooperative Partitioning.

    Both are config-linked: ``None`` resolves to the matching
    :class:`~repro.sim.config.SystemConfig` field (``threshold`` /
    ``seed``) at construction, which keeps a plain
    ``PolicySpec("cooperative")`` bit-identical to the historical
    string-based wiring.
    """

    threshold: float | None = None
    seed: int | None = None


@register_policy("cooperative", params=CooperativeParams)
class CooperativePartitioningPolicy(BaseSharedCachePolicy):
    """Way-aligned, energy-saving dynamic cache partitioning."""

    name = "Cooperative Partitioning"
    needs_monitors = True

    def __init__(
        self,
        *args,
        threshold: float = DEFAULT_THRESHOLD,
        seed: int = 12345,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.threshold = threshold
        self._rng = random.Random(seed)
        ways = self.geometry.ways
        n = self.n_cores
        if ways % n:
            raise ValueError(f"{ways} ways do not split evenly over {n} cores")
        self.permissions = WayPermissionFile(ways, n)
        #: target owner per way (OFF = powered down / being powered down)
        self.logical_owner: list[int] = [OFF] * ways
        #: whether each way is currently drawing leakage power
        self.powered: list[bool] = [True] * ways
        share = ways // n
        for core in range(n):
            for way in range(core * share, (core + 1) * share):
                self.permissions.grant_full(way, core)
                self.logical_owner[way] = core
        self.engine = TakeoverEngine(self.cache, self.memory, self.energy, self.stats)
        # Probe/fill restrictions mirror the RAP/WAP registers; the
        # fast tables are refreshed whenever the registers change and
        # the takeover/victim hooks only run while ways are in flight.
        self._custom_victim = False
        self._pre_access_active = False
        self._refresh_access_tables()

    # ------------------------------------------------------------------
    # Access-path hooks
    # ------------------------------------------------------------------
    def _refresh_access_tables(self) -> None:
        """Sync the fast probe/fill tables with the RAP/WAP registers."""
        permissions = self.permissions
        for core in range(self.n_cores):
            self._set_core_ways(
                core,
                permissions.readable_ways(core),
                permissions.writable_ways(core),
            )

    def _select_victim(self, core: int, set_index: int, ways: tuple[int, ...] | None) -> int:
        """LRU among writable ways, preferring a way being received.

        The paper's example (Figure 4): when the recipient misses, the
        incoming line "can be placed in way 2 instead of replacing an
        existing line in another way" — the donor's line there is dead
        capacity for the recipient.
        """
        cache = self.cache
        if ways is not None and self.engine.active:
            owner = cache.owner
            base = set_index * cache.ways
            for way in self.engine.receiving_ways(core):
                if owner[base + way] != core:
                    return way
        return cache.victim(set_index, ways)

    def _pre_access(self, core: int, set_index: int, now: int, hit: bool) -> None:
        # Only reached while transitions are in flight (the base policy
        # gates this hook on `_pre_access_active`, which mirrors
        # `engine.active`); a spurious call with an idle engine is a
        # cheap no-op inside on_access anyway.
        completed = self.engine.on_access(core, set_index, hit, now)
        if completed:
            for donor in completed:
                self._finalize_donor(donor, now)

    # ------------------------------------------------------------------
    # Transition completion
    # ------------------------------------------------------------------
    def _finalize_donor(self, donor: int, now: int) -> None:
        """Withdraw the donor's read permission; gate to-off ways."""
        self._finalize_moves(self.engine.pop_donor(donor), now)

    def _finalize_moves(self, moves, now: int) -> None:
        power_changed = False
        for move in moves:
            self.permissions.revoke_read(move.way, move.donor)
            # Figure 15 measures core-to-core transfers; power-off
            # scrubs are a different mechanism (donor-only progress)
            # and are tracked by the forced/completed counters only.
            if not move.to_off:
                self.stats.transition_durations.append(now - move.start_cycle)
            self.stats.transitions_completed += 1
            if move.to_off:
                # Gated-Vdd is non-state-preserving: drop the (scrubbed)
                # lines.  Any line re-dirtied by a late donor write is
                # flushed here.
                self.permissions.revoke_all(move.way)
                self.engine.write_back(self.cache.invalidate_way(move.way), now)
                self.powered[move.way] = False
                power_changed = True
        self._sync_access_state(power_changed, now)

    def _sync_access_state(self, power_changed: bool, now: int) -> None:
        """Re-sync everything derived from the RAP/WAP registers and the
        engine's in-flight set after any permission/power change."""
        if power_changed:
            self.energy.set_active_ways(self.active_ways(), now)
        self._refresh_access_tables()
        active = self.engine.active
        self._pre_access_active = active
        self._custom_victim = active

    def note_pending(self, now: int) -> None:
        """Record ages of in-flight core-to-core transfers (Figure 15)."""
        for move in self.engine.transitions.values():
            if not move.to_off:
                self.stats.pending_transition_ages.append(now - move.start_cycle)

    # ------------------------------------------------------------------
    # Epoch behaviour (partitioning decision)
    # ------------------------------------------------------------------
    def decide(self, now: int) -> None:
        """Run the threshold lookahead and start the needed transfers.

        Under a scenario only active cores bid for ways: the lookahead
        runs on their miss curves and idle cores are pinned to zero
        (their ways were already released when they went idle).
        """
        # A way heading for power-off makes progress only on donor
        # accesses, and the donor is precisely the core that no longer
        # needs the cache, so scrub-by-takeover can dawdle.  Any
        # to-off transition still pending at the next decision (a full
        # epoch old) is completed eagerly so the static savings the
        # partitioner asked for actually materialise.
        aged_donors = {
            move.donor
            for move in self.engine.transitions.values()
            if move.to_off
        }
        for donor in aged_donors:
            self._finalize_moves(self.engine.force_complete(donor, now), now)

        active = self.active_core_ids()
        if not active:
            self.stats.note_decision(now, repartitioned=False)
            return
        result = self.lookahead(active, self.threshold)
        allocations = [0] * self.n_cores
        for index, core in enumerate(active):
            allocations[core] = result.allocations[index]
        repartitioned = allocations != self.way_allocations()
        self.stats.note_decision(now, repartitioned)
        if not repartitioned:
            return
        result = AllocationResult(
            allocations=allocations,
            unallocated=self.geometry.ways - sum(allocations),
            rounds=result.rounds,
        )

        # Rare by the paper's observation: a new decision may need ways
        # that are still mid-transition.  Complete those donors eagerly
        # and re-plan; each retry removes at least one donor's frozen
        # ways, so this terminates within n_cores attempts.
        for _ in range(self.n_cores + 1):
            try:
                plan = plan_transfers(
                    self.logical_owner,
                    result.allocations,
                    self._rng,
                    set(self.engine.transitions),
                )
                break
            except InsufficientSettledWays as exc:
                self._release_frozen_ways_of(exc.core, now)
        else:
            raise RuntimeError("transfer planning failed to converge")
        self._apply_plan(plan, now)

    def _release_frozen_ways_of(self, core: int, now: int) -> None:
        """Force-complete the transitions whose target owner is ``core``.

        A core short of settled ways is the *recipient* of in-flight
        ways (its logical ownership includes them), so the donors
        feeding it must finish before it can donate those ways onward.
        """
        donors = {
            move.donor
            for move in self.engine.transitions.values()
            if move.recipient == core
        }
        if not donors:
            # Defensive: complete everything rather than loop forever.
            donors = {move.donor for move in self.engine.transitions.values()}
        for donor in donors:
            self._finalize_moves(self.engine.force_complete(donor, now), now)

    def _apply_plan(self, plan, now: int) -> None:
        """Set RAP/WAP per Algorithm 2 and register the transitions."""
        permissions = self.permissions
        power_changed = False
        transitions: list[WayTransition] = []

        for way, recipient in plan.from_off:
            # Powering on: the way is empty, hand it over immediately.
            permissions.grant_full(way, recipient)
            self.logical_owner[way] = recipient
            self.powered[way] = True
            power_changed = True

        for way, donor, recipient in plan.moves:
            permissions.grant_full(way, recipient)
            permissions.revoke_write(way, donor)
            self.logical_owner[way] = recipient
            transitions.append(
                WayTransition(way=way, donor=donor, recipient=recipient, start_cycle=now)
            )

        for way, donor in plan.to_off:
            permissions.revoke_write(way, donor)
            self.logical_owner[way] = OFF
            transitions.append(
                WayTransition(way=way, donor=donor, recipient=TO_OFF, start_cycle=now)
            )

        self.engine.begin(transitions)
        self._sync_access_state(power_changed, now)

    # ------------------------------------------------------------------
    # Scenario transitions (core departure / arrival)
    # ------------------------------------------------------------------
    def _retarget_idle(self, core: int, now: int) -> None:
        """Release, flush and power-gate a departing core's ways.

        A departed core issues no further accesses, so the lazy
        takeover protocol cannot scrub its ways (donor progress is
        exactly what is missing).  Departure therefore scrubs eagerly,
        like an OS offlining a core: finish any transition the core is
        involved in, then flush and gate every way it owns.  The
        static-energy savings start immediately.
        """
        involved_donors = {
            move.donor
            for move in self.engine.transitions.values()
            if move.donor == core or move.recipient == core
        }
        for donor in involved_donors:
            self._finalize_moves(self.engine.force_complete(donor, now), now)

        released = [
            way for way, owner in enumerate(self.logical_owner) if owner == core
        ]
        if released:
            self.stats.note_decision(now, repartitioned=True)
        for way in released:
            self.permissions.revoke_all(way)
            self.logical_owner[way] = OFF
            self.engine.write_back(self.cache.invalidate_way(way), now)
            self.powered[way] = False
        self._sync_access_state(bool(released), now)

    def _retarget_active(self, core: int, now: int) -> None:
        """Grant an arriving core a fair share's worth of ways.

        Gated ways are powered on and handed over immediately (they
        hold no data); if the machine is fully powered, ways migrate
        from the richest active cores through the regular cooperative
        takeover.  The arrival holds full access from the first cycle
        — the next epoch's lookahead rebalances once the new core has
        monitor data.
        """
        ways = self.geometry.ways
        n_active = len(self.active_core_ids())
        desired = max(1, ways // n_active)
        self.stats.note_decision(now, repartitioned=True)

        granted = 0
        power_changed = False
        in_flight = self.engine.transitions
        for way, owner in enumerate(self.logical_owner):
            if granted >= desired:
                break
            if owner == OFF and way not in in_flight:
                self.permissions.grant_full(way, core)
                self.logical_owner[way] = core
                self.powered[way] = True
                power_changed = True
                granted += 1

        transitions: list[WayTransition] = []
        while granted < desired:
            donor = self._richest_donor(core)
            if donor is None:
                break
            pool = [
                way
                for way, owner in enumerate(self.logical_owner)
                if owner == donor and way not in in_flight
            ]
            way = pool[self._rng.randrange(len(pool))]
            self.permissions.grant_full(way, core)
            self.permissions.revoke_write(way, donor)
            self.logical_owner[way] = core
            transitions.append(
                WayTransition(way=way, donor=donor, recipient=core, start_cycle=now)
            )
            granted += 1

        if granted == 0:
            # Pathological: everything is mid-transition.  Finish the
            # pending power-downs and hand one freed way over.
            to_off_donors = {
                move.donor for move in in_flight.values() if move.to_off
            }
            for donor in to_off_donors:
                self._finalize_moves(self.engine.force_complete(donor, now), now)
            for way, owner in enumerate(self.logical_owner):
                if owner == OFF and way not in self.engine.transitions:
                    self.permissions.grant_full(way, core)
                    self.logical_owner[way] = core
                    self.powered[way] = True
                    power_changed = True
                    granted += 1
                    break
            if granted == 0:
                raise RuntimeError(
                    f"could not grant arriving core {core} any LLC way"
                )

        self.engine.begin(transitions)
        self._sync_access_state(power_changed, now)

    def _richest_donor(self, recipient: int) -> int | None:
        """Active core (not ``recipient``) owning the most ways that can
        spare a settled one; ties go to the lowest id."""
        in_flight = self.engine.transitions
        best: int | None = None
        best_owned = 0
        for candidate in self.active_core_ids():
            if candidate == recipient:
                continue
            owned = 0
            settled = 0
            for way, owner in enumerate(self.logical_owner):
                if owner == candidate:
                    owned += 1
                    if way not in in_flight:
                        settled += 1
            # A donor keeps at least one way and the donated way must
            # be settled (not already mid-takeover).
            if owned >= 2 and settled >= 1 and owned > best_owned:
                best = candidate
                best_owned = owned
        return best

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def active_ways(self) -> int:
        """Powered ways (allocated or still transitioning to off)."""
        return sum(self.powered)

    def allocation_of(self, core: int) -> int:
        """Ways logically owned by ``core`` right now."""
        return sum(1 for owner in self.logical_owner if owner == core)

    def way_allocations(self) -> list[int]:
        """Per-slot logical way ownership (timeline view)."""
        counts = [0] * self.n_cores
        for owner in self.logical_owner:
            if owner != OFF:
                counts[owner] += 1
        return counts
