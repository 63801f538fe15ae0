"""The multi-core, trace-driven simulation loop.

Cores are interleaved in global-time order (the core with the
smallest local clock executes its next reference), which keeps the
shared-LLC interaction faithful without an event queue.  Every
``epoch_cycles`` of global time the installed partitioning policy
makes a decision, exactly like the paper's 5M-cycle phase interval.

Measurement protocol (Section 3.2 of the paper, scaled): after a
warmup of ``warmup_refs`` references per core, all statistics reset;
each core's IPC window closes at ``refs_per_core`` references; cores
that finish keep running (wrapping their trace) so the others still
contend; the run ends when every core has closed its window.  Energy
integrates from the end of warmup to the end of the run under the
same rules for every scheme.

Scenario engine.  Every run executes a
:class:`~repro.scenarios.model.Scenario` — a timed schedule of core
arrivals, departures and phase changes.  The classic fixed-workload
run is the degenerate static scenario (all cores arrive at cycle 0,
nothing else happens) and routes through exactly the same loop; the
golden-equivalence suite pins it bit-exact against the seed engine.
Dynamic schedules interleave their events with the epoch boundaries
in timestamp order: an arriving core is warmed and scheduled from its
arrival cycle, a departing core freezes its measurement window and
the policy is told to release its ways
(:meth:`~repro.partitioning.base.BaseSharedCachePolicy.on_core_idle`),
and a phase change swaps the core's reference stream in place.
Dynamic runs additionally record a per-epoch/per-event
:class:`~repro.scenarios.timeline.TimelineSample` series.

DVFS.  A run may carry a :class:`~repro.dvfs.governors.GovernorSpec`:
each core then executes at a discrete operating point from the
machine's :class:`~repro.dvfs.model.VFTable`, chosen per epoch by the
governor (after the partitioning decision, so the two controllers
cooperate).  Core-clock work — issue gaps and L1 hits — stretches
with the core's cycle time while the shared LLC and memory stay on
the nominal clock, and per-interval core energy (V² dynamic,
V-scaled leakage) is charged through
:class:`~repro.dvfs.state.DvfsState` at every monotone boundary.
Without a governor the DVFS state is never allocated and the loop
executes the historical arithmetic bit-for-bit (pinned by the golden
suite).

Shared state.  Each core's execution state lives in
:class:`~repro.sim.cpu.CoreColumns` (``core_columns``), one int64
column per :class:`~repro.sim.cpu.CoreState` field, and the per-core
counters (``l1_hits``/``l1_misses``/``l1_writebacks``, the
:class:`~repro.partitioning.base.PolicyStats` counters, the DVFS stall
accumulators) are ``array('q')`` columns that every reset zeroes in
place.  The compiled engine's kernel context points at these columns,
so C spans and the Python boundary code share one copy.

The reference step.  :meth:`_step` is the one Python copy of the
per-reference sequence: the issue time (stretched by the core's DVFS
row when there is one), the private-L1 access, the instruction count,
the position wrap and the window checks.  :meth:`_run_python` calls it
for every reference, picking the next core from a ``(time, core_id)``
heap; the compiled engine calls it when the kernel hands a reference
back.  Cache warming goes through :meth:`_warm_line`, one warm read.

One access path, two copies.  The private-L1 / shared-L2 access of
Table 2 runs in Python as :meth:`_l1_access` (the L1 lookup, through
the cache's own ``find``/``touch``) and :meth:`_l1_miss` (the LLC
fetch, ``victim`` and ``install``, the dirty victim's write-back),
with the LLC side in
:meth:`~repro.partitioning.base.BaseSharedCachePolicy.access_fast`;
``engine/kernel.c`` is the other copy.  The golden and cross-engine
suites pin the two against each other.  The L1s themselves (``l1``)
and their counters (``l1_hits``/``l1_misses``/``l1_writebacks``)
belong to the simulator.
Instruction fetches are assumed to hit the L1 instruction cache: the
traces are data-reference traces, and every evaluated quantity is
LLC-derived.
"""

from __future__ import annotations

from array import array
from heapq import heapify, heapreplace
from typing import Callable

from repro.cache.memory import MainMemory
from repro.cache.set_associative import SetAssociativeCache
from repro.dvfs.governors import GovernorSpec
from repro.dvfs.state import DvfsState
from repro.energy.accounting import EnergyAccounting
from repro.energy.cacti import CactiEnergyModel
from repro.monitor.sampling import SetSampler
from repro.monitor.umon import UtilityMonitor
from repro.obs.trace import recorder as obs_recorder
from repro.partitioning.base import PolicyStats
from repro.partitioning.registry import PolicySpec, build_policy
from repro.scenarios.model import ARRIVE, DEPART, PHASE, Scenario, ScenarioEvent
from repro.scenarios.timeline import TimelineSample
from repro.sim.config import SystemConfig
from repro.sim.cpu import CoreColumns, CoreState
from repro.sim.stats import CoreResult, RunResult
from repro.workloads.trace import Trace

#: sentinel "no more events" cycle (far beyond any simulated time)
_NEVER = 1 << 62


class CMPSimulator:
    """One complete simulation: a system config + a schedule + a policy."""

    def __init__(
        self,
        config: SystemConfig,
        traces: list[Trace | None],
        policy_name: str | PolicySpec,
        cpe_profiles: list[list] | None = None,
        collect_curves: bool = False,
        scenario: Scenario | None = None,
        phase_traces: dict[str, Trace] | None = None,
        collect_timeline: bool | None = None,
        governor: GovernorSpec | str | None = None,
    ) -> None:
        if len(traces) != config.n_cores:
            raise ValueError(
                f"{config.n_cores} cores need {config.n_cores} traces, "
                f"got {len(traces)}"
            )
        if scenario is None:
            scenario = Scenario.static([trace.name for trace in traces])
        else:
            scenario.validate(config.n_cores)
        self.config = config
        self.scenario = scenario
        self._arrival_events: list[ScenarioEvent | None] = [
            scenario.arrival_of(core) for core in range(config.n_cores)
        ]
        self._check_traces(traces, phase_traces or {}, scenario)
        self._phase_traces = phase_traces or {}
        #: every core's execution state, one int64 column per field
        #: (the compiled kernel reads and advances these in place)
        self.core_columns = CoreColumns(config.n_cores)
        self.cores = [
            CoreState(i, trace, self.core_columns)
            for i, trace in enumerate(traces)
        ]
        for core, arrival in zip(self.cores, self._arrival_events):
            core.active = arrival is not None and arrival.at_cycle == 0
        self._pending_events = scenario.dynamic_events()
        #: whether the schedule changes the machine at/after cycle 0
        self._scenario_dynamic = bool(self._pending_events) or any(
            not core.active for core in self.cores
        )
        #: per-core V/f machinery; None = nominal-frequency machine
        #: (the historical model, bit-identical by construction)
        self.dvfs: DvfsState | None = (
            DvfsState(governor, config) if governor is not None else None
        )
        if collect_timeline is None:
            # DVFS runs always record a timeline: the per-epoch
            # frequency/voltage series is the result's whole point.
            collect_timeline = self._scenario_dynamic or self.dvfs is not None
        self._timeline: list[TimelineSample] | None = (
            [] if collect_timeline else None
        )
        self._measuring = False
        self._warmup = 0
        #: engine-invariant run diagnostics (populated only when the
        #: trace recorder is live; stays empty — and unserialized — by
        #: default so golden fixtures are untouched)
        self._diagnostics: dict = {}
        self.collect_curves = collect_curves

        self.cache = SetAssociativeCache(config.l2)
        self.memory = MainMemory(
            latency=config.mem_latency,
            n_banks=config.mem_banks,
            bank_busy=config.mem_bank_busy,
        )
        self.memory.flush_bucket_cycles = config.flush_bucket_cycles
        model = CactiEnergyModel(config.l2, config.n_cores)
        self.energy = EnergyAccounting(model)
        self.stats = PolicyStats(config.n_cores, config.flush_bucket_cycles)

        spec = (
            policy_name
            if isinstance(policy_name, PolicySpec)
            else PolicySpec(policy_name)
        )
        self.policy_spec = spec
        monitors: list[UtilityMonitor] = []
        if spec.info.needs_monitors or collect_curves:
            monitors = [
                UtilityMonitor(
                    config.l2.ways,
                    SetSampler(config.l2.num_sets, config.umon_interval),
                    decay=config.umon_decay,
                )
                for _ in range(config.n_cores)
            ]
        self.monitors = monitors
        self.policy = build_policy(
            spec,
            self.cache,
            self.memory,
            self.energy,
            self.stats,
            monitors,
            config=config,
            profiles=cpe_profiles,
        )
        # Private write-back, write-allocate, plain-LRU L1 data caches
        # (Table 2).  The per-core counter columns are zeroed in place
        # at the end of warmup, so the inner loops' (and the kernel's)
        # references to them stay valid for the whole run.
        n = config.n_cores
        self.l1 = [
            SetAssociativeCache(config.l1, track_copies=False) for _ in range(n)
        ]
        self.l1_latency = config.l1_latency
        self.l1_hits = array("q", [0]) * n
        self.l1_misses = array("q", [0]) * n
        self.l1_writebacks = array("q", [0]) * n
        self.epoch_curves: list[list[int]] = []
        # Access-path constants and per-core L1 bindings.
        self._issue_shift = config.issue_width.bit_length() - 1
        self._l1_mask = config.l1.set_mask
        self._l1_shift = config.l1.set_shift
        self._miss_latency = config.l1_latency + config.l2_latency
        self._policy_access = self.policy.access_fast
        for core in self.cores:
            core.l1 = self.l1[core.core_id]
            core.l1.ensure_cores(config.n_cores)
        #: an engine's own arrival warming for the current run (see
        #: :meth:`_begin_run`); None = :meth:`_warm_core`
        self._arrival_warm: Callable[[CoreState], None] | None = None

    @staticmethod
    def _check_traces(
        traces: list[Trace | None],
        phase_traces: dict[str, Trace],
        scenario: Scenario,
    ) -> None:
        for slot, (trace, arrival) in enumerate(
            zip(traces, (scenario.arrival_of(i) for i in range(len(traces))))
        ):
            if arrival is None:
                if trace is not None:
                    raise ValueError(
                        f"slot {slot} never arrives in scenario "
                        f"{scenario.name!r} but was given a trace"
                    )
            elif trace is None:
                raise ValueError(
                    f"slot {slot} arrives in scenario {scenario.name!r} "
                    f"but has no trace"
                )
            elif trace.name != arrival.benchmark:
                raise ValueError(
                    f"slot {slot}: trace {trace.name!r} does not match "
                    f"arrival benchmark {arrival.benchmark!r}"
                )
        for event in scenario.events:
            if event.kind == PHASE and event.benchmark not in phase_traces:
                raise ValueError(
                    f"phase event {event.describe()} has no trace; pass it "
                    f"via phase_traces (or use CMPSimulator.for_scenario)"
                )

    @classmethod
    def for_scenario(
        cls,
        config: SystemConfig,
        scenario: Scenario,
        policy_name: str | PolicySpec,
        trace_for: Callable[[str], Trace],
        cpe_profiles: list[list] | None = None,
        collect_curves: bool = False,
        collect_timeline: bool | None = None,
        governor: GovernorSpec | str | None = None,
    ) -> "CMPSimulator":
        """Build a simulator for ``scenario``, fetching traces on demand.

        ``trace_for(benchmark)`` supplies the deterministic trace for a
        benchmark name (e.g. ``ExperimentRunner.trace_for`` partially
        applied to the config).
        """
        scenario.validate(config.n_cores)
        arrivals = scenario.arrival_benchmarks(config.n_cores)
        traces = [trace_for(name) if name else None for name in arrivals]
        phase_traces = {
            event.benchmark: trace_for(event.benchmark)
            for event in scenario.events
            if event.kind == PHASE and event.benchmark is not None
        }
        return cls(
            config,
            traces,
            policy_name,
            cpe_profiles=cpe_profiles,
            collect_curves=collect_curves,
            scenario=scenario,
            phase_traces=phase_traces,
            collect_timeline=collect_timeline,
            governor=governor,
        )

    # ------------------------------------------------------------------
    def run(self, engine: str | None = None) -> RunResult:
        """Execute the run protocol and return the collected results.

        ``engine`` picks the execution backend: ``"python"`` (the
        reference scalar loop below), ``"compiled"`` (the C kernel) or
        ``"auto"``/``None`` (fastest available, overridable via
        ``$REPRO_ENGINE``).  Every backend produces a bit-identical
        :class:`RunResult` — the golden suite pins both against the
        same fixtures.
        """
        from repro.engine import COMPILED, resolve_engine

        if resolve_engine(engine) == COMPILED:
            from repro.engine.compiled import run_compiled

            return run_compiled(self)
        return self._run_python()

    # ------------------------------------------------------------------
    def _begin_run(
        self,
        prewarm: Callable[[], None] | None = None,
        warm_core: Callable[[CoreState], None] | None = None,
    ) -> tuple[int, int, bool, int, int, list[CoreState]]:
        """Shared run prologue: idle slots, warmup windows, prewarm,
        first epoch.

        Returns ``(target, warmup, warmed_up, unfinished, next_epoch,
        initial)``.  Every engine starts a run through here so the
        measurement protocol is defined exactly once.  ``prewarm`` and
        ``warm_core`` substitute an engine's own cache-warming
        implementations (the compiled kernel warms in C); they must be
        traffic-equivalent to :meth:`_prewarm` and :meth:`_warm_core`.
        """
        self._arrival_warm = warm_core
        config = self.config
        cores = self.cores
        # Slots not present at cycle 0 (late arrivals and never-arriving
        # slots) start idle: the policy releases their share before any
        # warming traffic — under cooperative partitioning their ways
        # are gated from the first cycle.  This runs here, not at
        # construction, so a compiled run gates them with the kernel
        # sweeps it has already bound.
        for core in cores:
            if not core.active:
                self.policy.on_core_idle(core.core_id, 0)
                if self.dvfs is not None:
                    self.dvfs.gate_core(core.core_id)
        target = config.refs_per_core
        warmup = min(config.warmup_refs, max(0, target - 1))
        self._warmup = warmup
        warmed_up = warmup == 0
        if warmed_up:
            # No warmup: every window is open from the start and the
            # timeline (if any) begins at cycle 0.
            for core in cores:
                core.window_open = True
            self._measuring = True
        initial = [core for core in cores if core.active]
        #: cores whose warmup gates the global statistics reset (late
        #: arrivals open their own windows but do not hold up the gate)
        self._warm_gate = initial
        unfinished = sum(
            1 for arrival in self._arrival_events if arrival is not None
        )

        (prewarm or self._prewarm)()
        # The first epoch starts after the warming traffic has drained
        # so the catch-up logic does not fire several decisions back to
        # back on sparse monitor data.
        next_epoch = (
            max((core.time for core in initial), default=0)
            + config.epoch_cycles
        )
        if warmed_up and self._timeline is not None:
            self._record_sample(0)
        rec = obs_recorder()
        if rec.enabled:
            rec.run_begin(
                policy=self.policy.name,
                scenario=self.scenario.name,
                cores=config.n_cores,
                epoch_cycles=config.epoch_cycles,
            )
        self._diagnostics = {}
        return target, warmup, warmed_up, unfinished, next_epoch, initial

    def _advance_boundary(
        self,
        now: int,
        clock: int,
        next_epoch: int,
        next_event: int,
        event_index: int,
        unfinished: int,
        warmed_up: bool,
    ) -> tuple[int, int, int, int, int, bool, bool]:
        """Process one scheduler boundary (an epoch or schedule event).

        Called when the next reference's issue instant ``now`` is at or
        past ``next_epoch``/``next_event``.  Returns the updated
        ``(clock, next_epoch, next_event, event_index, unfinished,
        warmed_up, rekey)`` loop state; ``rekey`` tells the caller its
        cached core ordering is stale (an epoch stalled the cores, or
        an event changed scheduler membership).  Shared by every
        engine so the boundary-side protocol exists exactly once.
        """
        events = self._pending_events
        n_events = len(events)
        rekey = False
        if next_epoch <= next_event:
            stamp = next_epoch if next_epoch >= clock else clock
            rekey = self._run_epoch(stamp)
            clock = stamp
            next_epoch += self.config.epoch_cycles
        else:
            when = next_event
            stamp = when if when >= now else now
            if stamp < clock:
                stamp = clock
            last_power_event = self.energy.last_event_cycle
            if stamp < last_power_event:
                # An access from another core (or the flush stall it
                # charged) overran this boundary: static energy is
                # already integrated past it, so the event takes
                # effect at that later instant rather than rewinding
                # time.
                stamp = last_power_event
            if self.dvfs is not None:
                # Close the energy interval at the levels the cores
                # actually ran at before an event gates or
                # re-activates anything.
                self.dvfs.charge_to(stamp, self.cores, self.energy)
            closed = 0
            labels: list[str] = []
            while (
                event_index < n_events
                and events[event_index].at_cycle == when
            ):
                event = events[event_index]
                closed += self._apply_event(event, stamp)
                labels.append(event.describe())
                event_index += 1
            next_event = (
                events[event_index].at_cycle
                if event_index < n_events
                else _NEVER
            )
            unfinished -= closed
            clock = stamp
            stall = getattr(self.policy, "pending_stall", 0)
            if stall:
                for c in self.cores:
                    if c.active:
                        c.time += stall
                self.policy.pending_stall = 0
            if self._timeline is not None and self._measuring:
                self._record_sample(stamp, labels)
            warmed_up, clock = self._maybe_end_warmup(warmed_up, clock)
            rekey = True
        return (
            clock, next_epoch, next_event, event_index, unfinished,
            warmed_up, rekey,
        )

    def _finish_run(self, clock: int, event_index: int) -> RunResult:
        """Shared run epilogue: leftover events, energy close, collect."""
        cores = self.cores
        events = self._pending_events
        n_events = len(events)
        dvfs = self.dvfs
        end_cycle = max(c.time for c in cores)
        if event_index < n_events:
            # Events scheduled past the last window close (only departs
            # and phases can remain — a pending arrival holds the run
            # open) are applied at the final instant rather than
            # silently dropped, so the cached artifact and the timeline
            # honestly reflect the full schedule.
            stamp = end_cycle if end_cycle >= clock else clock
            if dvfs is not None:
                dvfs.charge_to(stamp, cores, self.energy)
            labels = []
            while event_index < n_events:
                event = events[event_index]
                self._apply_event(event, stamp)
                labels.append(event.describe())
                event_index += 1
            if getattr(self.policy, "pending_stall", 0):
                # A flush burst at the final instant has no run left to
                # slow down; its energy and flush stats are recorded.
                self.policy.pending_stall = 0
            if self._timeline is not None and self._measuring:
                self._record_sample(stamp, labels)
            if stamp > end_cycle:
                end_cycle = stamp
        if dvfs is not None:
            dvfs.charge_to(end_cycle, cores, self.energy)
        self.energy.finalize(end_cycle)
        note_pending = getattr(self.policy, "note_pending", None)
        if note_pending is not None:
            note_pending(end_cycle)
        rec = obs_recorder()
        if rec.enabled:
            summary = rec.run_end(end_cycle=end_cycle, **self._mechanics())
            # Diagnostics carry only engine-invariant counts: the epoch
            # and event schedules are part of the shared run protocol,
            # so every engine (and every racing worker) serializes the
            # same bytes.  Wall-clock data stays in the trace.
            self._diagnostics = {
                "epochs": summary["epochs"],
                "events": event_index,
            }
        self._arrival_warm = None  # drop the engine's closure (a cycle)
        return self._collect(end_cycle)

    def _mechanics(self) -> dict:
        """The run's partitioning mechanics (paper section 4) for its
        run span: takeover events by kind, way transitions started,
        transfer flushes, and timeline steps that gated ways off."""
        stats = self.stats
        timeline = self._timeline or []
        return {
            "takeover_events": {
                kind: count
                for kind, count in stats.takeover_events.items()
                if count
            },
            "transitions_started": stats.transitions_started,
            "transfer_flushes": stats.transfer_flushes,
            "gate_drops": sum(
                1
                for before, after in zip(timeline, timeline[1:])
                if after.powered_ways < before.powered_ways
            ),
        }

    # ------------------------------------------------------------------
    def _run_python(self) -> RunResult:
        """The reference engine: the scalar loop every other engine must
        match bit for bit (the golden and cross-engine suites pin it),
        and the fallback for a policy the C kernel does not model,
        counted in ``repro_kernel_fallbacks_total``.  It runs on no
        figure path, so it is written to be read; its speed is
        reported, not gated."""
        cores = self.cores
        (
            target, warmup, warmed_up, unfinished, next_epoch, initial,
        ) = self._begin_run()
        events = self._pending_events
        event_index = 0
        next_event = events[0].at_cycle if events else _NEVER
        # Monotone boundary clock: events take effect at the first
        # scheduler step at or after their scheduled cycle, and no
        # boundary is ever stamped earlier than one already applied
        # (time never rewinds, keeping the energy integration and the
        # timeline strictly ordered even for schedules whose cycles
        # land inside the prewarm era).
        clock = 0

        # Scheduler: a heap of the executing cores keyed on (time,
        # core_id), so the next core is the earliest, ties going to the
        # lowest id.
        times = self.core_columns.core_time
        heap = [(core.time, core.core_id) for core in initial]
        heapify(heap)
        while unfinished:
            if heap:
                now, cid = heap[0]
            else:
                # No core is executing; jump to the next boundary (an
                # epoch or the arrival that will repopulate the heap).
                now = next_event if next_event < next_epoch else next_epoch

            if now >= next_epoch or now >= next_event:
                (
                    clock, next_epoch, next_event, event_index,
                    unfinished, warmed_up, rekey,
                ) = self._advance_boundary(
                    now, clock, next_epoch, next_event, event_index,
                    unfinished, warmed_up,
                )
                if rekey:
                    # The boundary stalled cores or changed scheduler
                    # membership; re-key the heap.
                    heap = [(c.time, c.core_id) for c in cores if c.active]
                    heapify(heap)
                continue

            unfinished, warmed_up, clock = self._step(
                cores[cid], target, warmup, unfinished, warmed_up, clock
            )
            heapreplace(heap, (times[cid], cid))

        return self._finish_run(clock, event_index)

    def _step(
        self,
        core: CoreState,
        target: int,
        warmup: int,
        unfinished: int,
        warmed_up: bool,
        clock: int,
    ) -> tuple[int, bool, int]:
        """Execute ``core``'s next reference; returns the updated
        ``(unfinished, warmed_up, clock)`` loop state.

        The only Python copy of the per-reference sequence: the
        python engine runs every reference through it, and the
        compiled engine the ones its kernel hands back.
        """
        # The core's scalars are read from its columns, as kernel.c
        # reads them (a CoreState property costs several column reads).
        core_id = core.core_id
        columns = self.core_columns
        position = columns.core_position[core_id]
        gap = core.gaps[position]
        now = columns.core_time[core_id]
        dvfs = self.dvfs
        if dvfs is None:
            issue_time = now + (gap >> self._issue_shift)
        else:
            # Core-clock work stretches by num/den; the LLC keeps its
            # own clock (_l1_miss charges nominal cycles).
            entry = dvfs.entries[core_id]
            issue_time = now + (gap >> self._issue_shift) * entry[0] // entry[1]
        columns.core_time[core_id] = issue_time + self._l1_access(
            core_id,
            core.addresses[position] + core.offset,
            core.writes[position],
            issue_time,
        )
        columns.core_instructions[core_id] += gap + 1
        position += 1
        columns.core_position[core_id] = (
            0 if position == columns.core_length[core_id] else position
        )
        done = columns.core_refs_done[core_id] + 1
        columns.core_refs_done[core_id] = done

        if done == warmup and not columns.core_window_open[core_id]:
            # Each core's IPC window opens at its own warmup point so
            # every scheme measures exactly the same (target - warmup)
            # references per core; the global statistics reset once
            # the last gating core gets there.
            core.start_measurement()
            warmed_up, clock = self._maybe_end_warmup(warmed_up, clock)
        if done == target and not columns.core_window_closed[core_id]:
            core.freeze()
            unfinished -= 1
        return unfinished, warmed_up, clock

    # ------------------------------------------------------------------
    def _apply_event(self, event: ScenarioEvent, when: int) -> int:
        """Apply one schedule event; returns windows closed (0 or 1)."""
        core = self.cores[event.core]
        kind = event.kind
        if kind == ARRIVE:
            # Grant the core cache capacity *before* its warming traffic
            # reaches the LLC (an arriving core must be able to fill).
            self.policy.on_core_active(event.core, when)
            core.active = True
            core.time = when
            if self.dvfs is not None:
                # The arrival executes at the governor-chosen operating
                # point from its very first (warming) access.
                self.dvfs.activate_core(event.core, when, core.instructions)
            (self._arrival_warm or self._warm_core)(core)
            if self._warmup == 0:
                core.start_measurement()
            return 0
        if kind == DEPART:
            closed = 0
            if not core.window_closed:
                if core.window_open:
                    core.freeze()
                else:
                    # Departed during warmup: no measured window, and
                    # none of the core's work counts toward the
                    # window_instructions energy denominator.
                    core.instr_base = core.instructions
                    core.window_closed = True
                closed = 1
            core.active = False
            core.departed = True
            self.policy.on_core_idle(event.core, when)
            if self.dvfs is not None:
                # The energy interval up to ``when`` was already closed
                # at the event boundary; from here the core's V/f is
                # gated and it contributes zero core energy.
                self.dvfs.gate_core(event.core)
            return closed
        # PHASE: swap the reference stream in place; counters continue.
        trace = self._phase_traces[event.benchmark]
        core.load_trace(trace)
        return 0

    def _maybe_end_warmup(self, warmed_up: bool, clock: int) -> tuple[bool, int]:
        """End warmup once every gating core is through it; returns the
        updated ``(warmed_up, clock)`` loop state."""
        if not warmed_up and self._warm_gate_passed(self._warmup):
            self._end_warmup()
            warmed_up = True
            if self.energy.window_start > clock:
                clock = self.energy.window_start
        return warmed_up, clock

    def _warm_gate_passed(self, warmup: int) -> bool:
        """Whether every gating core finished (or left) its warmup."""
        return all(
            core.refs_done >= warmup or core.departed
            for core in self._warm_gate
        )

    def _record_sample(self, cycle: int, labels: list[str] | tuple = ()) -> None:
        """Append one timeline observation (never mutates sim state)."""
        policy = self.policy
        dvfs = self.dvfs
        self._timeline.append(
            TimelineSample(
                cycle=cycle,
                active_cores=tuple(
                    core.core_id for core in self.cores if core.active
                ),
                allocations=tuple(policy.way_allocations()),
                powered_ways=policy.active_ways(),
                static_energy_nj=self.energy.static_nj_at(cycle),
                dynamic_energy_nj=self.energy.dynamic_nj,
                events=tuple(labels),
                frequencies_mhz=(
                    dvfs.frequencies_mhz() if dvfs is not None else ()
                ),
                voltages_mv=dvfs.voltages_mv() if dvfs is not None else (),
                core_energy_nj=(
                    self.energy.core_energy_nj if dvfs is not None else 0.0
                ),
            )
        )

    # ------------------------------------------------------------------
    def _l1_access(
        self, core_id: int, address: int, is_write: int, now: int
    ) -> int:
        """One access to ``core_id``'s private L1 (write-back,
        write-allocate, LRU) issued at ``now``; returns its latency."""
        l1 = self.l1[core_id]
        set_index = address & self._l1_mask
        tag = address >> self._l1_shift
        way = l1.find(set_index, tag)
        if way < 0:
            return self._l1_miss(core_id, address, is_write, now, set_index, tag)
        l1.touch(set_index, way)
        if is_write:
            l1.dirty[set_index * l1.ways + way] = 1
        self.l1_hits[core_id] += 1
        # The hit costs the core's scaled L1 latency under a governor.
        dvfs = self.dvfs
        return self.l1_latency if dvfs is None else dvfs.entries[core_id][2]

    def _l1_miss(
        self,
        core_id: int,
        address: int,
        is_write: int,
        now: int,
        set_index: int,
        tag: int,
    ) -> int:
        """L1 miss path: LLC fetch, L1 fill, victim write-back.

        Fetch before fill, then write the dirty victim through the LLC.
        ``engine/kernel.c``'s ``l1_miss`` repeats this sequence — keep
        the two in sync.
        """
        self.l1_misses[core_id] += 1
        policy_access = self._policy_access
        # Fetch the line from the shared LLC (write-allocate).
        memory_latency = policy_access(core_id, address, False, now)

        # Replace the L1 victim: the first free way, else plain LRU.
        l1 = self.l1[core_id]
        way = l1.victim(set_index)
        line = set_index * l1.ways + way
        old_tag = l1.tags[line]
        evicted_dirty = l1.dirty[line]
        l1.install(set_index, way, tag, core_id, is_write)

        if evicted_dirty:
            victim_address = (old_tag << self._l1_shift) | set_index
            self.l1_writebacks[core_id] += 1
            policy_access(core_id, victim_address, True, now)
        dvfs = self.dvfs
        if dvfs is None:
            return self._miss_latency + memory_latency
        entry = dvfs.entries[core_id]
        dvfs.stall[core_id] += self.config.l2_latency + memory_latency
        return entry[3] + memory_latency

    # ------------------------------------------------------------------
    def _prewarm(self) -> None:
        """Pre-touch each core's resident working set (cache warming).

        Mirrors the paper's explicit warmup after fast-forward: every
        ring/hot line is accessed once through the real access path,
        interleaved across cores (round ``i`` warms line ``i`` of each
        core, in core order), before the measured window.  The traffic
        ages normally and everything it touches is discarded by the
        warmup statistics reset.  Only cores present at cycle 0 warm
        here; a late arrival warms at its arrival cycle
        (:meth:`_warm_core`).
        """
        warming = [core for core in self.cores if core.active]
        rounds = max((len(core.warm_lines) for core in warming), default=0)
        for index in range(rounds):
            for core in warming:
                if index < len(core.warm_lines):
                    self._warm_line(core, index)

    def _warm_core(self, core: CoreState) -> None:
        """Warm one late-arriving core's resident working set.

        The same per-line traffic as :meth:`_prewarm`, but for a single
        core starting at its arrival cycle.  The warming accesses are
        real LLC traffic (the incoming application faults its working
        set in), so they are charged to the measured window like any
        other post-warmup work.
        """
        for index in range(len(core.warm_lines)):
            self._warm_line(core, index)

    def _warm_line(self, core: CoreState, index: int) -> None:
        """One warm read of ``core``'s warming line ``index`` at the
        core's own time."""
        now = core.time
        core.time = now + self._l1_access(
            core.core_id, core.warm_lines[index] + core.offset, False, now
        )

    def _first_curve(self) -> list[int]:
        """Core 0's miss curve, read by the kernel when one is bound."""
        kernel = self.policy.kernel_epoch
        if kernel is None:
            return self.monitors[0].miss_curve()
        return kernel.miss_curves()[0]

    def _run_epoch(self, now: int) -> bool:
        """Partitioning decision at a global epoch boundary.

        Returns True when the decision stalled the cores (so the
        scheduler knows its cached orderings are stale).
        """
        if self.collect_curves and self.monitors:
            self.epoch_curves.append(self._first_curve())
        if self.dvfs is not None:
            # Close the interval at the levels it actually ran at,
            # *before* the governor moves anything.
            self.dvfs.charge_to(now, self.cores, self.energy)
        self.policy.epoch(now)
        if self.dvfs is not None and self._measuring:
            # The governor decides after the partitioning decision:
            # next epoch's stall telemetry reflects the allocation the
            # partitioner just made, which is the coordination loop.
            # It stays parked at the initial (nominal) point until the
            # measured window opens: warmup is a miss storm that makes
            # every core look memory-bound, and a decision taken on
            # that telemetry would start the window at the deepest
            # level regardless of the workload.
            self.dvfs.epoch(now, self.cores, self.policy.way_allocations())
        if self._timeline is not None and self._measuring:
            self._record_sample(now)
        rec = obs_recorder()
        if rec.enabled:
            rec.epoch(
                now,
                measuring=self._measuring,
                static_energy_nj=self.energy.static_nj_at(now),
                dynamic_energy_nj=self.energy.dynamic_nj,
                powered_ways=self.policy.active_ways(),
            )
        stall = getattr(self.policy, "pending_stall", 0)
        if stall:
            for core in self.cores:
                if core.active:
                    core.time += stall
            self.policy.pending_stall = 0
            return True
        return False

    def _end_warmup(self) -> None:
        """Discard warmup statistics; the measured window starts here."""
        self.stats.reset_counters()
        self.memory.reset_statistics()
        # The energy window restarts at the global minimum time: every
        # later policy event (epochs, transitions) happens at or after
        # it, keeping the static integration monotonic.
        now = min(
            (core.time for core in self.cores if core.active),
            default=max(core.time for core in self.cores),
        )
        self.energy.reset_window(now)
        if self.dvfs is not None:
            self.dvfs.reset_window(now, self.cores)
        # Zero the L1 counters in place: the run loops and the kernel
        # context hold direct references to these columns.
        zeros = array("q", [0]) * self.config.n_cores
        self.l1_hits[:] = zeros
        self.l1_misses[:] = zeros
        self.l1_writebacks[:] = zeros
        self._measuring = True
        if self._timeline is not None:
            self._record_sample(now)

    def _collect(self, end_cycle: int) -> RunResult:
        if self.collect_curves and self.monitors:
            # Guarantee at least one curve even for sub-epoch runs, and
            # capture the tail epoch's behaviour.
            self.epoch_curves.append(self._first_curve())
        if self._timeline is not None and self._measuring:
            self._record_sample(end_cycle)
        stats = self.stats
        core_results = [
            CoreResult(
                benchmark=core.benchmark,
                instructions=core.frozen_instructions,
                cycles=core.frozen_cycles,
                llc_demand_accesses=stats.demand_accesses[core.core_id],
                llc_demand_misses=stats.demand_misses(core.core_id),
            )
            for core in self.cores
        ]
        window_instructions = sum(
            core.instructions - core.instr_base for core in self.cores
        )
        window_cycles = end_cycle - self.energy.window_start
        return RunResult(
            policy=self.policy.name,
            cores=core_results,
            dynamic_energy_nj=self.energy.dynamic_nj,
            static_energy_nj=self.energy.static_nj,
            average_active_ways=self.energy.average_active_ways,
            average_ways_probed=stats.average_ways_probed(),
            end_cycle=end_cycle,
            memory_reads=self.memory.reads,
            memory_writebacks=self.memory.writebacks,
            policy_stats=stats,
            window_instructions=window_instructions,
            window_cycles=window_cycles,
            epoch_curves=self.epoch_curves,
            scenario=self.scenario.name,
            timeline=self._timeline if self._timeline is not None else [],
            governor=(
                self.dvfs.spec.name if self.dvfs is not None else None
            ),
            core_dynamic_energy_nj=self.energy.core_dynamic_nj,
            core_static_energy_nj=self.energy.core_static_nj,
            diagnostics=self._diagnostics,
        )
