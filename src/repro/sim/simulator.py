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

Hot-path notes.  :meth:`_run_python` is allocation-free per
reference and indexes the per-core columns by core id: the next core
comes from a two-way compare (2 cores), a plain read (1 core) or a
heap (3+; always a heap when the schedule is dynamic, since membership
changes mid-run); the L1 lookup is inlined (a scan of the set's
``tags`` column plus a stamp store on a hit — the overwhelmingly
common case never enters another frame); L1 misses take one call into
:meth:`_l1_miss`, which drives the LLC policy's ``access_fast`` and
performs the L1 fill inline.

One access path, three copies.  The private-L1 / shared-L2 access of
Table 2 runs in exactly these places, which must stay in step:
:meth:`_l1_miss` (every python-tier miss, prewarm, arrival warming and
the C tier's boundary-straddling references), the LLC side in
:meth:`~repro.partitioning.base.BaseSharedCachePolicy.access_fast`,
and ``engine/kernel.c``.  The golden and cross-engine suites pin them
against each other.  The L1s themselves (``l1``) and their counters
(``l1_hits``/``l1_misses``/``l1_writebacks``) belong to the simulator.
Instruction fetches are assumed to hit the L1 instruction cache: the
traces are data-reference traces, and every evaluated quantity is
LLC-derived.
"""

from __future__ import annotations

from array import array
from heapq import heapify, heapreplace
from typing import Callable

from repro.cache.memory import MainMemory
from repro.cache.set_associative import NO_TAG, SetAssociativeCache
from repro.dvfs.governors import GovernorSpec
from repro.dvfs.state import DvfsState
from repro.energy.accounting import EnergyAccounting
from repro.energy.cacti import CactiEnergyModel
from repro.monitor.sampling import SetSampler
from repro.monitor.umon import UtilityMonitor
from repro.obs import builtin as obs_metrics
from repro.obs.metrics import metrics_enabled
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


def _set_rows(column: array, ways: int) -> list[memoryview]:
    """One view per set of a flat line column, sharing its buffer: the
    python tier scans a set through its row instead of slicing a new
    array on every reference."""
    view = memoryview(column)
    return [view[base:base + ways] for base in range(0, len(column), ways)]


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
        # Inner-loop constants and per-core L1 bindings.
        self._l1_mask = config.l1.set_mask
        self._l1_shift = config.l1.set_shift
        self._l1_ways = config.l1.ways
        self._miss_latency = config.l1_latency + config.l2_latency
        self._policy_access = self.policy.access_fast
        for core in self.cores:
            l1 = core.l1 = self.l1[core.core_id]
            l1.ensure_cores(config.n_cores)
            core.l1_tag_rows = _set_rows(l1.tags, l1.ways)
            core.l1_stamp_rows = _set_rows(l1.stamp, l1.ways)
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
            summary = rec.run_end(end_cycle=end_cycle)
            # Diagnostics carry only engine-invariant counts: the epoch
            # and event schedules are part of the shared run protocol,
            # so every engine (and every racing worker) serializes the
            # same bytes.  Wall-clock data stays in the trace artifact.
            self._diagnostics = {
                "epochs": summary["epochs"],
                "events": event_index,
            }
        self._record_run_metrics()
        self._arrival_warm = None  # drop the engine's closure (a cycle)
        return self._collect(end_cycle)

    def _record_run_metrics(self) -> None:
        """Fold run-end partitioning mechanics into the metric registry."""
        if not metrics_enabled():
            return
        stats = self.stats
        obs_metrics.ENGINE_RUNS.inc(policy=self.policy.name)
        for kind, count in stats.takeover_events.items():
            if count:
                obs_metrics.TAKEOVER_EVENTS.inc(count, kind=kind)
        if stats.transitions_started:
            obs_metrics.WAY_TRANSITIONS.inc(stats.transitions_started)
        if stats.transfer_flushes:
            obs_metrics.TRANSFER_FLUSHES.inc(stats.transfer_flushes)
        timeline = self._timeline or []
        gate_drops = sum(
            1
            for before, after in zip(timeline, timeline[1:])
            if after.powered_ways < before.powered_ways
        )
        if gate_drops:
            obs_metrics.POWER_GATE_DROPS.inc(gate_drops)

    # ------------------------------------------------------------------
    def _run_python(self) -> RunResult:  # repro: hot
        """The reference engine: the scalar loop every other engine must
        match bit for bit (the golden and cross-engine suites pin it),
        and the fallback for a policy the C kernel does not model,
        counted in ``repro_kernel_fallbacks_total``.  It runs on no
        figure path, so it is written to be read; its speed is
        reported, not gated."""
        config = self.config
        cores = self.cores
        issue_shift = max(0, config.issue_width.bit_length() - 1)
        (
            target, warmup, warmed_up, unfinished, next_epoch, initial,
        ) = self._begin_run()

        # Per-core state is indexed by core id straight from its
        # columns (a column index costs what a slot read does).
        columns = self.core_columns
        times = columns.core_time
        positions = columns.core_position
        lengths = columns.core_length
        instructions = columns.core_instructions
        refs_done = columns.core_refs_done
        window_open = columns.core_window_open
        window_closed = columns.core_window_closed
        l1_mask = self._l1_mask
        l1_shift = self._l1_shift
        l1_ways = self._l1_ways
        l1_latency = self.l1_latency
        l1_hits = self.l1_hits
        l1_miss = self._l1_miss
        # DVFS binding: with a governor, core-clock work is scaled by
        # the per-core timing rows (the miss path accumulates the
        # LLC+memory stall).  Without one this stays None and every
        # expression below is the historical arithmetic.
        dvfs = self.dvfs
        dvfs_entries = dvfs.entries if dvfs is not None else None

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

        # Scheduler: two-way compare of core ids ``a``/``b`` for the
        # common 2-core geometry, a heap keyed on (time, core_id) for
        # 3+ cores (same tie-break as min() over the core list:
        # earliest time, lowest id).  A dynamic schedule always uses
        # the heap — membership changes whenever a core arrives or
        # departs.  ``-1`` marks an unused compare slot.
        a = b = -1
        heap = None
        if events:
            heap = [(core.time, core.core_id) for core in initial]
            heapify(heap)
        else:
            n_scheduled = len(initial)
            a = initial[0].core_id if n_scheduled else -1
            b = initial[1].core_id if n_scheduled == 2 else -1
            if n_scheduled > 2:
                heap = [(core.time, core.core_id) for core in initial]
                heapify(heap)

        while unfinished:
            if b >= 0:
                cid = a if times[a] <= times[b] else b
                now = times[cid]
            elif heap is None:
                cid = a
                now = times[cid]
            elif heap:
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
                if rekey and heap is not None:
                    # The boundary stalled cores or changed scheduler
                    # membership; re-key the heap.
                    heap = [(c.time, c.core_id) for c in cores if c.active]
                    heapify(heap)
                continue

            core = cores[cid]
            position = positions[cid]
            gap = core.gaps[position]
            address = core.addresses[position] + core.offset
            is_write = core.writes[position]
            if dvfs_entries is None:
                issue_time = now + (gap >> issue_shift)
                hit_latency = l1_latency
            else:
                # Core-clock work stretches by num/den; the LLC keeps
                # its own clock (_l1_miss charges nominal cycles).
                entry = dvfs_entries[cid]
                issue_time = now + (gap >> issue_shift) * entry[0] // entry[1]
                hit_latency = entry[2]

            # Inlined L1 lookup — the hit path touches three integers
            # and returns to the scheduler without another frame.
            set_index = address & l1_mask
            tag = address >> l1_shift
            if tag in core.l1_tag_rows[set_index]:
                l1 = core.l1
                line = l1.tags.index(tag, set_index * l1_ways)
                l1_clock = l1.clock
                l1.stamp[line] = l1_clock[set_index]
                l1_clock[set_index] += 1
                if is_write:
                    l1.dirty[line] = 1
                l1_hits[cid] += 1
                time = issue_time + hit_latency
            else:
                time = issue_time + l1_miss(
                    cid, address, is_write, issue_time, set_index, tag
                )
            times[cid] = time
            instructions[cid] += gap + 1
            position += 1
            positions[cid] = 0 if position == lengths[cid] else position
            done = refs_done[cid] + 1
            refs_done[cid] = done
            if heap is not None:
                heapreplace(heap, (time, cid))

            if done == warmup and not window_open[cid]:
                # Each core's IPC window opens at its own warmup point
                # so every scheme measures exactly the same
                # (target - warmup) references per core; the global
                # statistics reset once the last gating core gets there.
                core.start_measurement()
                warmed_up, clock = self._maybe_end_warmup(warmed_up, clock)
            if done == target and not window_closed[cid]:
                core.freeze()
                unfinished -= 1

        return self._finish_run(clock, event_index)

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
    # repro: hot
    def _l1_miss(
        self,
        core_id: int,
        address: int,
        is_write: int,
        now: int,
        set_index: int,
        tag: int,
    ) -> int:
        """L1 miss path: LLC fetch, inlined L1 fill, victim writeback.

        Fetch before fill, then write the dirty victim through the LLC.
        ``engine/kernel.c``'s ``l1_miss`` repeats this sequence — keep
        the two in sync.
        """
        self.l1_misses[core_id] += 1
        policy_access = self._policy_access
        # Fetch the line from the shared LLC (write-allocate).
        memory_latency = policy_access(core_id, address, False, now)

        # Choose the L1 victim (plain LRU over the full set).
        l1 = self.l1[core_id]
        ways = l1.ways
        base = set_index * ways
        tags = l1.tags
        valid = l1.valid
        stamp = l1.stamp
        dirty = l1.dirty
        if valid[set_index] != ways:
            # A free way: the first one is the victim.
            line = tags.index(NO_TAG, base)
            evicted_dirty = 0
            valid[set_index] += 1
            l1.core_occupancy[core_id] += 1
        else:
            rows = self.cores[core_id].l1_stamp_rows
            line = stamp.index(min(rows[set_index]), base)
            evicted_dirty = dirty[line]

        # Inlined L1 fill.
        old_tag = tags[line]
        tags[line] = tag
        dirty[line] = 1 if is_write else 0
        l1.owner[line] = core_id
        clock = l1.clock
        stamp[line] = clock[set_index]
        clock[set_index] += 1

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
        interleaved across cores, before the measured window.  The
        traffic ages normally and everything it touches is discarded
        by the warmup statistics reset.  Only cores present at cycle 0
        warm here; a late arrival warms at its arrival cycle
        (:meth:`_warm_core`).

        Cores advance through per-core cursors and drained cores drop
        out of the sweep list, so each round only visits cores that
        still have lines to warm (the previous implementation rescanned
        every core per warmed line).
        """
        l1_mask = self._l1_mask
        l1_shift = self._l1_shift
        l1_hits = self.l1_hits
        miss = self._l1_miss
        warm_one = self._warm_access
        # [core, cursor, lines, length, hit_cost] per core with warming
        # to do (the hit cost is the core's scaled L1 latency when the
        # run carries a governor).
        active = [
            [
                core, 0, core.warm_lines, len(core.warm_lines),
                self._l1_hit_cost(core.core_id),
            ]
            for core in self.cores
            if core.active and len(core.warm_lines)
        ]
        while active:
            drained = False
            for entry in active:
                cursor = entry[1]
                core = entry[0]
                warm_one(
                    core, entry[2][cursor] + core.offset,
                    l1_mask, l1_shift, entry[4], l1_hits, miss,
                )
                cursor += 1
                entry[1] = cursor
                if cursor == entry[3]:
                    drained = True
            if drained:
                active = [entry for entry in active if entry[1] < entry[3]]

    def _l1_hit_cost(self, core_id: int) -> int:
        """The L1 hit latency of ``core_id`` at its current operating
        point (the nominal latency without a governor)."""
        if self.dvfs is None:
            return self.l1_latency
        return self.dvfs.entries[core_id][2]

    @staticmethod
    def _warm_access(
        core: CoreState,
        address: int,
        l1_mask: int,
        l1_shift: int,
        l1_latency: int,
        l1_hits: array,
        miss,
    ) -> None:
        """One warm touch of ``address`` — the single shared copy of
        the warming L1 access sequence (callers pass the bound loop
        constants so per-line cost stays flat)."""
        core_id = core.core_id
        times = core.columns.core_time
        now = times[core_id]
        set_index = address & l1_mask
        tag = address >> l1_shift
        if tag in core.l1_tag_rows[set_index]:
            l1 = core.l1
            clock = l1.clock
            l1.stamp[l1.tags.index(tag, set_index * l1.ways)] = clock[set_index]
            clock[set_index] += 1
            l1_hits[core_id] += 1
            times[core_id] = now + l1_latency
        else:
            times[core_id] = now + miss(
                core_id, address, False, now, set_index, tag
            )

    def _warm_core(self, core: CoreState) -> None:
        """Warm one late-arriving core's resident working set.

        The same per-line traffic as :meth:`_prewarm`, but for a single
        core starting at its arrival cycle.  The warming accesses are
        real LLC traffic (the incoming application faults its working
        set in), so they are charged to the measured window like any
        other post-warmup work.
        """
        warm_one = self._warm_access
        l1_mask = self._l1_mask
        l1_shift = self._l1_shift
        hit_cost = self._l1_hit_cost(core.core_id)
        l1_hits = self.l1_hits
        miss = self._l1_miss
        offset = core.offset
        for line in core.warm_lines:
            warm_one(
                core, line + offset, l1_mask, l1_shift, hit_cost, l1_hits, miss
            )

    def _run_epoch(self, now: int) -> bool:
        """Partitioning decision at a global epoch boundary.

        Returns True when the decision stalled the cores (so the
        scheduler knows its cached orderings are stale).
        """
        if self.collect_curves and self.monitors:
            self.epoch_curves.append(self.monitors[0].miss_curve())
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
        if metrics_enabled():
            obs_metrics.ENGINE_EPOCHS.inc()
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
            self.epoch_curves.append(self.monitors[0].miss_curve())
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
