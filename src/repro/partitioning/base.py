"""Shared-LLC policy base class and per-run LLC statistics.

Every scheme in the paper follows the same access skeleton — probe a
set of permitted tag ways, fill into a permitted way on a miss, write
back the victim — and differs only in *which* ways may be probed or
filled, *which* victim is chosen, and what happens at each 5M-cycle
partitioning epoch.  :class:`BaseSharedCachePolicy` implements the
skeleton once, charges energy/statistics uniformly, and exposes hooks
for the scheme-specific parts.

Hot-path design.  :meth:`BaseSharedCachePolicy.access_fast` is the
allocation-free inner loop: one flat function, no result objects, no
per-access hook calls.  The way restrictions are *data*, not code, as
the paper's per-core RAP/WAP registers are: every policy declares a
core's probe and fill ways with :meth:`~BaseSharedCachePolicy._set_core_ways`,
which stores them in ``_core_tables`` as a way-membership bitmask,
probe width and fill tuple, so a probe is a scan of the set's
``mapped`` column and one mask test.  The C kernel reads the same
table.  Defining the removed ``_probe_ways``/``_fill_ways`` hooks
raises :class:`TypeError` when the subclass is created.
:meth:`~BaseSharedCachePolicy.access_fast` is the only LLC access
method; the simulator's L1 miss paths and the C kernel's ``llc_access``
call or mirror it.
"""

from __future__ import annotations

from array import array
from collections import defaultdict

from repro.cache.memory import MainMemory
from repro.cache.set_associative import NO_TAG, SetAssociativeCache
from repro.energy.accounting import EnergyAccounting
from repro.monitor.umon import UtilityMonitor
from repro.partitioning.lookahead import AllocationResult, lookahead_partition


class PolicyStats:
    """LLC-level statistics every policy maintains uniformly.

    Times are simulator cycles.  Transfer-related flushes are bucketed
    by time elapsed since the most recent partitioning decision, which
    is exactly the series Figure 16 of the paper plots.
    """

    def __init__(self, n_cores: int, flush_bucket_cycles: int = 250_000) -> None:
        self.n_cores = n_cores
        self.flush_bucket_cycles = flush_bucket_cycles
        #: per-core counters, int64 columns the C kernel advances in place
        self.demand_accesses = array("q", [0]) * n_cores
        self.demand_hits = array("q", [0]) * n_cores
        self.writeback_accesses = array("q", [0]) * n_cores
        self.ways_probed_sum = array("q", [0]) * n_cores
        self.probe_events = array("q", [0]) * n_cores
        self.decisions = 0
        self.repartitions = 0
        self.last_decision_cycle: int | None = None
        self.transition_durations: list[int] = []
        #: ages of transitions still in flight at run end (lower
        #: bounds on their true durations — UCP's migrations often
        #: outlive the whole measurement window)
        self.pending_transition_ages: list[int] = []
        self.transitions_started = 0
        self.transitions_completed = 0
        self.transitions_forced = 0
        self.takeover_events = {
            "donor_hit": 0,
            "donor_miss": 0,
            "recipient_hit": 0,
            "recipient_miss": 0,
        }
        self.transfer_flushes = 0
        self.transfer_flush_buckets: dict[int, int] = defaultdict(int)

    # ------------------------------------------------------------------
    def reset_counters(self) -> None:
        """Zero every counter (end of warmup) without replacing self.

        Policies hold a reference to this object — and the hot access
        path and the kernel context bind the per-core counter columns
        once — so both the object and its columns are zeroed in place.
        """
        zeros = array("q", [0]) * self.n_cores
        self.demand_accesses[:] = zeros
        self.demand_hits[:] = zeros
        self.writeback_accesses[:] = zeros
        self.ways_probed_sum[:] = zeros
        self.probe_events[:] = zeros
        self.decisions = 0
        self.repartitions = 0
        self.last_decision_cycle = None
        self.transition_durations = []
        self.pending_transition_ages = []
        self.transitions_started = 0
        self.transitions_completed = 0
        self.transitions_forced = 0
        self.takeover_events = {key: 0 for key in self.takeover_events}
        self.transfer_flushes = 0
        self.transfer_flush_buckets = defaultdict(int)

    def demand_misses(self, core: int) -> int:
        """Demand misses observed for ``core``."""
        return self.demand_accesses[core] - self.demand_hits[core]

    def average_ways_probed(self) -> float:
        """Mean tag ways consulted per LLC access across all cores."""
        probes = sum(self.probe_events)
        if probes == 0:
            return 0.0
        return sum(self.ways_probed_sum) / probes

    def note_decision(self, now: int, repartitioned: bool) -> None:
        """Record a partitioning decision at cycle ``now``."""
        self.decisions += 1
        if repartitioned:
            self.repartitions += 1
            self.last_decision_cycle = now

    def note_transfer_flush(self, now: int, lines: int = 1) -> None:
        """Record lines flushed because of an in-flight way transfer."""
        self.transfer_flushes += lines
        if self.last_decision_cycle is not None:
            bucket = (now - self.last_decision_cycle) // self.flush_bucket_cycles
            self.transfer_flush_buckets[bucket] += lines

    def flush_series(self, horizon_buckets: int) -> list[float]:
        """Average transfer flushes per decision for each time bucket."""
        denominator = max(1, self.repartitions)
        return [
            self.transfer_flush_buckets.get(b, 0) / denominator
            for b in range(horizon_buckets)
        ]


class BaseSharedCachePolicy:
    """Common probe/fill/writeback skeleton for all shared-LLC schemes.

    Subclasses declare each core's way restrictions with
    :meth:`_set_core_ways` (in ``__init__``, ``decide`` or a re-target)
    and may override the ``_select_victim`` hook and the epoch-boundary
    ``decide`` method.  ``None`` for a way restriction means "all ways".
    """

    #: human-readable scheme name (matches the paper's legends)
    name = "base"
    #: whether the simulator should keep UMON monitors updated
    needs_monitors = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for hook in ("_probe_ways", "_fill_ways"):
            if hook in vars(cls):
                raise TypeError(
                    f"{cls.__name__} defines {hook}, which is no longer "
                    "called: declare way restrictions with "
                    "self._set_core_ways(core, probe, fill) instead"
                )

    def __init__(
        self,
        cache: SetAssociativeCache,
        memory: MainMemory,
        energy: EnergyAccounting,
        stats: PolicyStats,
        monitors: list[UtilityMonitor] | None = None,
    ) -> None:
        self.cache = cache
        self.memory = memory
        self.energy = energy
        self.stats = stats
        self.monitors = monitors or []
        self.n_cores = stats.n_cores
        self.geometry = cache.geometry

        # --- cache, stats and monitor state bound for access_fast -----
        n = self.n_cores
        ways = self.geometry.ways
        cls = type(self)
        base = BaseSharedCachePolicy
        self._ways = ways
        self._tags = cache.tags
        self._stamp = cache.stamp
        self._dirty = cache.dirty
        self._owner = cache.owner
        self._mapped = cache.mapped
        self._clock = cache.clock
        self._valid = cache.valid
        self._set_mask = self.geometry.set_mask
        self._set_shift = self.geometry.set_shift
        self._occ = cache.ensure_cores(n)
        #: (probe_mask, probe_count, fill_ways) per core: the probe
        #: ways as a membership mask (-1 = all bits set = every way)
        #: and a width, and the fill ways (None = every way)
        self._core_tables: list[tuple[int, int, tuple[int, ...] | None]] = [
            (-1, ways, None)
        ] * n
        # The per-core counter columns are zeroed in place by
        # PolicyStats.reset_counters, so binding them here is safe.
        self._ways_probed_sum = stats.ways_probed_sum
        self._probe_events = stats.probe_events
        self._writeback_accesses = stats.writeback_accesses
        self._demand_accesses = stats.demand_accesses
        self._demand_hits = stats.demand_hits
        self._custom_victim = cls._select_victim is not base._select_victim
        self._pre_access_active = cls._pre_access is not base._pre_access
        self._post_fill_active = cls._post_fill is not base._post_fill
        if self.monitors:
            sampler = self.monitors[0].sampler
            self._umon_mask = sampler.mask
            self._umon_offset = sampler.offset
            self._atds = [monitor.atd for monitor in self.monitors]
        else:
            self._umon_mask = -1  # (x & -1) == x never equals offset -1
            self._umon_offset = -1
            self._atds = []
        #: the kernel's monitor read-out and lookahead
        #: (:class:`repro.engine.compiled.KernelEpoch`), bound for a
        #: compiled run; None runs the Python monitors and lookahead
        self.kernel_epoch = None
        #: per-slot activity mask maintained by the scenario engine via
        #: :meth:`on_core_active`/:meth:`on_core_idle`; static runs
        #: never change it
        self.core_active = [True] * n

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def _select_victim(self, core: int, set_index: int, ways: tuple[int, ...] | None) -> int:
        """Choose the way a miss by ``core`` fills into."""
        return self.cache.victim(set_index, ways)

    def _pre_access(self, core: int, set_index: int, now: int, hit: bool) -> None:
        """Called on every access after the probe — takeover hook."""

    def _post_fill(self, core: int, set_index: int, way: int, evicted_owner: int,
                   evicted_dirty: bool, now: int) -> None:
        """Called after a fill replaced a line — UCP transfer tracking."""

    def decide(self, now: int) -> None:
        """Epoch-boundary partitioning decision (default: none)."""

    def active_ways(self) -> int:
        """Number of powered ways (for static-energy integration)."""
        return self.geometry.ways

    # ------------------------------------------------------------------
    # Core arrival / departure (scenario engine)
    # ------------------------------------------------------------------
    def on_core_idle(self, core: int, now: int) -> None:
        """``core`` stopped executing (departed, or absent from cycle 0).

        Idempotent; subclasses react in :meth:`_retarget_idle`
        (cooperative partitioning releases and gates the core's ways,
        UCP/Fair Share re-target on the remaining cores).
        """
        if not self.core_active[core]:
            return
        self.core_active[core] = False
        self._retarget_idle(core, now)

    def on_core_active(self, core: int, now: int) -> None:
        """``core`` started executing (a scenario arrival)."""
        if self.core_active[core]:
            return
        self.core_active[core] = True
        self._retarget_active(core, now)

    def _retarget_idle(self, core: int, now: int) -> None:
        """Scheme-specific reaction to a core going idle (default: none;
        an unmanaged cache simply stops seeing the core's accesses)."""

    def _retarget_active(self, core: int, now: int) -> None:
        """Scheme-specific reaction to a core becoming active."""

    def active_core_ids(self) -> list[int]:
        """Slots currently executing, in id order."""
        return [core for core in range(self.n_cores) if self.core_active[core]]

    def even_split(self) -> list[int]:
        """Per-slot way counts splitting the cache evenly over the
        active cores (remainder ways go to the lowest-id active cores;
        idle slots get zero).  The shared arrival/departure re-target
        rule of the way-counting schemes."""
        counts = [0] * self.n_cores
        active = self.active_core_ids()
        if active:
            share, remainder = divmod(self.geometry.ways, len(active))
            for index, core in enumerate(active):
                counts[core] = share + (1 if index < remainder else 0)
        return counts

    def way_allocations(self) -> list[int]:
        """Per-slot way allocation as the policy sees it (timeline view).

        The default reports the fill restriction width (``None`` =
        every way, as in an unmanaged cache); schemes with an explicit
        partition override this with their logical allocation.
        """
        ways = self.geometry.ways
        return [
            ways if fill is None else len(fill)
            for _mask, _count, fill in self._core_tables
        ]

    # ------------------------------------------------------------------
    # Way restrictions (the RAP/WAP registers)
    # ------------------------------------------------------------------
    def _set_core_ways(
        self,
        core: int,
        probe: tuple[int, ...] | None,
        fill: tuple[int, ...] | None,
    ) -> None:
        """Declare the ways ``core`` probes on a lookup and may fill
        into on a miss (None = every way)."""
        if probe is None:
            self._core_tables[core] = (-1, self.geometry.ways, fill)
            return
        mask = 0
        for way in probe:
            mask |= 1 << way
        self._core_tables[core] = (mask, len(probe), fill)

    # ------------------------------------------------------------------
    # The shared access path
    # ------------------------------------------------------------------
    def access_fast(self, core: int, line_address: int, is_write: bool, now: int) -> int:
        """One LLC access; returns the memory latency it incurred.

        Allocation-free: the outcome lands only in the counters it
        charges (for a demand read, :class:`PolicyStats`'s
        ``demand_hits``; for every access, ``ways_probed_sum`` and the
        energy counters), not in a result object.
        """
        set_index = line_address & self._set_mask
        tag = line_address >> self._set_shift
        n_ways = self._ways
        base = set_index * n_ways
        mapped = self._mapped
        probe_mask, n_probed, fill_ways = self._core_tables[core]
        # ``mapped_way`` is where the tag's newest copy lives, even when
        # this core may not probe that way (then the fill below remaps it).
        try:
            mapped_way = way = mapped.index(tag, base, base + n_ways) - base
        except ValueError:
            mapped_way = way = -1
        if way >= 0 and not (probe_mask >> way) & 1:
            way = -1
        hit = way >= 0

        energy = self.energy
        energy.tag_probes += n_probed
        if hit:
            energy.data_reads += 1
        self._ways_probed_sum[core] += n_probed
        self._probe_events[core] += 1
        if is_write:
            self._writeback_accesses[core] += 1
        else:
            self._demand_accesses[core] += 1
            if hit:
                self._demand_hits[core] += 1
            if (set_index & self._umon_mask) == self._umon_offset:
                self._atds[core].record(set_index, tag)
                energy.monitor_updates += 1

        pre_access = self._pre_access_active
        if pre_access:
            self._pre_access(core, set_index, now, hit)

        if hit:
            # The takeover hook may have restructured the set (e.g. a
            # power-gating completion invalidated the hit way), so
            # re-check before touching.
            line = base + way
            if not pre_access or self._tags[line] == tag:
                clock = self._clock
                self._stamp[line] = clock[set_index]
                clock[set_index] += 1
                if is_write:
                    self._dirty[line] = 1
                    energy.data_writes += 1
            return 0

        # Miss path: fetch (demand only), choose victim, fill, write back.
        memory = self.memory
        memory_latency = 0
        if not is_write:
            bank = (line_address >> memory._bank_shift) % memory.n_banks
            bank_free = memory._bank_free_at
            start = bank_free[bank]
            if now > start:
                start = now
            bank_free[bank] = start + memory.bank_busy
            queueing = start - now
            memory.reads += 1
            memory.read_stall_cycles += queueing
            memory_latency = queueing + memory.latency

        tags = self._tags
        valid = self._valid
        stamp = self._stamp
        if self._custom_victim:
            victim_way = self._select_victim(core, set_index, fill_ways)
        elif fill_ways is None:
            if valid[set_index] != n_ways:
                # The set has a free way: the first one is the victim.
                victim_way = tags.index(NO_TAG, base) - base
            else:
                stamps = stamp[base:base + n_ways]
                victim_way = stamps.index(min(stamps))
        else:
            victim_way = -1
            if valid[set_index] != n_ways:
                for candidate in fill_ways:
                    if tags[base + candidate] == NO_TAG:
                        victim_way = candidate
                        break
            if victim_way < 0:
                best_stamp = 0
                for candidate in fill_ways:
                    s = stamp[base + candidate]
                    if victim_way < 0 or s < best_stamp:
                        victim_way = candidate
                        best_stamp = s
                if victim_way < 0:
                    raise ValueError("victim() called with an empty way set")

        # Inline fill: the state updates of SetAssociativeCache.install,
        # which kernel.c's llc_access repeats — keep the two in sync.
        line = base + victim_way
        old_tag = tags[line]
        occ = self._occ
        dirty = self._dirty
        owner = self._owner
        if old_tag != NO_TAG:
            evicted_dirty = dirty[line]
            evicted_owner = owner[line]
            if mapped[line] == old_tag:
                mapped[line] = NO_TAG
            if evicted_owner >= 0:
                occ[evicted_owner] -= 1
        else:
            evicted_dirty = 0
            evicted_owner = -1
            valid[set_index] += 1
        tags[line] = tag
        if mapped_way >= 0:
            # A stale copy in a way this core no longer probes loses
            # its mapping: the tag now resolves to the new fill.
            mapped[base + mapped_way] = NO_TAG
        mapped[line] = tag
        dirty[line] = 1 if is_write else 0
        owner[line] = core
        clock = self._clock
        stamp[line] = clock[set_index]
        clock[set_index] += 1
        occ[core] += 1
        energy.data_writes += 1
        if evicted_dirty:
            victim_address = (old_tag << self._set_shift) | set_index
            bank = (victim_address >> memory._bank_shift) % memory.n_banks
            bank_free = memory._bank_free_at
            start = bank_free[bank]
            if now > start:
                start = now
            bank_free[bank] = start + memory.bank_busy
            memory.writebacks += 1
            memory.flush_timeline[now // memory.flush_bucket_cycles] += 1
            energy.writebacks += 1
        if self._post_fill_active:
            self._post_fill(
                core, set_index, victim_way, evicted_owner, evicted_dirty, now
            )
        return memory_latency

    # ------------------------------------------------------------------
    # Epoch plumbing shared by all policies
    # ------------------------------------------------------------------
    def epoch(self, now: int) -> None:
        """Run a partitioning decision and age the monitors."""
        self.decide(now)
        if self.kernel_epoch is not None:
            self.kernel_epoch.age()
            return
        for monitor in self.monitors:
            monitor.end_epoch()

    def miss_curves(self) -> list[list[int]]:
        """Current per-core miss curves from the monitors."""
        if self.kernel_epoch is not None:
            return self.kernel_epoch.miss_curves()
        return [monitor.miss_curve() for monitor in self.monitors]

    def lookahead(self, cores: list[int], threshold: float) -> AllocationResult:
        """:func:`lookahead_partition` of every way over ``cores``'
        current miss curves."""
        if self.kernel_epoch is not None:
            return self.kernel_epoch.lookahead(cores, self._ways, threshold)
        curves = self.miss_curves()
        return lookahead_partition(
            [curves[core] for core in cores], self._ways, threshold=threshold
        )
