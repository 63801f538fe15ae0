"""The compiled execution engine: whole spans in C, boundaries in Python.

:func:`run_compiled` drives :mod:`repro.engine.kernel` (kernel.c,
built/loaded by :mod:`repro.engine.build`) through the simulator's
shared run protocol.  The C kernel executes references in exact global
order between boundaries, and warms caches (the run-start prewarm and
every late arrival) in C as well; everything episodic — partitioning
epochs, scenario events, warmup reset, takeover completions — runs in
the ordinary Python machinery between spans.  The contract is bit-exact
equality with ``CMPSimulator._run_python`` on every supported
configuration; the golden fixtures and ``tests/engine`` pin it.

Shared state.  The simulator's state is a set of flat buffers that the
Python tier and the kernel both index in place: each cache's line
columns (``tags``/``stamp``/``owner``/``dirty``, line (set, way) at
``set * ways + way``), its per-set ``clock``/``valid`` columns and
per-core occupancy counters, the LLC's ``mapped`` lookup column, the
UMON tag directories, the memory banks, UCP's migration counters, the
takeover bit vectors, every core's execution state
(:class:`~repro.sim.cpu.CoreColumns`, including the buffer addresses
of its reference stream) and the per-core hit/miss/probe/stall
counters.  The context holds their base addresses, set once per run
(the private L1s through a table of one pointer per core).  A span
therefore copies no per-core state.  Around each span the Python side
writes the boundary scalars, adds the span's increments of the energy,
memory and statistics totals (scalar fields of the context) to its own
totals, repacks the policy's per-core way tables and the DVFS timing
rows only when their values changed, and moves:

* order-sensitive dict side effects (flush timelines, transfer-flush
  buckets, UCP transition durations), which come back through an
  ordered event buffer and are replayed chronologically;
* the takeover engine's donor/recipient way tables, repacked only when
  its ``generation`` moves.

A reference (or warming line) whose LLC traffic would complete a
takeover vector bails out to Python, which runs it through the
simulator's own reference step (``CMPSimulator._step``, or
``_warm_line`` for a warming line) and resumes the kernel.

The boundary's two sweeps over every LLC set, gating a way
(``invalidate_way``) and a forced takeover completion's flush
(``flush_ways``), run in the kernel too: the context binds
:class:`KernelSweeps` into the LLC for the run.  So do a partitioning
epoch's monitor read-out, counter ageing and lookahead: the context
binds :class:`KernelEpoch` on the policy.

Every policy declares its way restrictions as data through
``_set_core_ways``, so a plugin policy that only restricts ways runs
in the kernel.  A policy that overrides the victim, pre-access or
post-fill hooks outside the five built-in schemes falls back to the
pure-Python engine, noted once per process and counted in
``repro_kernel_fallbacks_total``; selection stays an optimisation,
never a behaviour change.
"""

from __future__ import annotations

import ctypes
import re
from array import array
from functools import cache

from repro.engine.build import (
    KERNEL_SOURCE,
    ST_BOUNDARY,
    ST_DONE,
    ST_EVBUF_FULL,
    ST_NEED_PYTHON_REF,
    ST_WARMUP_GATE,
    load_kernel,
)
from repro.monitor.umon import UtilityMonitor
from repro.obs import builtin as obs_metrics
from repro.obs.log import note_fallback
from repro.obs.trace import timed
from repro.partitioning.lookahead import AllocationResult, check_lookahead
from repro.sim.cpu import CORE_ADDRESS_SPACE_BITS

_NEVER = 1 << 62

KIND_TABLED = 0
KIND_UCP = 1
KIND_COOP = 2

_CANARY = 0x5EED1DEA5EED1DEA
#: event-buffer capacity; a span bails with ST_EVBUF_FULL (and resumes)
#: once fewer than the kernel's 2,048-triple per-reference headroom
#: remain — no measured span came near this many
_EVBUF_TRIPLES = 4096

_EV_FLUSH_TL = 1
_EV_TFB = 2
_EV_TRANS_DUR = 3

#: the kernel span's count arg and the histogram it feeds
_SPAN_COUNTS = {"refs": obs_metrics.KERNEL_SPAN_REFS}


@cache
def _ctx_type() -> type[ctypes.Structure]:
    """ctypes mirror of kernel.c's ``Ctx`` struct, read from its source.

    The layout is declared once, in C: every field is 8 bytes (int64
    or a pointer), and the ABI size check at run start catches a
    declaration this reader skipped.
    """
    source = KERNEL_SOURCE.read_text()
    body = source[source.index("typedef struct {"):source.index("} Ctx;")]
    names = re.findall(r"^\s*(?:i64|u?int(?:8|32)_t)\s*\**\s*(\w+);", body, re.M)
    fields = [(name, ctypes.c_int64) for name in names]
    return type("Ctx", (ctypes.Structure,), {"_fields_": fields})


#: simulator component, attribute -> context field: totals the kernel
#: only ever increments, so the context carries one span's increments
#: (``leave`` adds them to the Python totals and zeroes them, and no
#: total is copied in)
_TOTALS = (
    ("energy", "tag_probes", "e_tag_probes"),
    ("energy", "data_reads", "e_data_reads"),
    ("energy", "data_writes", "e_data_writes"),
    ("energy", "writebacks", "e_writebacks"),
    ("energy", "monitor_updates", "e_monitor_updates"),
    ("memory", "reads", "mem_reads"),
    ("memory", "writebacks", "mem_writebacks"),
    ("memory", "read_stall_cycles", "mem_read_stall"),
    ("stats", "transfer_flushes", "transfer_flushes"),
    ("stats", "transitions_completed", "transitions_completed"),
)
#: ``PolicyStats.takeover_events`` key -> context field (the dict is
#: rebound at the warmup reset, so it is looked up per span)
_TAKEOVER_EVENTS = (
    ("donor_hit", "tk_donor_hit"),
    ("donor_miss", "tk_donor_miss"),
    ("recipient_hit", "tk_recipient_hit"),
    ("recipient_miss", "tk_recipient_miss"),
)


def _addr(arr: array) -> int:
    return arr.buffer_info()[0]


def _qzeros(n: int) -> array:
    return array("q", [0]) * max(1, n)


def _put(col: array, base: int, values) -> None:
    """Store ``values`` into ``col`` from index ``base`` on."""
    col[base:base + len(values)] = array("q", values)


def policy_kind(policy) -> int | None:
    """Classify ``policy`` for the kernel; None = not modelled.

    The kernel transliterates the shared ``access_fast`` skeleton plus
    the UCP and Cooperative Partitioning access hooks.  Any policy
    whose access path is *data-only* (way tables set through
    ``_set_core_ways``, no victim/pre-access/post-fill hook overrides)
    is supported generically; the two hook-bearing schemes are matched
    by exact type so a subclass with different hooks falls back.
    """
    from repro.core.policy import CooperativePartitioningPolicy
    from repro.monitor.atd import AuxiliaryTagDirectory
    from repro.partitioning.base import BaseSharedCachePolicy

    if not isinstance(policy, BaseSharedCachePolicy):
        return None
    cls = type(policy)
    if cls.access_fast is not BaseSharedCachePolicy.access_fast:
        return None
    for atd in policy._atds:
        if type(atd) is not AuxiliaryTagDirectory:
            return None

    from repro.cache.replacement import PartitionAwareVictimSelector
    from repro.partitioning.ucp import UCPPolicy

    if cls is UCPPolicy:
        if not policy._custom_victim or policy._pre_access_active:
            return None
        if type(policy._selector) is not PartitionAwareVictimSelector:
            return None
        return KIND_UCP
    if cls is CooperativePartitioningPolicy:
        if policy._post_fill_active:
            return None
        return KIND_COOP
    if (
        policy._custom_victim
        or policy._pre_access_active
        or policy._post_fill_active
    ):
        return None
    return KIND_TABLED


class KernelSweeps:
    """The kernel's way-wide sweeps over one cache's line columns.

    Bound as a cache's ``kernel_sweeps``, it replaces the Python loops
    of :meth:`~repro.cache.set_associative.SetAssociativeCache.invalidate_way`
    and :meth:`~repro.cache.set_associative.SetAssociativeCache.flush_ways`
    with the same results.  It keeps the columns, not the cache, and is
    built after the cache's ``ensure_cores`` for every core it counts.
    Each call allocates its output buffer at the size the sweep can
    fill (a buffer kept per run raised the pool's peak RSS ~0.5 MB).
    """

    __slots__ = ("_invalidate", "_flush", "_keep", "_columns", "_shape")

    def __init__(self, lib, cache) -> None:
        self._invalidate = lib.repro_invalidate_way
        self._flush = lib.repro_flush_ways
        geometry = cache.geometry
        counters = cache.core_occupancy
        mapped = cache.mapped
        #: the columns the addresses below point into, kept alive
        self._keep = (cache.tags, cache.dirty, cache.owner, mapped,
                      cache.valid, counters)
        self._columns = (
            _addr(cache.tags), _addr(cache.dirty), _addr(cache.owner),
            None if mapped is None else _addr(mapped), _addr(cache.valid),
            _addr(counters), len(counters),
        )
        self._shape = (geometry.num_sets, geometry.ways, geometry.set_shift)

    def _check(self, ways) -> None:
        """The kernel indexes lines by way: refuse one outside the set."""
        width = self._shape[1]
        for way in ways:
            if not 0 <= way < width:
                raise IndexError(f"way {way} outside 0..{width - 1}")

    def invalidate_way(self, way: int) -> list[int]:
        """``repro_invalidate_way``: see ``SetAssociativeCache.invalidate_way``."""
        self._check((way,))
        out = array("q", [0]) * self._shape[0]
        count = self._invalidate(*self._columns, *self._shape, way, _addr(out))
        return out[:count].tolist()

    def flush_ways(self, ways: tuple[int, ...]) -> list[int]:
        """``repro_flush_ways``: see ``SetAssociativeCache.flush_ways``."""
        self._check(ways)
        tags, dirty = self._columns[:2]
        selected = array("q", ways)
        out = array("q", [0]) * (self._shape[0] * len(selected))
        count = self._flush(tags, dirty, *self._shape, _addr(selected),
                            len(selected), _addr(out))
        return out[:count].tolist()


class KernelLookahead:
    """``repro_lookahead`` over fixed rows of a curve buffer: the curves
    ``curves[starts[k]:starts[k] + lens[k]]``.

    Called with a threshold, it returns what :func:`lookahead_partition`
    returns for those curves and raises the same ``ValueError`` cases.
    The output buffers are sized once: the allocations, then each
    round's core, ways and utility (a round awards at least one way,
    so there are at most as many rounds as ways beyond the floors).
    """

    __slots__ = ("outputs", "_lookahead", "_keep", "_shape", "_head", "_tail")

    def __init__(self, lib, curves: array, starts: array, lens: array,
                 total_ways: int, min_ways: int = 1) -> None:
        self._lookahead = lib.repro_lookahead
        n = len(starts)
        balance = total_ways - n * min_ways
        self.outputs = (_qzeros(n), _qzeros(balance), _qzeros(balance),
                        array("d", [0.0]) * max(1, balance))
        #: the buffers the addresses below point into, kept alive
        self._keep = (curves, starts, lens)
        self._shape = (n, total_ways, min_ways)
        self._head = (_addr(curves), _addr(starts), _addr(lens), n, total_ways)
        self._tail = (min_ways, *map(_addr, self.outputs))

    def __call__(self, threshold: float) -> AllocationResult:
        n, total_ways, min_ways = self._shape
        check_lookahead(n, total_ways, threshold, min_ways)
        if min_ways < 0:
            raise ValueError(f"min_ways must be non-negative, got {min_ways}")
        rounds = self._lookahead(*self._head, threshold, *self._tail)
        allocations, cores, blocks, mus = self.outputs
        return AllocationResult(
            allocations=allocations.tolist(),
            unallocated=total_ways - sum(allocations),
            rounds=list(zip(cores[:rounds].tolist(), blocks[:rounds].tolist(),
                            mus[:rounds].tolist())),
        )


class KernelEpoch:
    """The kernel's epoch read-out and lookahead over a policy's monitors.

    Bound as the policy's ``kernel_epoch`` for a compiled run, it
    replaces the Python of :meth:`UtilityMonitor.miss_curve
    <repro.monitor.umon.UtilityMonitor.miss_curve>`,
    :meth:`~repro.monitor.umon.UtilityMonitor.end_epoch` and
    :func:`lookahead_partition` with the same results.  :meth:`read`
    writes every monitor's curve into ``curves`` (one row of
    ``ways + 1`` per core), which the lookahead reads in place, and
    :meth:`age` ages the counters the kernel span records into.
    """

    __slots__ = ("_readout", "_lib", "_keep", "_tables", "_ways", "_rows",
                 "curves")

    def __init__(self, lib, monitors) -> None:
        self._readout = lib.repro_umon_readout
        self._lib = lib
        atds = [monitor.atd for monitor in monitors]
        self._ways = ways = atds[0].ways
        hits = array("q", [_addr(atd.hits) for atd in atds])
        counts = array("q", [_addr(atd.counts) for atd in atds])
        scales = array("q", [monitor.sampler.scale_factor for monitor in monitors])
        factors = array("d", [monitor.decay_factor for monitor in monitors])
        self.curves = array("q", [0]) * (len(atds) * (ways + 1))
        #: the buffers the addresses below point into, kept alive
        self._keep = (hits, counts, scales, factors, atds)
        self._tables = (_addr(hits), _addr(counts), _addr(scales),
                        _addr(factors), len(atds), ways)
        #: (cores, total ways) -> the lookahead over those cores' rows
        self._rows: dict[tuple, KernelLookahead] = {}

    @classmethod
    def bind(cls, lib, policy) -> None:
        """Bind to ``policy`` when its monitors are plain
        ``UtilityMonitor`` objects of one width."""
        monitors = policy.monitors
        if monitors and all(
            type(monitor) is UtilityMonitor
            and monitor.atd.ways == monitors[0].atd.ways for monitor in monitors
        ):
            policy.kernel_epoch = cls(lib, monitors)

    def read(self) -> None:
        """Write every monitor's miss curve into ``curves``."""
        self._readout(*self._tables, _addr(self.curves), 0)

    def age(self) -> None:
        """Age every monitor's counters, as ``end_epoch`` does."""
        self._readout(*self._tables, None, 1)

    def miss_curves(self) -> list[list[int]]:
        """Every monitor's current miss curve."""
        self.read()
        width = self._ways + 1
        curves = self.curves
        return [curves[base:base + width].tolist()
                for base in range(0, len(curves), width)]

    def lookahead(
        self, cores: list[int], total_ways: int, threshold: float
    ) -> AllocationResult:
        """:func:`lookahead_partition` over ``cores``' current curves."""
        self.read()
        key = (tuple(cores), total_ways)
        rows = self._rows.get(key)
        if rows is None:
            width = self._ways + 1
            rows = self._rows[key] = KernelLookahead(
                self._lib, self.curves,
                array("q", [core * width for core in cores]),
                array("q", [width]) * len(cores), total_ways,
            )
        return rows(threshold)


class _Marshal:
    """Per-run kernel context over the simulator's own buffers: a span
    passes only the boundary scalars, the totals' increments and the
    tables Python changed."""

    def __init__(self, sim, lib, kind: int, issue_shift: int) -> None:
        self.sim = sim
        self.kind = kind
        config = sim.config
        policy = sim.policy
        cache = sim.cache
        stats = sim.stats
        memory = sim.memory
        n = config.n_cores
        self.n = n
        geometry = policy.geometry
        self.W = W = geometry.ways
        l1_caches = sim.l1
        l1_geom = l1_caches[0].geometry
        #: arrays whose addresses the context holds, kept alive per run
        self._keep: list[array] = []

        ctx_type = _ctx_type()
        abi = lib.repro_abi_size()
        if abi != ctypes.sizeof(ctx_type):
            raise RuntimeError(f"kernel ABI mismatch: C sizeof(Ctx)={abi}, "
                               f"ctypes={ctypes.sizeof(ctx_type)}")
        self.ctx = ctx = ctx_type()
        ctx.canary = _CANARY

        # ---- constants -----------------------------------------------
        ctx.n_cores = n
        ctx.issue_shift = issue_shift
        ctx.l1_latency = sim.l1_latency
        ctx.miss_latency = sim._miss_latency
        ctx.l2_latency = config.l2_latency
        ctx.llc_set_mask = geometry.set_mask
        ctx.llc_set_shift = geometry.set_shift
        ctx.llc_ways = W
        ctx.llc_nsets = geometry.num_sets
        ctx.policy_kind = kind
        ctx.has_dvfs = 0 if sim.dvfs is None else 1
        ctx.mem_latency = memory.latency
        ctx.mem_nbanks = memory.n_banks
        ctx.mem_bank_busy = memory.bank_busy
        ctx.mem_bank_shift = memory._bank_shift
        ctx.flush_bucket_cycles = memory.flush_bucket_cycles
        ctx.stats_bucket_cycles = stats.flush_bucket_cycles
        atds = policy._atds
        ctx.has_monitors = 1 if atds else 0
        ctx.umon_mask = policy._umon_mask
        ctx.umon_offset = policy._umon_offset
        ctx.umon_shift = (policy._umon_mask + 1).bit_length() - 1 if atds else 0
        ctx.l1_ways = l1_geom.ways
        ctx.l1_mask = sim._l1_mask
        ctx.l1_shift = sim._l1_shift
        ctx.core_space_bits = CORE_ADDRESS_SPACE_BITS

        # ---- shared buffers: pointers only ---------------------------
        for name in ("tags", "stamp", "owner", "dirty", "clock", "valid"):
            setattr(ctx, "l1_" + name,
                    self._table([getattr(l1, name) for l1 in l1_caches]))
            setattr(ctx, "llc_" + name, _addr(getattr(cache, name)))
        ctx.llc_mapped = _addr(cache.mapped)
        ctx.l1_occ = self._table([l1.ensure_cores(n) for l1 in l1_caches])
        ctx.llc_occ = _addr(cache.ensure_cores(n))
        cache.kernel_sweeps = KernelSweeps(lib, cache)
        KernelEpoch.bind(lib, policy)
        ctx.bank_free_at = _addr(memory._bank_free_at)
        if atds:
            ctx.atd_stack = self._table([atd.stacks for atd in atds])
            ctx.atd_len = self._table([atd.lengths for atd in atds])
            ctx.atd_hits = self._table([atd.hits for atd in atds])
            ctx.atd_counts = self._table([atd.counts for atd in atds])
        # Per-core state and counters: each reset zeroes these columns
        # in place and a phase change rewrites a core's trace pointers,
        # so the addresses hold for the whole run.
        columns = sim.core_columns
        for name in type(columns).__slots__:
            setattr(ctx, name, _addr(getattr(columns, name)))
        ctx.l1_hits = _addr(sim.l1_hits)
        ctx.l1_misses = _addr(sim.l1_misses)
        ctx.l1_writebacks = _addr(sim.l1_writebacks)
        for name in (
            "ways_probed_sum", "probe_events", "writeback_accesses",
            "demand_accesses", "demand_hits",
        ):
            setattr(ctx, name, _addr(getattr(stats, name)))
        if sim.dvfs is not None:
            ctx.dvfs_stall = _addr(sim.dvfs.stall)

        # ---- packed copies of Python-held tables ---------------------
        cols = {}
        for name in (
            "probe_mask", "probe_count", "fill_count",
            "ucp_target", "ucp_counts", "ucp_trans_active",
            "ucp_gained", "ucp_complete", "ucp_ways_gained",
            "ucp_ways_done", "ucp_start_cycle", "coop_donor_count",
            "coop_rs_count", "coop_recv_count", "coop_vec_bits",
            "coop_vec_count",
        ):
            cols[name] = self._column(name, n)
        for name, size in (
            ("fill_ways", n * W), ("dvfs_entries", n * 4),
            ("coop_donor_ways", n * W), ("coop_rs_donor", n * n),
            ("coop_rs_nways", n * n), ("coop_rs_ways", n * n * W),
            ("coop_recv_ways", n * W), ("evbuf", 3 * _EVBUF_TRIPLES),
        ):
            cols[name] = self._column(name, size)
        ctx.evbuf_cap = _EVBUF_TRIPLES
        self._cols = cols
        self._totals = [
            (getattr(sim, owner), attr, field) for owner, attr, field in _TOTALS
        ]
        #: the policy tables and DVFS timing rows last packed
        self._packed_tables: list | None = None
        self._packed_entries: list | None = None
        self._ucp_targets: list | None = None
        self._packed_ucp: list = [None] * n
        self._coop_generation = -1
        self._span_ucp: list[int] = []
        self._span_donors: list[int] = []

    def _hold(self, arr: array) -> int:
        self._keep.append(arr)
        return _addr(arr)

    def _table(self, arrays: list[array]) -> int:
        """A pointer table over ``arrays`` (one entry per core)."""
        return self._hold(array("q", [_addr(arr) for arr in arrays]))

    def _column(self, name: str, size: int) -> array:
        col = _qzeros(size)
        setattr(self.ctx, name, self._hold(col))
        return col

    # ------------------------------------------------------------------
    def enter(self, boundary: int, unfinished: int, warmed_up: bool) -> None:
        """Write the boundary scalars; repack the tables Python changed."""
        sim = self.sim
        ctx = self.ctx
        cols = self._cols
        ctx.boundary = boundary
        ctx.unfinished = unfinished
        ctx.warmed_up = 1 if warmed_up else 0
        ctx.evbuf_len = 0
        ldc = sim.stats.last_decision_cycle
        ctx.last_decision_cycle = -1 if ldc is None else ldc

        # Policy fast tables and DVFS timing rows, repacked only when
        # their values changed since the last span, and hook flags.
        policy = sim.policy
        tables = policy._core_tables
        if tables != self._packed_tables:
            self._packed_tables = list(tables)
            for ci, (mask, count, fill) in enumerate(tables):
                cols["probe_mask"][ci] = mask
                cols["probe_count"][ci] = count
                cols["fill_count"][ci] = -1 if fill is None else len(fill)
                if fill is not None:
                    _put(cols["fill_ways"], ci * self.W, fill)
        ctx.custom_victim = 1 if policy._custom_victim else 0
        ctx.pre_access_active = 1 if policy._pre_access_active else 0
        ctx.post_fill_active = 1 if policy._post_fill_active else 0

        dvfs = sim.dvfs
        if dvfs is not None and dvfs.entries != self._packed_entries:
            self._packed_entries = rows = list(dvfs.entries)
            for ci, row in enumerate(rows):
                _put(cols["dvfs_entries"], ci * 4, row)

        if self.kind == KIND_UCP:
            self._ucp_in()
        elif self.kind == KIND_COOP:
            self._coop_in()

    def _ucp_in(self) -> None:
        """UCP's targets (repacked when they change) and its in-flight
        migrations (buffers packed once per migration, progress per
        span)."""
        cols = self._cols
        policy = self.sim.policy
        selector = policy._selector
        targets = selector._target_list[:len(selector._counts)]
        if targets != self._ucp_targets:
            self._ucp_targets = targets
            self.ctx.ucp_known = len(targets)
            column = cols["ucp_target"]
            for ci, value in enumerate(targets):
                column[ci] = -1 if value is None else value
        transitions = policy._transitions
        self._span_ucp = sorted(transitions)
        active = cols["ucp_trans_active"]
        packed = self._packed_ucp
        for ci in range(self.n):
            transition = transitions.get(ci)
            active[ci] = transition is not None
            if transition is None:
                continue
            if transition is not packed[ci]:
                packed[ci] = transition
                cols["ucp_gained"][ci] = _addr(transition.gained_per_set)
                cols["ucp_complete"][ci] = _addr(transition.complete_sets)
                cols["ucp_ways_gained"][ci] = transition.ways_gained
                cols["ucp_start_cycle"][ci] = transition.start_cycle
            cols["ucp_ways_done"][ci] = transition.ways_done

    def _coop_in(self) -> None:
        engine = self.sim.policy.engine
        self.ctx.engine_active = 1 if engine.active else 0
        if engine.generation != self._coop_generation:
            self._coop_generation = engine.generation
            self._pack_coop_tables(engine)
        vectors = engine.vectors
        vec_count = self._cols["coop_vec_count"]
        for ci in self._span_donors:
            vec_count[ci] = vectors[ci].set_count

    def _pack_coop_tables(self, engine) -> None:
        """Flatten the donor/recipient way indexes and point at the
        donors' bit vectors (changed since the last span: a takeover
        began or completed)."""
        n = self.n
        W = self.W
        cols = self._cols
        vectors = engine.vectors
        self._span_donors = sorted(vectors)
        for ci in range(n):
            ways = engine.ways_of_donor(ci)
            cols["coop_donor_count"][ci] = len(ways)
            _put(cols["coop_donor_ways"], ci * W, ways)
            sources = engine._recipient_sources.get(ci, {})
            cols["coop_rs_count"][ci] = len(sources)
            for k, (donor, dways) in enumerate(sources.items()):
                idx = ci * n + k
                cols["coop_rs_donor"][idx] = donor
                cols["coop_rs_nways"][idx] = len(dways)
                _put(cols["coop_rs_ways"], idx * W, dways)
            receiving = engine.receiving_ways(ci)
            cols["coop_recv_count"][ci] = len(receiving)
            _put(cols["coop_recv_ways"], ci * W, receiving)
            vector = vectors.get(ci)
            bits = 0 if vector is None else _addr(vector.bits)
            cols["coop_vec_bits"][ci] = bits

    # ------------------------------------------------------------------
    def leave(self) -> None:
        """Replay the event buffer; add the span's increments to the totals."""
        sim = self.sim
        ctx = self.ctx
        cols = self._cols
        stats = sim.stats

        # Ordered side effects first: the flush/bucket dicts must see
        # keys in chronological order across the whole run.
        n_events = ctx.evbuf_len
        if n_events:
            evbuf = cols["evbuf"]
            timeline = sim.memory.flush_timeline
            buckets = stats.transfer_flush_buckets
            durations = stats.transition_durations
            for base in range(0, 3 * n_events, 3):
                kind = evbuf[base]
                value = evbuf[base + 1]
                if kind == _EV_FLUSH_TL:
                    timeline[value] += evbuf[base + 2]
                elif kind == _EV_TFB:
                    buckets[value] += evbuf[base + 2]
                else:
                    durations.append(value)

        for owner, attr, field in self._totals:
            delta = getattr(ctx, field)
            if delta:
                setattr(owner, attr, getattr(owner, attr) + delta)
                setattr(ctx, field, 0)
        events = stats.takeover_events
        for key, field in _TAKEOVER_EVENTS:
            delta = getattr(ctx, field)
            if delta:
                events[key] += delta
                setattr(ctx, field, 0)

        policy = sim.policy
        if self.kind == KIND_UCP:
            active = cols["ucp_trans_active"]
            ways_done = cols["ucp_ways_done"]
            transitions = policy._transitions
            for ci in self._span_ucp:
                transitions[ci].ways_done = ways_done[ci]
                if not active[ci]:
                    del transitions[ci]
            policy._post_fill_active = bool(transitions)
        elif self.kind == KIND_COOP:
            vectors = policy.engine.vectors
            vec_count = cols["coop_vec_count"]
            for ci in self._span_donors:
                vectors[ci].set_count = vec_count[ci]


# ----------------------------------------------------------------------
def run_compiled(sim):
    """Run ``sim`` on the C kernel; bit-identical to the Python loop.

    Falls back to the pure-Python engine when the policy's access path
    is not one the kernel models, since that engine runs any policy;
    the fallback is counted in ``repro_kernel_fallbacks_total`` and
    noted once.
    """
    kind = policy_kind(sim.policy)
    if kind is None:
        note_fallback(
            "engine.run",
            f"repro: the C kernel does not model {type(sim.policy).__name__}; "
            "running it on the python engine",
        )
        return sim._run_python()

    lib = load_kernel()
    marshal = _Marshal(sim, lib, kind, sim._issue_shift)
    ctx = marshal.ctx
    ctx_ptr = ctypes.addressof(ctx)
    run_span = lib.repro_run_span
    warm_sweep = lib.repro_warm_sweep

    def warm(only: int) -> None:
        # The C replica of _prewarm (only = -1) and of _warm_core for
        # one arriving core.  A line that would complete a takeover
        # vector is warmed by CMPSimulator._warm_line, then the sweep
        # resumes from the next core of the same round.
        ctx.warm_only = only
        ctx.warm_round = 0
        ctx.warm_core = 0
        while True:
            marshal.enter(0, 0, False)
            status = warm_sweep(ctx_ptr)
            marshal.leave()
            if status == ST_DONE:
                return
            if status == ST_NEED_PYTHON_REF:
                sim._warm_line(sim.cores[ctx.bail_core], ctx.warm_round)
                ctx.warm_core += 1
            elif status != ST_EVBUF_FULL:
                raise RuntimeError(
                    f"compiled warm sweep returned status {status}"
                )

    (
        target, warmup, warmed_up, unfinished, next_epoch, _initial,
    ) = sim._begin_run(
        prewarm=lambda: warm(-1),
        warm_core=lambda core: warm(core.core_id),
    )
    ctx.target = target
    ctx.warmup = warmup
    events = sim._pending_events
    event_index = 0
    next_event = events[0].at_cycle if events else _NEVER
    clock = 0
    refs_done = sim.core_columns.core_refs_done

    while unfinished:
        boundary = next_epoch if next_epoch < next_event else next_event
        refs_before = sum(refs_done)
        with timed(
            "kernel_span", obs_metrics.KERNEL_SPAN_SECONDS, cat="kernel",
            counts=_SPAN_COUNTS, boundary=boundary,
        ) as span:
            marshal.enter(boundary, unfinished, warmed_up)
            status = run_span(ctx_ptr)
            marshal.leave()
            span["refs"] = sum(refs_done) - refs_before
        unfinished = ctx.unfinished
        if status == ST_DONE:
            break
        if status == ST_BOUNDARY:
            (
                clock, next_epoch, next_event, event_index,
                unfinished, warmed_up, _rekey,
            ) = sim._advance_boundary(
                ctx.bail_now, clock, next_epoch, next_event,
                event_index, unfinished, warmed_up,
            )
        elif status == ST_WARMUP_GATE:
            warmed_up, clock = sim._maybe_end_warmup(warmed_up, clock)
        elif status == ST_NEED_PYTHON_REF:
            unfinished, warmed_up, clock = sim._step(
                sim.cores[ctx.bail_core], target, warmup, unfinished,
                warmed_up, clock,
            )
        elif status != ST_EVBUF_FULL:  # ST_ERROR or an unknown status
            raise RuntimeError(
                f"compiled kernel returned status {status} "
                f"(corrupt context or empty victim way set)"
            )
    return sim._finish_run(clock, event_index)
