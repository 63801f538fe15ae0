"""The compiled execution engine: whole spans in C, boundaries in Python.

:func:`run_compiled` drives :mod:`repro.engine.kernel` (kernel.c,
built/loaded by :mod:`repro.engine.build`) through the simulator's
shared run protocol.  The C kernel executes references in exact global
order between boundaries; everything episodic — partitioning epochs,
scenario events, warmup reset, takeover completions — runs in the
ordinary Python machinery between spans.  The contract is bit-exact
equality with ``CMPSimulator._run_python`` on every supported
configuration; the golden fixtures and ``tests/engine`` pin it.

Marshalling strategy.  Line-state columns (``tags``/``stamp``/
``owner``/``dirty``) are ``array('q')``/``bytearray`` and the kernel
works on them **in place** — pointers are captured once per run and
never copied.  Everything else (Python ints, lists, dicts) is copied
into flat arrays before each span and synced back after it:

* ``tag_map`` dicts become a per-set ``mapped[way] -> tag`` mirror
  (the dicts are only ever used as tag -> way lookups, so their
  iteration order is unobservable and they can be rebuilt from the
  mirror for sets the kernel modified);
* order-sensitive dict/list side effects (flush timelines, transfer
  flush buckets, UCP transition durations) come back through an
  ordered event buffer and are replayed chronologically;
* ATD stacks, UCP transition counters and takeover vectors are packed
  densely per span (takeover-vector bit arrays are shared in place).

A policy whose access path the kernel does not model — custom hooks
outside the five built-in schemes — falls back to the pure-Python
engine, noted once per process and counted in
``repro_kernel_fallbacks_total``; selection stays an optimisation,
never a behaviour change.
"""

from __future__ import annotations

import ctypes
from array import array
from time import perf_counter

from repro.engine.build import (
    ST_BOUNDARY,
    ST_DONE,
    ST_ERROR,
    ST_EVBUF_FULL,
    ST_NEED_PYTHON_REF,
    ST_WARMUP_GATE,
    load_kernel,
)
from repro.obs.log import note_fallback
from repro.obs.metrics import metrics_enabled
from repro.obs.trace import recorder as obs_recorder

_NEVER = 1 << 62
_NO_TAG = -1

KIND_TABLED = 0
KIND_UCP = 1
KIND_COOP = 2

_CANARY = 0x5EED1DEA5EED1DEA
_EVBUF_TRIPLES = 65536

_EV_FLUSH_TL = 1
_EV_TFB = 2
_EV_TRANS_DUR = 3

_i64 = ctypes.c_int64


class _Ctx(ctypes.Structure):
    """Field-for-field mirror of the ``Ctx`` struct in kernel.c.

    Every field is 8 bytes (int64 or a pointer stored as int64); the
    ABI size check at load time catches any drift.
    """

    _fields_ = [(name, _i64) for name in (
        "canary",
        # constants
        "n_cores", "issue_shift", "l1_latency", "miss_latency",
        "l2_latency", "target", "warmup", "llc_set_mask", "llc_set_shift",
        "llc_ways", "llc_nsets", "policy_kind", "has_dvfs", "mem_latency",
        "mem_nbanks", "mem_bank_busy", "mem_bank_shift",
        "flush_bucket_cycles", "stats_bucket_cycles", "has_monitors",
        "umon_mask", "umon_offset", "umon_shift", "atd_nslots",
        "last_decision_cycle", "l1_nsets", "l1_ways", "l1_mask", "l1_shift",
        # loop state
        "warmed_up", "unfinished", "boundary", "bail_now", "bail_core",
        # per-core scalars
        "core_active", "core_time", "core_position", "core_length",
        "core_instructions", "core_refs_done", "core_window_open",
        "core_window_closed", "core_instr_base", "core_cycle_base",
        "core_frozen_instr", "core_frozen_cycles",
        # traces
        "trace_gaps", "trace_addr", "trace_writes",
        # L1
        "l1_tags", "l1_stamp", "l1_owner", "l1_dirty", "l1_clock",
        "l1_valid", "l1_modified", "l1_occ", "l1_hits", "l1_misses",
        "l1_writebacks",
        # LLC
        "llc_tags", "llc_stamp", "llc_owner", "llc_dirty", "llc_clock",
        "llc_valid", "llc_mapped", "llc_modified", "llc_occ",
        # policy fast tables
        "probe_mask", "probe_count", "fill_count", "fill_ways",
        "custom_victim", "pre_access_active", "post_fill_active",
        # statistics
        "ways_probed_sum", "probe_events", "writeback_accesses",
        "demand_accesses", "demand_hits",
        # energy
        "e_tag_probes", "e_data_reads", "e_data_writes", "e_writebacks",
        "e_monitor_updates",
        # memory
        "bank_free_at", "mem_reads", "mem_writebacks", "mem_read_stall",
        # policy-stats scalars
        "transfer_flushes", "transitions_completed", "tk_donor_hit",
        "tk_donor_miss", "tk_recipient_hit", "tk_recipient_miss",
        # dvfs
        "dvfs_entries", "dvfs_stall",
        # atd
        "atd_stack", "atd_len", "atd_pos_hits", "atd_misses",
        "atd_accesses",
        # ucp
        "ucp_target", "ucp_known", "ucp_counts", "ucp_trans_active",
        "ucp_gained", "ucp_complete", "ucp_ways_gained", "ucp_ways_done",
        "ucp_start_cycle",
        # cooperative takeover
        "engine_active", "coop_donor_count", "coop_donor_ways",
        "coop_rs_count", "coop_rs_donor", "coop_rs_nways", "coop_rs_ways",
        "coop_recv_count", "coop_recv_ways", "coop_vec_bits",
        "coop_vec_count",
        # event buffer
        "evbuf", "evbuf_cap", "evbuf_len",
        # prewarm sweep
        "warm_lines", "warm_len", "warm_round", "warm_core",
    )]


def _addr(arr: array) -> int:
    return arr.buffer_info()[0]


def _pin(buf: bytearray, keep: list) -> int:
    """Address of a bytearray's storage; the view keeps it importable."""
    view = (ctypes.c_char * len(buf)).from_buffer(buf)
    keep.append(view)
    return ctypes.addressof(view)


def _qzeros(n: int) -> array:
    return array("q", bytes(8 * max(1, n)))


def policy_kind(policy) -> int | None:
    """Classify ``policy`` for the kernel; None = not modelled.

    The kernel transliterates the shared ``access_fast`` skeleton plus
    the UCP and Cooperative Partitioning access hooks.  Any policy
    whose access path is *data-only* (way tables, no hook overrides)
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
    if getattr(policy, "_dynamic_ways", True):
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


class _Marshal:
    """Per-run kernel context: pointer tables once, scalars per span."""

    def __init__(self, sim, lib, kind: int, issue_shift: int) -> None:
        self.sim = sim
        self.lib = lib
        self.kind = kind
        config = sim.config
        policy = sim.policy
        hierarchy = sim.hierarchy
        n = config.n_cores
        self.n = n
        geometry = policy.geometry
        self.W = W = geometry.ways
        self.nsets = nsets = geometry.num_sets
        l1_geom = hierarchy.l1[0].geometry
        self.l1_nsets = l1_nsets = l1_geom.num_sets
        self.l1_ways = l1_ways = l1_geom.ways
        self._keep: list = []          # pinned buffers, run lifetime
        self._span_keep: list = []     # pinned buffers, span lifetime

        ctx = _Ctx()
        self.ctx = ctx
        abi = lib.repro_abi_size()
        if abi != ctypes.sizeof(_Ctx):
            raise RuntimeError(
                f"kernel ABI mismatch: C sizeof(Ctx)={abi}, "
                f"ctypes={ctypes.sizeof(_Ctx)}"
            )
        ctx.canary = _CANARY

        # ---- constants -----------------------------------------------
        ctx.n_cores = n
        ctx.issue_shift = issue_shift
        ctx.l1_latency = hierarchy.l1_latency
        ctx.miss_latency = sim._miss_latency
        ctx.l2_latency = config.l2_latency
        ctx.target = 0   # set by run_compiled after _begin_run
        ctx.warmup = 0
        ctx.llc_set_mask = geometry.set_mask
        ctx.llc_set_shift = geometry.set_shift
        ctx.llc_ways = W
        ctx.llc_nsets = nsets
        ctx.policy_kind = kind
        ctx.has_dvfs = 0 if sim.dvfs is None else 1
        memory = sim.memory
        ctx.mem_latency = memory.latency
        ctx.mem_nbanks = memory.n_banks
        ctx.mem_bank_busy = memory.bank_busy
        ctx.mem_bank_shift = memory._bank_shift
        ctx.flush_bucket_cycles = memory.flush_bucket_cycles
        ctx.stats_bucket_cycles = sim.stats.flush_bucket_cycles
        atds = policy._atds
        ctx.has_monitors = 1 if atds else 0
        ctx.umon_mask = policy._umon_mask
        ctx.umon_offset = policy._umon_offset
        if atds:
            interval = policy._umon_mask + 1
            ctx.umon_shift = interval.bit_length() - 1
            ctx.atd_nslots = nslots = nsets // interval
        else:
            ctx.umon_shift = 0
            ctx.atd_nslots = nslots = 0
        self.nslots = nslots
        ctx.l1_nsets = l1_nsets
        ctx.l1_ways = l1_ways
        ctx.l1_mask = sim._l1_mask
        ctx.l1_shift = sim._l1_shift

        # ---- per-core scalar columns ---------------------------------
        names = (
            "core_active", "core_time", "core_position", "core_length",
            "core_instructions", "core_refs_done", "core_window_open",
            "core_window_closed", "core_instr_base", "core_cycle_base",
            "core_frozen_instr", "core_frozen_cycles",
        )
        self._core_cols = {}
        for name in names:
            col = _qzeros(n)
            self._core_cols[name] = col
            setattr(ctx, name, _addr(col))

        # ---- trace pointer tables (refreshed per span: PHASE rebinds)
        self._gap_tbl = _qzeros(n)
        self._addr_tbl = _qzeros(n)
        self._write_tbl = _qzeros(n)
        ctx.trace_gaps = _addr(self._gap_tbl)
        ctx.trace_addr = _addr(self._addr_tbl)
        ctx.trace_writes = _addr(self._write_tbl)

        # ---- L1 columns ----------------------------------------------
        total_l1 = n * l1_nsets
        self._l1_sets = [
            sim.cores[ci].l1_sets[s]
            for ci in range(n) for s in range(l1_nsets)
        ]
        self._l1_tags_tbl = _qzeros(total_l1)
        self._l1_stamp_tbl = _qzeros(total_l1)
        self._l1_owner_tbl = _qzeros(total_l1)
        self._l1_dirty_tbl = _qzeros(total_l1)
        for i, cset in enumerate(self._l1_sets):
            self._l1_tags_tbl[i] = _addr(cset.tags)
            self._l1_stamp_tbl[i] = _addr(cset.stamp)
            self._l1_owner_tbl[i] = _addr(cset.owner)
            self._l1_dirty_tbl[i] = _pin(cset.dirty, self._keep)
        ctx.l1_tags = _addr(self._l1_tags_tbl)
        ctx.l1_stamp = _addr(self._l1_stamp_tbl)
        ctx.l1_owner = _addr(self._l1_owner_tbl)
        ctx.l1_dirty = _addr(self._l1_dirty_tbl)
        self._l1_clock = _qzeros(total_l1)
        self._l1_valid = _qzeros(total_l1)
        self._l1_modified = bytearray(total_l1)
        ctx.l1_clock = _addr(self._l1_clock)
        ctx.l1_valid = _addr(self._l1_valid)
        ctx.l1_modified = _pin(self._l1_modified, self._keep)
        for name in ("l1_occ", "l1_hits", "l1_misses", "l1_writebacks"):
            col = _qzeros(n)
            self._core_cols[name] = col
            setattr(ctx, name, _addr(col))

        # ---- LLC columns ---------------------------------------------
        self._llc_sets = policy._sets
        self._llc_tags_tbl = _qzeros(nsets)
        self._llc_stamp_tbl = _qzeros(nsets)
        self._llc_owner_tbl = _qzeros(nsets)
        self._llc_dirty_tbl = _qzeros(nsets)
        for i, cset in enumerate(self._llc_sets):
            self._llc_tags_tbl[i] = _addr(cset.tags)
            self._llc_stamp_tbl[i] = _addr(cset.stamp)
            self._llc_owner_tbl[i] = _addr(cset.owner)
            self._llc_dirty_tbl[i] = _pin(cset.dirty, self._keep)
        ctx.llc_tags = _addr(self._llc_tags_tbl)
        ctx.llc_stamp = _addr(self._llc_stamp_tbl)
        ctx.llc_owner = _addr(self._llc_owner_tbl)
        ctx.llc_dirty = _addr(self._llc_dirty_tbl)
        self._llc_clock = _qzeros(nsets)
        self._llc_valid = _qzeros(nsets)
        self._llc_mapped = _qzeros(nsets * W)
        self._llc_mapped_addr = _addr(self._llc_mapped)
        self._llc_modified = bytearray(nsets)
        ctx.llc_clock = _addr(self._llc_clock)
        ctx.llc_valid = _addr(self._llc_valid)
        ctx.llc_mapped = self._llc_mapped_addr
        ctx.llc_modified = _pin(self._llc_modified, self._keep)
        self._llc_occ = _qzeros(n)
        ctx.llc_occ = _addr(self._llc_occ)

        # ---- policy fast tables --------------------------------------
        self._probe_mask = _qzeros(n)
        self._probe_count = _qzeros(n)
        self._fill_count = _qzeros(n)
        self._fill_ways = _qzeros(n * W)
        ctx.probe_mask = _addr(self._probe_mask)
        ctx.probe_count = _addr(self._probe_count)
        ctx.fill_count = _addr(self._fill_count)
        ctx.fill_ways = _addr(self._fill_ways)

        # ---- statistics ----------------------------------------------
        for name in ("ways_probed_sum", "probe_events",
                     "writeback_accesses", "demand_accesses", "demand_hits"):
            col = _qzeros(n)
            self._core_cols[name] = col
            setattr(ctx, name, _addr(col))

        # ---- memory --------------------------------------------------
        self._bank_free = _qzeros(memory.n_banks)
        ctx.bank_free_at = _addr(self._bank_free)

        # ---- dvfs ----------------------------------------------------
        self._dvfs_entries = _qzeros(n * 4)
        self._dvfs_stall = _qzeros(n)
        ctx.dvfs_entries = _addr(self._dvfs_entries)
        ctx.dvfs_stall = _addr(self._dvfs_stall)

        # ---- atd -----------------------------------------------------
        self._atd_stack = _qzeros(n * nslots * W)
        self._atd_len = _qzeros(n * nslots)
        self._atd_pos_hits = _qzeros(n * W)
        self._atd_misses = _qzeros(n)
        self._atd_accesses = _qzeros(n)
        ctx.atd_stack = _addr(self._atd_stack)
        ctx.atd_len = _addr(self._atd_len)
        ctx.atd_pos_hits = _addr(self._atd_pos_hits)
        ctx.atd_misses = _addr(self._atd_misses)
        ctx.atd_accesses = _addr(self._atd_accesses)

        # ---- ucp -----------------------------------------------------
        self._ucp_target = _qzeros(n)
        self._ucp_counts = _qzeros(n)
        self._ucp_trans_active = _qzeros(n)
        self._ucp_gained = _qzeros(n)
        self._ucp_complete = _qzeros(n)
        self._ucp_ways_gained = _qzeros(n)
        self._ucp_ways_done = _qzeros(n)
        self._ucp_start_cycle = _qzeros(n)
        ctx.ucp_target = _addr(self._ucp_target)
        ctx.ucp_counts = _addr(self._ucp_counts)
        ctx.ucp_trans_active = _addr(self._ucp_trans_active)
        ctx.ucp_gained = _addr(self._ucp_gained)
        ctx.ucp_complete = _addr(self._ucp_complete)
        ctx.ucp_ways_gained = _addr(self._ucp_ways_gained)
        ctx.ucp_ways_done = _addr(self._ucp_ways_done)
        ctx.ucp_start_cycle = _addr(self._ucp_start_cycle)

        # ---- cooperative takeover ------------------------------------
        self._coop_donor_count = _qzeros(n)
        self._coop_donor_ways = _qzeros(n * W)
        self._coop_rs_count = _qzeros(n)
        self._coop_rs_donor = _qzeros(n * n)
        self._coop_rs_nways = _qzeros(n * n)
        self._coop_rs_ways = _qzeros(n * n * W)
        self._coop_recv_count = _qzeros(n)
        self._coop_recv_ways = _qzeros(n * W)
        self._coop_vec_bits = _qzeros(n)
        self._coop_vec_count = _qzeros(n)
        ctx.coop_donor_count = _addr(self._coop_donor_count)
        ctx.coop_donor_ways = _addr(self._coop_donor_ways)
        ctx.coop_rs_count = _addr(self._coop_rs_count)
        ctx.coop_rs_donor = _addr(self._coop_rs_donor)
        ctx.coop_rs_nways = _addr(self._coop_rs_nways)
        ctx.coop_rs_ways = _addr(self._coop_rs_ways)
        ctx.coop_recv_count = _addr(self._coop_recv_count)
        ctx.coop_recv_ways = _addr(self._coop_recv_ways)
        ctx.coop_vec_bits = _addr(self._coop_vec_bits)
        ctx.coop_vec_count = _addr(self._coop_vec_count)

        # ---- event buffer --------------------------------------------
        self._evbuf = _qzeros(3 * _EVBUF_TRIPLES)
        ctx.evbuf = _addr(self._evbuf)
        ctx.evbuf_cap = _EVBUF_TRIPLES

        # ---- prewarm sweep -------------------------------------------
        self._warm_tbl = _qzeros(n)
        self._warm_len = _qzeros(n)
        for ci, core in enumerate(sim.cores):
            self._warm_tbl[ci] = _addr(core.warm_lines)
            self._warm_len[ci] = len(core.warm_lines)
        ctx.warm_lines = _addr(self._warm_tbl)
        ctx.warm_len = _addr(self._warm_len)

    # ------------------------------------------------------------------
    def span_in(self, boundary: int, unfinished: int,
                warmed_up: bool) -> None:
        """Copy all Python-held state into the kernel context."""
        sim = self.sim
        ctx = self.ctx
        n = self.n
        W = self.W
        cols = self._core_cols
        ctx.boundary = boundary
        ctx.unfinished = unfinished
        ctx.warmed_up = 1 if warmed_up else 0
        ctx.evbuf_len = 0
        ctx.bail_now = 0
        ctx.bail_core = -1

        c_active = cols["core_active"]
        c_time = cols["core_time"]
        c_pos = cols["core_position"]
        c_len = cols["core_length"]
        c_instr = cols["core_instructions"]
        c_refs = cols["core_refs_done"]
        c_wopen = cols["core_window_open"]
        c_wclosed = cols["core_window_closed"]
        c_ibase = cols["core_instr_base"]
        c_cbase = cols["core_cycle_base"]
        c_finstr = cols["core_frozen_instr"]
        c_fcycles = cols["core_frozen_cycles"]
        gap_tbl = self._gap_tbl
        addr_tbl = self._addr_tbl
        write_tbl = self._write_tbl
        for ci, core in enumerate(sim.cores):
            c_active[ci] = 1 if core.active else 0
            c_time[ci] = core.time
            c_pos[ci] = core.position
            c_len[ci] = core.length
            c_instr[ci] = core.instructions
            c_refs[ci] = core.refs_done
            c_wopen[ci] = 1 if core.window_open else 0
            c_wclosed[ci] = 1 if core.window_closed else 0
            c_ibase[ci] = core.instr_base
            c_cbase[ci] = core.cycle_base
            c_finstr[ci] = core.frozen_instructions
            c_fcycles[ci] = core.frozen_cycles
            gap_tbl[ci] = _addr(core.gaps)
            addr_tbl[ci] = _addr(core.addresses)
            write_tbl[ci] = _addr(core.writes)

        # L1 / LLC per-set Python scalars.
        l1_clock = self._l1_clock
        l1_valid = self._l1_valid
        for i, cset in enumerate(self._l1_sets):
            l1_clock[i] = cset.clock
            l1_valid[i] = cset.valid_count
        mod = self._l1_modified
        mod[:] = bytes(len(mod))
        llc_clock = self._llc_clock
        llc_valid = self._llc_valid
        mapped = self._llc_mapped
        ctypes.memset(self._llc_mapped_addr, 0xFF, 8 * len(mapped))
        for i, cset in enumerate(self._llc_sets):
            llc_clock[i] = cset.clock
            llc_valid[i] = cset.valid_count
            base = i * W
            for tag, way in cset.tag_map.items():
                mapped[base + way] = tag
        mod = self._llc_modified
        mod[:] = bytes(len(mod))

        hierarchy = sim.hierarchy
        l1_occ = cols["l1_occ"]
        for ci in range(n):
            l1_occ[ci] = hierarchy.l1[ci].core_occupancy[ci]
        for name, src in (
            ("l1_hits", hierarchy.l1_hits),
            ("l1_misses", hierarchy.l1_misses),
            ("l1_writebacks", hierarchy.l1_writebacks),
        ):
            col = cols[name]
            for ci in range(n):
                col[ci] = src[ci]
        occ = sim.cache.core_occupancy
        llc_occ = self._llc_occ
        for ci in range(n):
            llc_occ[ci] = occ[ci]

        # Policy fast tables and hook flags.
        policy = sim.policy
        pm = self._probe_mask
        pc = self._probe_count
        fc = self._fill_count
        fw = self._fill_ways
        for ci, (mask, count, fill) in enumerate(policy._core_tables):
            pm[ci] = mask
            pc[ci] = count
            if fill is None:
                fc[ci] = -1
            else:
                fc[ci] = len(fill)
                base = ci * W
                for k, way in enumerate(fill):
                    fw[base + k] = way
        ctx.custom_victim = 1 if policy._custom_victim else 0
        ctx.pre_access_active = 1 if policy._pre_access_active else 0
        ctx.post_fill_active = 1 if policy._post_fill_active else 0

        stats = sim.stats
        for name, src in (
            ("ways_probed_sum", stats.ways_probed_sum),
            ("probe_events", stats.probe_events),
            ("writeback_accesses", stats.writeback_accesses),
            ("demand_accesses", stats.demand_accesses),
            ("demand_hits", stats.demand_hits),
        ):
            col = cols[name]
            for ci in range(n):
                col[ci] = src[ci]
        ldc = stats.last_decision_cycle
        ctx.last_decision_cycle = -1 if ldc is None else ldc
        ctx.transfer_flushes = stats.transfer_flushes
        ctx.transitions_completed = stats.transitions_completed
        events = stats.takeover_events
        ctx.tk_donor_hit = events["donor_hit"]
        ctx.tk_donor_miss = events["donor_miss"]
        ctx.tk_recipient_hit = events["recipient_hit"]
        ctx.tk_recipient_miss = events["recipient_miss"]

        energy = sim.energy
        ctx.e_tag_probes = energy.tag_probes
        ctx.e_data_reads = energy.data_reads
        ctx.e_data_writes = energy.data_writes
        ctx.e_writebacks = energy.writebacks
        ctx.e_monitor_updates = energy.monitor_updates

        memory = sim.memory
        bank = self._bank_free
        for b, value in enumerate(memory._bank_free_at):
            bank[b] = value
        ctx.mem_reads = memory.reads
        ctx.mem_writebacks = memory.writebacks
        ctx.mem_read_stall = memory.read_stall_cycles

        dvfs = sim.dvfs
        if dvfs is not None:
            entries = self._dvfs_entries
            stall = self._dvfs_stall
            for ci in range(n):
                entry = dvfs.entries[ci]
                base = ci * 4
                entries[base] = entry[0]
                entries[base + 1] = entry[1]
                entries[base + 2] = entry[2]
                entries[base + 3] = entry[3]
                stall[ci] = dvfs.stall[ci]

        atds = policy._atds
        if atds:
            nslots = self.nslots
            stack_arr = self._atd_stack
            len_arr = self._atd_len
            pos_arr = self._atd_pos_hits
            miss_arr = self._atd_misses
            acc_arr = self._atd_accesses
            for ci, atd in enumerate(atds):
                for k, stack in enumerate(atd._stacks.values()):
                    slot = ci * nslots + k
                    base = slot * W
                    len_arr[slot] = len(stack)
                    for j, tag in enumerate(stack):
                        stack_arr[base + j] = tag
                base = ci * W
                for j, hits in enumerate(atd.position_hits):
                    pos_arr[base + j] = hits
                miss_arr[ci] = atd.misses
                acc_arr[ci] = atd.accesses

        if self.kind == KIND_UCP:
            self._ucp_in()
        elif self.kind == KIND_COOP:
            self._coop_in()
        else:
            ctx.engine_active = 0

    def _ucp_in(self) -> None:
        ctx = self.ctx
        policy = self.sim.policy
        selector = policy._selector
        target_list = selector._target_list
        known = len(selector._counts)
        ctx.ucp_known = known
        ctx.engine_active = 0
        tgt = self._ucp_target
        for ci in range(known):
            value = target_list[ci]
            tgt[ci] = -1 if value is None else value
        active = self._ucp_trans_active
        gained = self._ucp_gained
        complete = self._ucp_complete
        ways_gained = self._ucp_ways_gained
        ways_done = self._ucp_ways_done
        start = self._ucp_start_cycle
        transitions = policy._transitions
        self._span_ucp = []
        for ci in range(self.n):
            transition = transitions.get(ci)
            if transition is None:
                active[ci] = 0
                gained[ci] = 0
                complete[ci] = 0
                continue
            active[ci] = 1
            gained[ci] = _addr(transition.gained_per_set)
            complete[ci] = _addr(transition.complete_sets)
            ways_gained[ci] = transition.ways_gained
            ways_done[ci] = transition.ways_done
            start[ci] = transition.start_cycle
            self._span_ucp.append(ci)

    def _coop_in(self) -> None:
        ctx = self.ctx
        engine = self.sim.policy.engine
        n = self.n
        W = self.W
        ctx.engine_active = 1 if engine.active else 0
        donor_count = self._coop_donor_count
        donor_ways = self._coop_donor_ways
        rs_count = self._coop_rs_count
        rs_donor = self._coop_rs_donor
        rs_nways = self._coop_rs_nways
        rs_ways = self._coop_rs_ways
        recv_count = self._coop_recv_count
        recv_ways = self._coop_recv_ways
        vec_bits = self._coop_vec_bits
        vec_count = self._coop_vec_count
        self._span_keep.clear()
        self._span_donors = donors = []
        for ci in range(n):
            ways = engine._donor_ways.get(ci, ())
            donor_count[ci] = len(ways)
            base = ci * W
            for k, way in enumerate(ways):
                donor_ways[base + k] = way
            sources = engine._recipient_sources.get(ci)
            if sources is None:
                rs_count[ci] = 0
            else:
                rs_count[ci] = len(sources)
                for k, (donor, dways) in enumerate(sources.items()):
                    idx = ci * n + k
                    rs_donor[idx] = donor
                    rs_nways[idx] = len(dways)
                    wbase = idx * W
                    for j, way in enumerate(dways):
                        rs_ways[wbase + j] = way
            receiving = engine.receiving_ways(ci)
            recv_count[ci] = len(receiving)
            for k, way in enumerate(receiving):
                recv_ways[base + k] = way
            vector = engine.vectors.get(ci)
            if vector is None:
                vec_bits[ci] = 0
                vec_count[ci] = 0
            else:
                vec_bits[ci] = _pin(vector.bits, self._span_keep)
                vec_count[ci] = vector.set_count
                donors.append(ci)

    # ------------------------------------------------------------------
    def span_out(self) -> None:
        """Sync kernel-side results back into the Python objects."""
        sim = self.sim
        ctx = self.ctx
        n = self.n
        W = self.W
        cols = self._core_cols

        # Ordered side effects first: the flush/bucket dicts must see
        # keys in chronological order across the whole run.
        memory = sim.memory
        stats = sim.stats
        evbuf = self._evbuf
        timeline = memory.flush_timeline
        buckets = stats.transfer_flush_buckets
        durations = stats.transition_durations
        for e in range(ctx.evbuf_len):
            base = e * 3
            kind = evbuf[base]
            value = evbuf[base + 1]
            if kind == _EV_FLUSH_TL:
                timeline[value] += evbuf[base + 2]
            elif kind == _EV_TFB:
                buckets[value] += evbuf[base + 2]
            else:
                durations.append(value)

        c_time = cols["core_time"]
        c_pos = cols["core_position"]
        c_instr = cols["core_instructions"]
        c_refs = cols["core_refs_done"]
        c_wopen = cols["core_window_open"]
        c_wclosed = cols["core_window_closed"]
        c_ibase = cols["core_instr_base"]
        c_cbase = cols["core_cycle_base"]
        c_finstr = cols["core_frozen_instr"]
        c_fcycles = cols["core_frozen_cycles"]
        for ci, core in enumerate(sim.cores):
            core.time = c_time[ci]
            core.position = c_pos[ci]
            core.instructions = c_instr[ci]
            core.refs_done = c_refs[ci]
            core.window_open = bool(c_wopen[ci])
            core.window_closed = bool(c_wclosed[ci])
            core.instr_base = c_ibase[ci]
            core.cycle_base = c_cbase[ci]
            core.frozen_instructions = c_finstr[ci]
            core.frozen_cycles = c_fcycles[ci]

        l1_clock = self._l1_clock
        l1_valid = self._l1_valid
        l1_mod = self._l1_modified
        for i, cset in enumerate(self._l1_sets):
            cset.clock = l1_clock[i]
            if l1_mod[i]:
                cset.valid_count = l1_valid[i]
                tags = cset.tags
                cset.tag_map = {
                    tags[w]: w for w in range(cset.ways)
                    if tags[w] != _NO_TAG
                }
        llc_clock = self._llc_clock
        llc_valid = self._llc_valid
        llc_mod = self._llc_modified
        mapped = self._llc_mapped
        for i, cset in enumerate(self._llc_sets):
            cset.clock = llc_clock[i]
            if llc_mod[i]:
                cset.valid_count = llc_valid[i]
                base = i * W
                cset.tag_map = {
                    mapped[base + w]: w for w in range(W)
                    if mapped[base + w] != _NO_TAG
                }

        hierarchy = sim.hierarchy
        l1_occ = cols["l1_occ"]
        for ci in range(n):
            hierarchy.l1[ci].core_occupancy[ci] = l1_occ[ci]
        for name, dst in (
            ("l1_hits", hierarchy.l1_hits),
            ("l1_misses", hierarchy.l1_misses),
            ("l1_writebacks", hierarchy.l1_writebacks),
        ):
            col = cols[name]
            for ci in range(n):
                dst[ci] = col[ci]
        occ = sim.cache.core_occupancy
        llc_occ = self._llc_occ
        for ci in range(n):
            occ[ci] = llc_occ[ci]

        for name, dst in (
            ("ways_probed_sum", stats.ways_probed_sum),
            ("probe_events", stats.probe_events),
            ("writeback_accesses", stats.writeback_accesses),
            ("demand_accesses", stats.demand_accesses),
            ("demand_hits", stats.demand_hits),
        ):
            col = cols[name]
            for ci in range(n):
                dst[ci] = col[ci]
        stats.transfer_flushes = ctx.transfer_flushes
        stats.transitions_completed = ctx.transitions_completed
        events = stats.takeover_events
        events["donor_hit"] = ctx.tk_donor_hit
        events["donor_miss"] = ctx.tk_donor_miss
        events["recipient_hit"] = ctx.tk_recipient_hit
        events["recipient_miss"] = ctx.tk_recipient_miss

        energy = sim.energy
        energy.tag_probes = ctx.e_tag_probes
        energy.data_reads = ctx.e_data_reads
        energy.data_writes = ctx.e_data_writes
        energy.writebacks = ctx.e_writebacks
        energy.monitor_updates = ctx.e_monitor_updates

        bank = self._bank_free
        free_at = memory._bank_free_at
        for b in range(len(free_at)):
            free_at[b] = bank[b]
        memory.reads = ctx.mem_reads
        memory.writebacks = ctx.mem_writebacks
        memory.read_stall_cycles = ctx.mem_read_stall

        dvfs = sim.dvfs
        if dvfs is not None:
            stall = self._dvfs_stall
            for ci in range(n):
                dvfs.stall[ci] = stall[ci]

        policy = sim.policy
        atds = policy._atds
        if atds:
            nslots = self.nslots
            stack_arr = self._atd_stack
            len_arr = self._atd_len
            pos_arr = self._atd_pos_hits
            miss_arr = self._atd_misses
            acc_arr = self._atd_accesses
            for ci, atd in enumerate(atds):
                for k, stack in enumerate(atd._stacks.values()):
                    slot = ci * nslots + k
                    base = slot * W
                    stack[:] = stack_arr[base:base + len_arr[slot]]
                base = ci * W
                hits = atd.position_hits
                for j in range(W):
                    hits[j] = pos_arr[base + j]
                atd.misses = miss_arr[ci]
                atd.accesses = acc_arr[ci]

        if self.kind == KIND_UCP:
            active = self._ucp_trans_active
            ways_done = self._ucp_ways_done
            transitions = policy._transitions
            for ci in self._span_ucp:
                transition = transitions[ci]
                transition.ways_done = ways_done[ci]
                if not active[ci]:
                    del transitions[ci]
            policy._post_fill_active = bool(transitions)
        elif self.kind == KIND_COOP:
            engine = policy.engine
            vec_count = self._coop_vec_count
            for ci in self._span_donors:
                engine.vectors[ci].set_count = vec_count[ci]
            self._span_keep.clear()


# ----------------------------------------------------------------------
def _scalar_ref(sim, core, target, warmup, unfinished, warmed_up, clock,
                issue_shift):
    """Execute exactly one reference through the Python machinery.

    Used when the kernel bails out on a reference that would complete
    a takeover vector: the completion restructures the policy (RAP
    withdrawal, power gating), so the whole reference — including the
    mid-reference restructure — runs through the reference loop's
    scalar body.  Mirrors ``CMPSimulator._run_python``'s per-reference
    section verbatim.
    """
    from repro.cache.cache_set import NO_TAG

    now = core.time
    l1_mask = sim._l1_mask
    l1_shift = sim._l1_shift
    policy_access = sim._policy_access
    dvfs = sim.dvfs

    position = core.position
    gap = core.gaps[position]
    address = core.addresses[position]
    is_write = core.writes[position]
    if dvfs is None:
        issue_time = now + (gap >> issue_shift)
        hit_latency = sim.hierarchy.l1_latency
        miss_base = sim._miss_latency
    else:
        entry = dvfs.entries[core.core_id]
        issue_time = now + (gap >> issue_shift) * entry[0] // entry[1]
        hit_latency = entry[2]
        miss_base = entry[3]

    set_index = address & l1_mask
    tag = address >> l1_shift
    cset = core.l1_sets[set_index]
    way = cset.tag_map.get(tag, -1)
    if way >= 0:
        cset.stamp[way] = cset.clock
        cset.clock += 1
        if is_write:
            cset.dirty[way] = 1
        sim.hierarchy.l1_hits[core.core_id] += 1
        core.time = issue_time + hit_latency
    else:
        core_id = core.core_id
        sim._l1_misses[core_id] += 1
        memory_latency = policy_access(core_id, address, False, issue_time)
        tags = cset.tags
        victim_way = -1
        if cset.valid_count != cset.ways:
            for candidate in range(cset.ways):
                if tags[candidate] == NO_TAG:
                    victim_way = candidate
                    break
        if victim_way < 0:
            stamp = cset.stamp
            victim_way = stamp.index(min(stamp))
        old_tag = tags[victim_way]
        tag_map = cset.tag_map
        evicted_dirty = 0
        if old_tag != NO_TAG:
            evicted_dirty = cset.dirty[victim_way]
            if tag_map.get(old_tag) == victim_way:
                del tag_map[old_tag]
        else:
            cset.valid_count += 1
            sim.hierarchy.l1[core_id].core_occupancy[core_id] += 1
        tags[victim_way] = tag
        tag_map[tag] = victim_way
        cset.dirty[victim_way] = 1 if is_write else 0
        cset.owner[victim_way] = core_id
        cset.stamp[victim_way] = cset.clock
        cset.clock += 1
        if evicted_dirty:
            sim._l1_writebacks[core_id] += 1
            policy_access(
                core_id, (old_tag << l1_shift) | set_index, True, issue_time
            )
        core.time = issue_time + miss_base + memory_latency
        if dvfs is not None:
            dvfs.stall[core_id] += sim.config.l2_latency + memory_latency
    core.instructions += gap + 1
    position += 1
    core.position = 0 if position == core.length else position
    core.refs_done += 1

    if core.refs_done == warmup and not core.window_open:
        core.start_measurement()
        if not warmed_up and sim._warm_gate_passed(warmup):
            sim._end_warmup()
            warmed_up = True
            if sim.energy.window_start > clock:
                clock = sim.energy.window_start
    if core.refs_done == target and not core.window_closed:
        core.freeze()
        unfinished -= 1
    return unfinished, warmed_up, clock


# ----------------------------------------------------------------------
def _observe_kernel_span(seconds, refs):
    from repro.obs import builtin as obs_metrics

    obs_metrics.KERNEL_SPAN_SECONDS.observe(seconds)
    obs_metrics.KERNEL_SPAN_REFS.observe(refs)


def run_compiled(sim):
    """Run ``sim`` on the C kernel; bit-identical to the Python loop.

    Falls back to the pure-Python engine when the policy's access path
    is not one the kernel models (the scalar loop is the fastest
    portable tier on this corpus's short L1 hit runs); the fallback is
    counted in ``repro_kernel_fallbacks_total`` and noted once.
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
    config = sim.config
    issue_shift = max(0, config.issue_width.bit_length() - 1)
    marshal = _Marshal(sim, lib, kind, issue_shift)
    ctx = marshal.ctx
    ctx_ptr = ctypes.addressof(ctx)
    run_span = lib.repro_run_span
    warm_sweep = lib.repro_warm_sweep

    def warm() -> None:
        # The C replica of _prewarm.  A takeover engine mid-flight at
        # run start cannot happen (decisions only fire at epochs), but
        # guard anyway: the kernel's warm path has no completion bail.
        if kind == KIND_COOP and sim.policy.engine.active:
            sim._prewarm()
            return
        ctx.warm_round = 0
        ctx.warm_core = 0
        while True:
            marshal.span_in(0, 0, False)
            status = warm_sweep(ctx_ptr)
            marshal.span_out()
            if status == ST_DONE:
                return
            if status != ST_EVBUF_FULL:
                raise RuntimeError(
                    f"compiled warm sweep returned status {status}"
                )

    (
        target, warmup, warmed_up, unfinished, next_epoch, _initial,
    ) = sim._begin_run(prewarm=warm)
    ctx.target = target
    ctx.warmup = warmup
    events = sim._pending_events
    event_index = 0
    next_event = events[0].at_cycle if events else _NEVER
    clock = 0
    rec = obs_recorder()
    trace_spans = rec.enabled
    observe_span = _observe_kernel_span if metrics_enabled() else None
    # Span timing runs when either sink wants it; each sink is then
    # fed independently (metrics without tracing and vice versa).
    measure_spans = trace_spans or observe_span is not None

    while unfinished:
        boundary = next_epoch if next_epoch < next_event else next_event
        if measure_spans:
            refs_before = sum(c.refs_done for c in sim.cores)
            span_start = perf_counter()
        marshal.span_in(boundary, unfinished, warmed_up)
        status = run_span(ctx_ptr)
        marshal.span_out()
        if measure_spans:
            seconds = perf_counter() - span_start
            refs = sum(c.refs_done for c in sim.cores) - refs_before
            if trace_spans:
                rec.kernel_span(seconds, refs=refs, boundary=boundary)
            if observe_span is not None:
                observe_span(seconds, refs)
        unfinished = marshal.ctx.unfinished
        if status == ST_DONE:
            break
        if status == ST_BOUNDARY:
            (
                clock, next_epoch, next_event, event_index,
                unfinished, warmed_up, _rekey,
            ) = sim._advance_boundary(
                marshal.ctx.bail_now, clock, next_epoch, next_event,
                event_index, unfinished, warmed_up,
            )
        elif status == ST_WARMUP_GATE:
            if not warmed_up and sim._warm_gate_passed(warmup):
                sim._end_warmup()
                warmed_up = True
                if sim.energy.window_start > clock:
                    clock = sim.energy.window_start
        elif status == ST_NEED_PYTHON_REF:
            core = sim.cores[marshal.ctx.bail_core]
            unfinished, warmed_up, clock = _scalar_ref(
                sim, core, target, warmup, unfinished, warmed_up, clock,
                issue_shift,
            )
        elif status == ST_EVBUF_FULL:
            pass
        else:  # ST_ERROR or an unknown status
            raise RuntimeError(
                f"compiled kernel returned status {status} "
                f"(corrupt context or empty victim way set)"
            )
    return sim._finish_run(clock, event_index)
