/* Compiled inner loop for the trace-driven CMP simulator.
 *
 * One function, `repro_run_span`, executes references in exact global
 * (time, core_id) order — the same schedule as the Python reference
 * loop — from the current instant up to the next epoch/scenario
 * boundary, then returns control to Python.  Everything the per-
 * reference path touches is modelled here bit-for-bit:
 *
 *   - the private L1s (probe, LRU fill, dirty-victim writeback);
 *   - the shared-LLC access skeleton of
 *     repro.partitioning.base.BaseSharedCachePolicy.access_fast
 *     (masked probe, energy/statistics charging, UMON/ATD sampling,
 *     the banked-memory fetch, victim selection, inline fill, dirty
 *     writeback);
 *   - UCP's partition-aware victim selection and post-fill migration
 *     tracking, and Cooperative Partitioning's takeover marking,
 *     lazy flushes and receiving-way victim preference;
 *   - the DVFS timing rows and per-core stall accumulators;
 *   - the warmup / measurement-window bookkeeping per core.
 *
 * Anything boundary-side (partitioning decisions, scenario events,
 * governor moves, warmup reset) and anything that restructures policy
 * state (a takeover vector completing) bails out to Python with a
 * status code.  Dict-order-sensitive side effects (flush timelines,
 * transfer-flush buckets, transition durations) are recorded into an
 * ordered event buffer the Python driver replays on span exit.
 *
 * Two boundary-side sweeps over every LLC set run here too, called by
 * Python between spans: `repro_invalidate_way` (gating a way, CPE's
 * flush) and `repro_flush_ways` (a forced takeover completion).  They
 * return the flushed line addresses; Python writes them back.  So do
 * two steps of a partitioning epoch: `repro_umon_readout` writes every
 * monitor's miss curve into one buffer, or ages its counters, and
 * `repro_lookahead` runs the threshold lookahead over rows of that
 * buffer.
 *
 * Cache lines, per-set clocks and valid counts, per-core occupancy
 * counters, the LLC's `mapped` lookup column, the UMON tag
 * directories, the memory banks and the UCP/takeover progress arrays
 * are the Python objects' own buffers, read and written in place.  A cache's line
 * columns are flat: line (set, way) sits at `set * ways + way`.  Only
 * O(n_cores) scalars are copied per span.  The traces are read in
 * place too, one copy per benchmark whichever cores run it: each
 * 32-bit line address read gets its core's address-space offset
 * (`core_addr`), so addresses are 64-bit from there on.
 *
 * The per-reference finds (the LLC `mapped` probe, the L1 probe, the
 * ATD stack search) stop at their first match, as the Python engine's
 * do.  An LRU argmin is a branch-free strict-< select, so ties keep
 * the first minimum.  The per-reference helpers take the LLC and L1
 * way counts as parameters, and `repro_run_span` instantiates its loop
 * for the shipped geometries (8 or 16 LLC ways over 4 L1 ways) with
 * constant counts; any other geometry runs the same body with the
 * context's counts (tests/engine/test_cross_engine.py runs two).
 * tests/engine/test_kernel_invariants.py checks that each key is unique
 * in its row, which the LRU order and the upkeep of `mapped` assume.
 *
 * repro/engine/compiled.py builds its ctypes mirror of the struct
 * below by reading this declaration, so it must stay one 8-byte field
 * (i64 or a pointer) per line; the ABI size check catches a line the
 * reader skips, and a canary word is checked at entry.
 */

#include <stdint.h>

typedef int64_t i64;

enum {
    ST_DONE = 0,
    ST_BOUNDARY = 1,
    ST_WARMUP_GATE = 2,
    ST_NEED_PYTHON_REF = 3,
    ST_EVBUF_FULL = 4,
    ST_ERROR = 5,
};

enum { POL_TABLED = 0, POL_UCP = 1, POL_COOP = 2 };

enum { EV_FLUSH_TL = 1, EV_TFB = 2, EV_TRANS_DUR = 3 };

#define NO_TAG (-1)
#define NO_OWNER (-1)
#define TGT_NONE (-1)
#define CANARY 0x5EED1DEA5EED1DEALL
#define HOT static inline __attribute__((always_inline))
#define NOINLINE static __attribute__((noinline))

typedef struct {
    /* ---- canary / abi ---- */
    i64 canary;

    /* ---- geometry / run constants ---- */
    i64 n_cores;
    i64 issue_shift;
    i64 l1_latency;
    i64 miss_latency;
    i64 l2_latency;
    i64 target;
    i64 warmup;
    i64 llc_set_mask;
    i64 llc_set_shift;
    i64 llc_ways;
    i64 llc_nsets;
    i64 policy_kind;
    i64 has_dvfs;
    i64 mem_latency;
    i64 mem_nbanks;
    i64 mem_bank_busy;
    i64 mem_bank_shift;
    i64 flush_bucket_cycles;  /* MainMemory.flush_bucket_cycles */
    i64 stats_bucket_cycles;  /* PolicyStats.flush_bucket_cycles */
    i64 has_monitors;
    i64 umon_mask;
    i64 umon_offset;
    i64 umon_shift;
    i64 last_decision_cycle;  /* -1 = None */
    i64 l1_ways;
    i64 l1_mask;
    i64 l1_shift;
    i64 core_space_bits;  /* core i's lines sit at (i + 1) << this */

    /* ---- loop state (in/out) ---- */
    i64 warmed_up;
    i64 unfinished;
    i64 boundary;   /* min(next_epoch, next_event) */
    i64 bail_now;   /* out */
    i64 bail_core;  /* out */

    /* ---- per-core scalar state (in/out) ---- */
    i64 *core_active;
    i64 *core_time;
    i64 *core_position;
    i64 *core_length;
    i64 *core_instructions;
    i64 *core_refs_done;
    i64 *core_window_open;
    i64 *core_window_closed;
    i64 *core_instr_base;
    i64 *core_cycle_base;
    i64 *core_frozen_instr;
    i64 *core_frozen_cycles;

    /* ---- traces (zero-copy; one copy per benchmark, see core_addr) ---- */
    int32_t **trace_gaps;
    int32_t **trace_addr;
    int8_t **trace_writes;

    /* ---- L1 columns: per core -> its L1's column ---- */
    i64 **l1_tags;      /* [set * l1_ways + way] */
    i64 **l1_stamp;
    i64 **l1_owner;
    uint8_t **l1_dirty;
    i64 **l1_clock;     /* [set] */
    i64 **l1_valid;     /* [set] */
    i64 **l1_occ;       /* [core]: the L1's occupancy counters */
    i64 *l1_hits;       /* per core */
    i64 *l1_misses;     /* per core */
    i64 *l1_writebacks; /* per core */

    /* ---- LLC columns: index [set * llc_ways + way] ---- */
    i64 *llc_tags;
    i64 *llc_stamp;
    i64 *llc_owner;
    uint8_t *llc_dirty;
    i64 *llc_mapped;   /* tag resolving to the way, -1 none */
    i64 *llc_clock;    /* [set] */
    i64 *llc_valid;    /* [set] */
    i64 *llc_occ;      /* per core */

    /* ---- policy fast tables (per core) ---- */
    i64 *probe_mask;
    i64 *probe_count;
    i64 *fill_count;   /* -1 = None (all ways) */
    i64 *fill_ways;    /* [core * llc_ways + k] */
    i64 custom_victim;
    i64 pre_access_active;
    i64 post_fill_active;

    /* ---- statistics (per core, in/out) ---- */
    i64 *ways_probed_sum;
    i64 *probe_events;
    i64 *writeback_accesses;
    i64 *demand_accesses;
    i64 *demand_hits;

    /* ---- energy scalars (in/out) ---- */
    i64 e_tag_probes;
    i64 e_data_reads;
    i64 e_data_writes;
    i64 e_writebacks;
    i64 e_monitor_updates;

    /* ---- memory (in/out) ---- */
    i64 *bank_free_at;
    i64 mem_reads;
    i64 mem_writebacks;
    i64 mem_read_stall;

    /* ---- policy-stats scalars (in/out) ---- */
    i64 transfer_flushes;
    i64 transitions_completed;
    i64 tk_donor_hit;
    i64 tk_donor_miss;
    i64 tk_recipient_hit;
    i64 tk_recipient_miss;

    /* ---- DVFS ---- */
    i64 *dvfs_entries; /* [core * 4 + k]: num, den, scaled_l1, miss_base */
    i64 *dvfs_stall;   /* per core, in/out */

    /* ---- ATD (valid when has_monitors), per core -> its arrays ---- */
    i64 **atd_stack;   /* [slot * llc_ways + k], slot = set >> umon_shift */
    i64 **atd_len;     /* [slot] */
    i64 **atd_hits;    /* [k] */
    i64 **atd_counts;  /* [0] misses, [1] accesses */

    /* ---- UCP transitions ---- */
    i64 *ucp_target;       /* per core, TGT_NONE = no target */
    i64 ucp_known;
    i64 *ucp_counts;       /* scratch, size ucp_known */
    i64 *ucp_trans_active; /* per core 0/1, in/out */
    i64 **ucp_gained;      /* per core -> gained_per_set (llc_nsets) */
    i64 **ucp_complete;    /* per core -> complete_sets (ways_gained) */
    i64 *ucp_ways_gained;  /* per core */
    i64 *ucp_ways_done;    /* per core, in/out */
    i64 *ucp_start_cycle;  /* per core */

    /* ---- cooperative takeover ---- */
    i64 engine_active;
    i64 *coop_donor_count; /* per core */
    i64 *coop_donor_ways;  /* [core * llc_ways + k] */
    i64 *coop_rs_count;    /* per core */
    i64 *coop_rs_donor;    /* [core * n_cores + k] */
    i64 *coop_rs_nways;    /* [core * n_cores + k] */
    i64 *coop_rs_ways;     /* [(core * n_cores + k) * llc_ways + j] */
    i64 *coop_recv_count;  /* per core */
    i64 *coop_recv_ways;   /* [core * llc_ways + j] */
    uint8_t **coop_vec_bits; /* per donor core (NULL when absent) */
    i64 *coop_vec_count;   /* per donor core, in/out */

    /* ---- ordered event buffer (out) ---- */
    i64 *evbuf;     /* triples (type, value, count) */
    i64 evbuf_cap;  /* capacity in triples */
    i64 evbuf_len;  /* in: 0; out: triples used */

    /* ---- warm sweep (repro_warm_sweep only) ---- */
    int32_t **warm_lines; /* per core: resident lines to touch */
    i64 *warm_len;    /* per core */
    i64 warm_round;   /* resume cursor after a bail */
    i64 warm_core;
    i64 warm_only;    /* -1: every active core; else that core alone */
} Ctx;

/* ------------------------------------------------------------------ */
static void ev_push(Ctx *c, i64 type, i64 value)
{
    i64 n = c->evbuf_len;
    if (n > 0 && type != EV_TRANS_DUR) {
        i64 *last = c->evbuf + (n - 1) * 3;
        if (last[0] == type && last[1] == value) {
            last[2]++;
            return;
        }
    }
    i64 *e = c->evbuf + n * 3;
    e[0] = type;
    e[1] = value;
    e[2] = 1;
    c->evbuf_len = n + 1;
}

/* MainMemory.writeback(): bank occupancy + counters + flush timeline */
static void memory_writeback(Ctx *c, i64 addr, i64 now)
{
    i64 bank = (addr >> c->mem_bank_shift) % c->mem_nbanks;
    i64 start = c->bank_free_at[bank];
    if (now > start)
        start = now;
    c->bank_free_at[bank] = start + c->mem_bank_busy;
    c->mem_writebacks++;
    ev_push(c, EV_FLUSH_TL, now / c->flush_bucket_cycles);
}

/* Python floor division (the numerator can be negative: an access
 * issued before the stamped decision cycle lands in bucket -1). */
static i64 floordiv(i64 num, i64 den)
{
    i64 q = num / den;
    if (num % den != 0 && (num < 0) != (den < 0))
        q--;
    return q;
}

/* PolicyStats.note_transfer_flush() */
static void note_transfer_flush(Ctx *c, i64 now)
{
    c->transfer_flushes++;
    if (c->last_decision_cycle >= 0)
        ev_push(c, EV_TFB,
                floordiv(now - c->last_decision_cycle,
                         c->stats_bucket_cycles));
}

/* TakeoverEngine._flush_ways_in_set() */
static void flush_ways_in_set(Ctx *c, const i64 *ways, i64 n, i64 set, i64 now)
{
    i64 *tags = c->llc_tags + set * c->llc_ways;
    uint8_t *dirty = c->llc_dirty + set * c->llc_ways;
    for (i64 k = 0; k < n; k++) {
        i64 way = ways[k];
        i64 tag = tags[way];
        if (tag == NO_TAG || !dirty[way])
            continue;
        dirty[way] = 0;
        memory_writeback(c, (tag << c->llc_set_shift) | set, now);
        c->e_writebacks++;
        note_transfer_flush(c, now);
    }
}

/* TakeoverEngine.on_access(), minus completion (pre-checked away) */
static void coop_on_access(Ctx *c, i64 core, i64 set, int hit, i64 now)
{
    i64 dn = c->coop_donor_count[core];
    if (dn > 0) {
        uint8_t *bits = c->coop_vec_bits[core];
        if (bits[set] == 0) {
            bits[set] = 1;
            c->coop_vec_count[core]++;
            flush_ways_in_set(c, c->coop_donor_ways + core * c->llc_ways,
                              dn, set, now);
            if (hit)
                c->tk_donor_hit++;
            else
                c->tk_donor_miss++;
        }
    }
    i64 rs = c->coop_rs_count[core];
    for (i64 k = 0; k < rs; k++) {
        i64 idx = core * c->n_cores + k;
        i64 donor = c->coop_rs_donor[idx];
        uint8_t *bits = c->coop_vec_bits[donor];
        if (bits[set] == 0) {
            bits[set] = 1;
            c->coop_vec_count[donor]++;
            flush_ways_in_set(c, c->coop_rs_ways + idx * c->llc_ways,
                              c->coop_rs_nways[idx], set, now);
            if (hit)
                c->tk_recipient_hit++;
            else
                c->tk_recipient_miss++;
        }
    }
}

/* AuxiliaryTagDirectory.record() */
HOT void atd_record(Ctx *c, i64 core, i64 set, i64 tag, const i64 W)
{
    i64 slot = set >> c->umon_shift;
    i64 *stack = c->atd_stack[core] + slot * W;
    i64 *lenp = c->atd_len[core] + slot;
    i64 len = *lenp;
    i64 *counts = c->atd_counts[core];
    counts[1]++;
    i64 pos = 0;
    while (pos < len && stack[pos] != tag)
        pos++;
    if (pos == len) {
        counts[0]++;
        pos = len < W ? len : W - 1;  /* a full stack drops its LRU tag */
        *lenp = pos + 1;
    } else {
        c->atd_hits[core][pos]++;
    }
    for (i64 i = pos; i > 0; i--)
        stack[i] = stack[i - 1];
    stack[0] = tag;
}

/* The first way of stamp[0..n) holding the least stamp (LRU). */
HOT i64 lru_way(const i64 *stamp, i64 n)
{
    i64 victim = 0;
    i64 bs = stamp[0];
    for (i64 w = 1; w < n; w++) {
        int lt = stamp[w] < bs;
        victim = lt ? w : victim;
        bs = lt ? stamp[w] : bs;
    }
    return victim;
}

/* SetAssociativeCache.victim(set, ways): fc < 0 means "all ways" */
static i64 set_victim(Ctx *c, i64 set, i64 fc, const i64 *fw)
{
    i64 W = c->llc_ways;
    i64 *tags = c->llc_tags + set * W;
    i64 *stamp = c->llc_stamp + set * W;
    if (fc < 0) {
        if (c->llc_valid[set] != W) {
            for (i64 w = 0; w < W; w++)
                if (tags[w] == NO_TAG)
                    return w;
        }
        return lru_way(stamp, W);
    }
    if (c->llc_valid[set] != W) {
        for (i64 k = 0; k < fc; k++)
            if (tags[fw[k]] == NO_TAG)
                return fw[k];
    }
    i64 best = -1;
    i64 bs = 0;
    for (i64 k = 0; k < fc; k++) {
        i64 s = stamp[fw[k]];
        if (best < 0 || s < bs) {
            best = fw[k];
            bs = s;
        }
    }
    return best; /* -1 only for an empty way set: caller errors out */
}

/* PartitionAwareVictimSelector.select() (UCP) */
static i64 ucp_select(Ctx *c, i64 core, i64 set, i64 fc, const i64 *fw)
{
    i64 W = c->llc_ways;
    i64 *tags = c->llc_tags + set * W;
    i64 n = fc < 0 ? W : fc;
    if (c->llc_valid[set] != W) {
        for (i64 k = 0; k < n; k++) {
            i64 w = fc < 0 ? k : fw[k];
            if (tags[w] == NO_TAG)
                return w;
        }
    }
    i64 *owner = c->llc_owner + set * W;
    i64 *stamp = c->llc_stamp + set * W;
    i64 known = c->ucp_known;
    i64 *counts = c->ucp_counts;
    for (i64 i = 0; i < known; i++)
        counts[i] = 0;
    for (i64 w = 0; w < W; w++) {
        if (tags[w] != NO_TAG) {
            i64 o = owner[w];
            if (o >= 0 && o < known)
                counts[o]++;
        }
    }
    i64 tgt = core < known ? c->ucp_target[core] : TGT_NONE;
    if (tgt != TGT_NONE && counts[core] < tgt) {
        i64 best = -1;
        i64 bs = 0;
        for (i64 k = 0; k < n; k++) {
            i64 w = fc < 0 ? k : fw[k];
            if (tags[w] == NO_TAG)
                continue;
            i64 o = owner[w];
            if (o >= 0 && o < known) {
                i64 ot = c->ucp_target[o];
                if (ot != TGT_NONE && counts[o] <= ot)
                    continue;
            }
            i64 s = stamp[w];
            if (best < 0 || s < bs) {
                best = w;
                bs = s;
            }
        }
        if (best >= 0)
            return best;
    }
    i64 best = -1;
    i64 bs = 0;
    for (i64 k = 0; k < n; k++) {
        i64 w = fc < 0 ? k : fw[k];
        if (tags[w] != NO_TAG && owner[w] == core) {
            i64 s = stamp[w];
            if (best < 0 || s < bs) {
                best = w;
                bs = s;
            }
        }
    }
    if (best >= 0)
        return best;
    return set_victim(c, set, fc, fw);
}

/* CooperativePartitioningPolicy._select_victim() */
static i64 coop_select(Ctx *c, i64 core, i64 set, i64 fc, const i64 *fw)
{
    if (fc < 0)
        return set_victim(c, set, -1, 0);
    if (c->engine_active) {
        i64 n = c->coop_recv_count[core];
        const i64 *rw = c->coop_recv_ways + core * c->llc_ways;
        i64 *owner = c->llc_owner + set * c->llc_ways;
        for (i64 k = 0; k < n; k++)
            if (owner[rw[k]] != core)
                return rw[k];
    }
    return set_victim(c, set, fc, fw);
}

/* UCPPolicy._post_fill() */
static void ucp_post_fill(Ctx *c, i64 core, i64 set, i64 evicted_owner,
                          i64 evicted_dirty, i64 now)
{
    if (!c->ucp_trans_active[core])
        return;
    if (evicted_owner == core || evicted_owner == -1)
        return;
    if (evicted_dirty)
        note_transfer_flush(c, now);
    /* _Transition.record_gain() */
    i64 *gained = c->ucp_gained[core];
    i64 level = gained[set];
    int way_done = 0;
    if (level < c->ucp_ways_gained[core]) {
        gained[set] = level + 1;
        i64 *comp = c->ucp_complete[core];
        comp[level]++;
        if (comp[level] == c->llc_nsets && level == c->ucp_ways_done[core]) {
            c->ucp_ways_done[core]++;
            way_done = 1;
        }
    }
    if (way_done) {
        ev_push(c, EV_TRANS_DUR, now - c->ucp_start_cycle[core]);
        c->transitions_completed++;
    }
    if (c->ucp_ways_done[core] >= c->ucp_ways_gained[core]) {
        c->ucp_trans_active[core] = 0;
        i64 any = 0;
        for (i64 i = 0; i < c->n_cores; i++)
            any |= c->ucp_trans_active[i];
        c->post_fill_active = any;
    }
}

/* BaseSharedCachePolicy.access_fast(); returns memory latency, or -1
 * on an internal error (no victim way). */
HOT i64 llc_access(Ctx *c, i64 core, i64 addr, int is_write, i64 now,
                   const i64 W)
{
    i64 set = addr & c->llc_set_mask;
    i64 tag = addr >> c->llc_set_shift;
    i64 line0 = set * W;
    i64 *mapped = c->llc_mapped + line0;
    i64 pm = c->probe_mask[core];
    i64 np = c->probe_count[core];
    i64 way = -1;
    for (i64 w = 0; w < W; w++) {
        if (mapped[w] == tag) {
            way = w;
            break;
        }
    }
    i64 mapped_way = way;  /* the tag's newest copy, probed or not */
    if (way >= 0 && !((pm >> way) & 1))
        way = -1;
    int hit = way >= 0;

    c->e_tag_probes += np;
    if (hit)
        c->e_data_reads++;
    c->ways_probed_sum[core] += np;
    c->probe_events[core]++;
    if (is_write) {
        c->writeback_accesses[core]++;
    } else {
        c->demand_accesses[core]++;
        if (hit)
            c->demand_hits[core]++;
        if (c->has_monitors && (set & c->umon_mask) == c->umon_offset) {
            atd_record(c, core, set, tag, W);
            c->e_monitor_updates++;
        }
    }

    if (c->pre_access_active)
        coop_on_access(c, core, set, hit, now);

    i64 *tags = c->llc_tags + line0;
    uint8_t *dirty = c->llc_dirty + line0;
    i64 *stamp = c->llc_stamp + line0;
    if (hit) {
        if (!c->pre_access_active || tags[way] == tag) {
            stamp[way] = c->llc_clock[set]++;
            if (is_write) {
                dirty[way] = 1;
                c->e_data_writes++;
            }
        }
        return 0;
    }

    i64 memory_latency = 0;
    if (!is_write) {
        i64 bank = (addr >> c->mem_bank_shift) % c->mem_nbanks;
        i64 start = c->bank_free_at[bank];
        if (now > start)
            start = now;
        c->bank_free_at[bank] = start + c->mem_bank_busy;
        i64 queueing = start - now;
        c->mem_reads++;
        c->mem_read_stall += queueing;
        memory_latency = queueing + c->mem_latency;
    }

    i64 fc = c->fill_count[core];
    const i64 *fw = c->fill_ways + core * W;
    i64 victim;
    if (c->custom_victim) {
        if (c->policy_kind == POL_UCP)
            victim = ucp_select(c, core, set, fc, fw);
        else
            victim = coop_select(c, core, set, fc, fw);
    } else {
        victim = set_victim(c, set, fc, fw);
    }
    if (victim < 0)
        return -1;

    /* Inline fill (mirrors access_fast / SetAssociativeCache.install). */
    i64 old_tag = tags[victim];
    i64 *owner = c->llc_owner + line0;
    i64 evicted_dirty = 0;
    i64 evicted_owner = -1;
    if (old_tag != NO_TAG) {
        evicted_dirty = dirty[victim];
        evicted_owner = owner[victim];
        if (mapped[victim] == old_tag)
            mapped[victim] = NO_TAG;
        if (evicted_owner >= 0)
            c->llc_occ[evicted_owner]--;
    } else {
        c->llc_valid[set]++;
    }
    /* The new copy supersedes an older one left in a way its owner no
     * longer probes: `tag` resolves to `victim` from now on. */
    if (mapped_way >= 0)
        mapped[mapped_way] = NO_TAG;
    tags[victim] = tag;
    mapped[victim] = tag;
    dirty[victim] = is_write ? 1 : 0;
    owner[victim] = core;
    stamp[victim] = c->llc_clock[set]++;
    c->llc_occ[core]++;
    c->e_data_writes++;
    if (evicted_dirty) {
        i64 vaddr = (old_tag << c->llc_set_shift) | set;
        i64 bank = (vaddr >> c->mem_bank_shift) % c->mem_nbanks;
        i64 start = c->bank_free_at[bank];
        if (now > start)
            start = now;
        c->bank_free_at[bank] = start + c->mem_bank_busy;
        c->mem_writebacks++;
        ev_push(c, EV_FLUSH_TL, now / c->flush_bucket_cycles);
        c->e_writebacks++;
    }
    if (c->post_fill_active)
        ucp_post_fill(c, core, set, evicted_owner, evicted_dirty, now);
    return memory_latency;
}

/* The way of `core`'s L1 set `lset` holding `ltag`, or -1 (a private
 * L1 never holds duplicates, so a scan of the tags is the lookup). */
HOT i64 l1_find(Ctx *c, i64 core, i64 lset, i64 ltag, const i64 LW)
{
    const i64 *ltags = c->l1_tags[core] + lset * LW;
    for (i64 w = 0; w < LW; w++)
        if (ltags[w] == ltag)
            return w;
    return -1;
}

/* L1 victim: the first invalid way, else plain LRU over the full set. */
HOT i64 l1_victim(Ctx *c, i64 core, i64 lset, const i64 LW)
{
    i64 line0 = lset * LW;
    i64 *ltags = c->l1_tags[core] + line0;
    if (c->l1_valid[core][lset] != LW) {
        for (i64 w = 0; w < LW; w++)
            if (ltags[w] == NO_TAG)
                return w;
    }
    return lru_way(c->l1_stamp[core] + line0, LW);
}

/* CMPSimulator._l1_miss(): the LLC fetch, the inline L1 fill and the
 * dirty victim's writeback through the LLC.  Returns the memory
 * latency, or -1 on an internal error. */
HOT i64 l1_miss(Ctx *c, i64 core, i64 addr, i64 lset, i64 ltag,
                i64 is_write, i64 now, const i64 W, const i64 LW)
{
    c->l1_misses[core]++;
    i64 mem_lat = llc_access(c, core, addr, 0, now, W);
    if (mem_lat < 0)
        return -1;
    i64 line = lset * LW + l1_victim(c, core, lset, LW);
    i64 *ltags = c->l1_tags[core];
    uint8_t *ldirty = c->l1_dirty[core];
    i64 old_tag = ltags[line];
    i64 evicted_dirty = 0;
    if (old_tag != NO_TAG) {
        evicted_dirty = ldirty[line];
    } else {
        c->l1_valid[core][lset]++;
        c->l1_occ[core][core]++;
    }
    ltags[line] = ltag;
    ldirty[line] = is_write ? 1 : 0;
    c->l1_owner[core][line] = core;
    c->l1_stamp[core][line] = c->l1_clock[core][lset]++;
    if (evicted_dirty) {
        c->l1_writebacks[core]++;
        if (llc_access(c, core, (old_tag << c->l1_shift) | lset, 1, now, W) < 0)
            return -1;
    }
    if (c->has_dvfs)
        c->dvfs_stall[core] += c->l2_latency + mem_lat;
    return mem_lat;
}

/* Would this access complete a takeover vector?  A completion must be
 * finalised by Python (permission withdrawal, power gating), so the
 * reference bails out *before* any state is mutated. */
static int vec_completes(Ctx *c, i64 donor, i64 s1, i64 s2)
{
    uint8_t *bits = c->coop_vec_bits[donor];
    i64 marks = bits[s1] == 0 ? 1 : 0;
    if (s2 >= 0 && s2 != s1 && bits[s2] == 0)
        marks++;
    return c->coop_vec_count[donor] + marks >= c->llc_nsets;
}

static int coop_would_complete(Ctx *c, i64 core, i64 addr, i64 lset)
{
    i64 s1 = addr & c->llc_set_mask;
    /* Would the L1 miss also write back a dirty victim?  The victim
     * choice is deterministic, so compute it read-only. */
    i64 s2 = -1;
    i64 line = lset * c->l1_ways + l1_victim(c, core, lset, c->l1_ways);
    i64 vtag = c->l1_tags[core][line];
    if (vtag != NO_TAG && c->l1_dirty[core][line])
        s2 = ((vtag << c->l1_shift) | lset) & c->llc_set_mask;

    if (c->coop_donor_count[core] > 0 && vec_completes(c, core, s1, s2))
        return 1;
    i64 rs = c->coop_rs_count[core];
    for (i64 k = 0; k < rs; k++) {
        if (vec_completes(c, c->coop_rs_donor[core * c->n_cores + k], s1, s2))
            return 1;
    }
    return 0;
}

/* A trace line as core ci addresses it: CoreState.offset. */
HOT i64 core_addr(const Ctx *c, i64 ci, i64 line)
{
    return line + ((ci + 1) << c->core_space_bits);
}

/* ------------------------------------------------------------------ */
i64 repro_abi_size(void)
{
    return (i64)sizeof(Ctx);
}

/* The span loop for W LLC ways over LW L1 ways; repro_run_span
 * instantiates it per geometry. */
HOT i64 run_span(Ctx *c, const i64 W, const i64 LW)
{
    i64 n = c->n_cores;
    for (;;) {
        /* Worst-case events for one reference: every in-flight way of
         * every relevant takeover vector flushing on both the demand
         * and the writeback access stays well under this headroom. */
        if (c->evbuf_len > c->evbuf_cap - 2048)
            return ST_EVBUF_FULL;

        /* Scheduler: min (time, core_id) over active cores — the heap
         * tie-break (earliest time, lowest id) by strict <. */
        i64 now = 0;
        i64 ci = -1;
        for (i64 i = 0; i < n; i++) {
            if (!c->core_active[i])
                continue;
            i64 t = c->core_time[i];
            if (ci < 0 || t < now) {
                now = t;
                ci = i;
            }
        }
        if (ci < 0) {
            c->bail_now = c->boundary;
            return ST_BOUNDARY;
        }
        if (now >= c->boundary) {
            c->bail_now = now;
            return ST_BOUNDARY;
        }

        i64 pos = c->core_position[ci];
        i64 gap = c->trace_gaps[ci][pos];
        i64 addr = core_addr(c, ci, c->trace_addr[ci][pos]);
        i64 is_write = c->trace_writes[ci][pos];
        i64 issue_time, hit_latency, miss_base;
        if (!c->has_dvfs) {
            issue_time = now + (gap >> c->issue_shift);
            hit_latency = c->l1_latency;
            miss_base = c->miss_latency;
        } else {
            i64 *e = c->dvfs_entries + ci * 4;
            issue_time = now + ((gap >> c->issue_shift) * e[0]) / e[1];
            hit_latency = e[2];
            miss_base = e[3];
        }

        i64 lset = addr & c->l1_mask;
        i64 ltag = addr >> c->l1_shift;
        i64 lway = l1_find(c, ci, lset, ltag, LW);
        if (lway >= 0) {
            i64 line = lset * LW + lway;
            c->l1_stamp[ci][line] = c->l1_clock[ci][lset]++;
            if (is_write)
                c->l1_dirty[ci][line] = 1;
            c->l1_hits[ci]++;
            c->core_time[ci] = issue_time + hit_latency;
        } else {
            if (c->engine_active &&
                coop_would_complete(c, ci, addr, lset)) {
                c->bail_now = now;
                c->bail_core = ci;
                return ST_NEED_PYTHON_REF;
            }
            i64 mem_lat = l1_miss(c, ci, addr, lset, ltag, is_write,
                                  issue_time, W, LW);
            if (mem_lat < 0)
                return ST_ERROR;
            c->core_time[ci] = issue_time + miss_base + mem_lat;
        }

        c->core_instructions[ci] += gap + 1;
        pos++;
        c->core_position[ci] = pos == c->core_length[ci] ? 0 : pos;
        c->core_refs_done[ci]++;

        if (c->core_refs_done[ci] == c->warmup && !c->core_window_open[ci]) {
            /* CoreState.start_measurement() */
            c->core_instr_base[ci] = c->core_instructions[ci];
            c->core_cycle_base[ci] = c->core_time[ci];
            c->core_window_open[ci] = 1;
            if (!c->warmed_up) {
                c->bail_now = now;
                c->bail_core = ci;
                return ST_WARMUP_GATE;
            }
        }
        if (c->core_refs_done[ci] == c->target && !c->core_window_closed[ci]) {
            /* CoreState.freeze() */
            c->core_frozen_instr[ci] =
                c->core_instructions[ci] - c->core_instr_base[ci];
            c->core_frozen_cycles[ci] =
                c->core_time[ci] - c->core_cycle_base[ci];
            c->core_window_closed[ci] = 1;
            if (--c->unfinished == 0)
                return ST_DONE;
        }
    }
}

/* Every shipped config has 4-way L1s over an 8- or 16-way LLC; those
 * run with constant way counts, any other geometry with the context's.
 * Each instance is a function of its own: inlined side by side into
 * one, the 16-way instance ran slower than the generic loop. */
NOINLINE i64 run_span_8_4(Ctx *c) { return run_span(c, 8, 4); }
NOINLINE i64 run_span_16_4(Ctx *c) { return run_span(c, 16, 4); }
NOINLINE i64 run_span_any(Ctx *c)
{
    return run_span(c, c->llc_ways, c->l1_ways);
}

i64 repro_run_span(Ctx *c)
{
    if (c->canary != CANARY)
        return ST_ERROR;
    if (c->l1_ways == 4 && c->llc_ways == 8)
        return run_span_8_4(c);
    if (c->l1_ways == 4 && c->llc_ways == 16)
        return run_span_16_4(c);
    return run_span_any(c);
}

/* CMPSimulator._prewarm() (warm_only = -1) and _warm_core() (warm_only
 * = the arriving core): pre-touch each core's resident working set
 * through the real L1/LLC access path, one line per core per round
 * (the Python sweep's interleave).  No windows or reference counting
 * — warm traffic only ages the caches and advances core time.
 * Resumes from (warm_round, warm_core) after a bail: ST_EVBUF_FULL, or
 * ST_NEED_PYTHON_REF for a line that would complete a takeover vector
 * (Python warms that line, then resumes from the next core). */
i64 repro_warm_sweep(Ctx *c)
{
    if (c->canary != CANARY)
        return ST_ERROR;
    i64 lo = 0;
    i64 hi = c->n_cores;
    if (c->warm_only >= 0) {
        lo = c->warm_only;
        hi = lo + 1;
    }
    i64 max_len = 0;
    for (i64 i = lo; i < hi; i++) {
        if (c->core_active[i] && c->warm_len[i] > max_len)
            max_len = c->warm_len[i];
    }
    for (i64 r = c->warm_round; r < max_len; r++) {
        for (i64 ci = c->warm_core > lo ? c->warm_core : lo; ci < hi; ci++) {
            if (!c->core_active[ci] || r >= c->warm_len[ci])
                continue;
            if (c->evbuf_len > c->evbuf_cap - 2048) {
                c->warm_round = r;
                c->warm_core = ci;
                return ST_EVBUF_FULL;
            }
            i64 now = c->core_time[ci];
            i64 addr = core_addr(c, ci, c->warm_lines[ci][r]);
            i64 lset = addr & c->l1_mask;
            i64 ltag = addr >> c->l1_shift;
            i64 lway = l1_find(c, ci, lset, ltag, c->l1_ways);
            if (lway >= 0) {
                c->l1_stamp[ci][lset * c->l1_ways + lway] =
                    c->l1_clock[ci][lset]++;
                c->l1_hits[ci]++;
                c->core_time[ci] = now +
                    (c->has_dvfs ? c->dvfs_entries[ci * 4 + 2]
                                 : c->l1_latency);
                continue;
            }
            if (c->engine_active &&
                coop_would_complete(c, ci, addr, lset)) {
                c->warm_round = r;
                c->warm_core = ci;
                c->bail_core = ci;
                return ST_NEED_PYTHON_REF;
            }
            i64 mem_lat = l1_miss(c, ci, addr, lset, ltag, 0, now,
                                  c->llc_ways, c->l1_ways);
            if (mem_lat < 0)
                return ST_ERROR;
            c->core_time[ci] = now + mem_lat +
                (c->has_dvfs ? c->dvfs_entries[ci * 4 + 3]
                             : c->miss_latency);
        }
        c->warm_core = 0;
    }
    return ST_DONE;
}

/* ------------------------------------------------------------------ */
/* Way-wide sweeps over one cache's line columns, line for line
 * SetAssociativeCache.invalidate_way() and .flush_ways().  Each writes
 * the flushed line addresses to `out` in the order Python returns them
 * and returns how many it wrote: at most `nsets` per way swept, which
 * is the size of `out`. */

/* invalidate_way(): drop `way` in every set; set order */
i64 repro_invalidate_way(i64 *tags, uint8_t *dirty, i64 *owner, i64 *mapped,
                         i64 *valid, i64 *occ, i64 n_occ, i64 nsets,
                         i64 ways, i64 set_shift, i64 way, i64 *out)
{
    i64 n = 0;
    for (i64 set = 0; set < nsets; set++) {
        i64 line = set * ways + way;
        i64 tag = tags[line];
        if (tag != NO_TAG) {
            if (dirty[line])
                out[n++] = (tag << set_shift) | set;
            i64 o = owner[line];
            if (o >= 0 && o < n_occ)
                occ[o]--;
            valid[set]--;
            if (mapped && mapped[line] == tag)
                mapped[line] = NO_TAG;
        }
        tags[line] = NO_TAG;
        dirty[line] = 0;
        owner[line] = NO_OWNER;
    }
    return n;
}

/* flush_ways(): write back the dirty lines of `sel` (n_sel ways), set
 * by set and in `sel` order within a set; the lines stay valid */
i64 repro_flush_ways(const i64 *tags, uint8_t *dirty, i64 nsets, i64 ways,
                     i64 set_shift, const i64 *sel, i64 n_sel, i64 *out)
{
    i64 n = 0;
    for (i64 set = 0; set < nsets; set++) {
        const i64 *t = tags + set * ways;
        uint8_t *d = dirty + set * ways;
        for (i64 k = 0; k < n_sel; k++) {
            i64 way = sel[k];
            if (d[way] && t[way] != NO_TAG) {
                d[way] = 0;
                out[n++] = (t[way] << set_shift) | set;
            }
        }
    }
    return n;
}

/* ------------------------------------------------------------------ */
/* A partitioning epoch's monitor read-out and lookahead, called by
 * Python between spans (repro.engine.compiled.KernelEpoch).  Counters
 * and curves stay far below 2^53, so every i64 below converts to a
 * double exactly, as CPython converts them. */

/* UtilityMonitor.miss_curve() and .end_epoch() for `n` monitors:
 * `hits[k]` is monitor k's `ways` stack-position counters, `counts[k]`
 * its [misses, accesses].  With `curves`, row k (`ways + 1` entries)
 * gets the curve, scaled by `scale[k]`; with `age`, every counter then
 * becomes int(value * factor[k]): one rounded product, truncated. */
void repro_umon_readout(i64 *const *hits, i64 *const *counts,
                        const i64 *scale, const double *factor, i64 n,
                        i64 ways, i64 *curves, i64 age)
{
    for (i64 k = 0; k < n; k++) {
        i64 *h = hits[k];
        i64 *t = counts[k];
        if (curves) {
            i64 s = scale[k];
            i64 *row = curves + k * (ways + 1);
            i64 misses = t[1] * s;
            row[0] = misses;
            for (i64 w = 0; w < ways; w++) {
                misses -= h[w] * s;
                row[w + 1] = misses;
            }
        }
        if (age) {
            double f = factor[k];
            for (i64 w = 0; w < ways; w++)
                h[w] = (i64)((double)h[w] * f);
            t[0] = (i64)((double)t[0] * f);
            t[1] = (i64)((double)t[1] * f);
        }
    }
}

/* _max_marginal_utility(): the best (curve[alloc] - curve[alloc + j])
 * / j over 1 <= j <= min(balance, len - 1 - alloc), at its smallest
 * j; blocks 0 (and mu 0.0) when no extension fits.  Inlined: as a
 * static function of its own GCC places it ahead of the span loops,
 * which moves their code and changed span time by ~2%. */
HOT void max_mu(const i64 *curve, i64 len, i64 alloc, i64 balance,
                   double *mu, i64 *blocks)
{
    i64 limit = len - 1 - alloc;
    if (balance < limit)
        limit = balance;
    *mu = 0.0;
    *blocks = 0;
    if (limit < 1)
        return;
    i64 base = curve[alloc];
    *mu = (double)(base - curve[alloc + 1]);
    *blocks = 1;
    for (i64 j = 2; j <= limit; j++) {
        double m = (double)(base - curve[alloc + j]) / (double)j;
        if (m > *mu) {
            *mu = m;
            *blocks = j;
        }
    }
}

/* lookahead_partition()'s loop over `n` curves: curve k is the `lens[k]`
 * entries from `curves + starts[k]`.  The same bids, tie-break (the
 * smaller allocation), threshold test and kept bids.  Writes each
 * core's ways to `alloc` and round r's winner, ways and utility to
 * `r_core[r]`, `r_blocks[r]` and `r_mu[r]` (each round awards at least
 * one way, so there are at most total_ways - n * min_ways); returns
 * the number of rounds.  The caller has checked the arguments as
 * lookahead_partition() does. */
i64 repro_lookahead(const i64 *curves, const i64 *starts, const i64 *lens,
                    i64 n, i64 total_ways, double threshold, i64 min_ways,
                    i64 *alloc, i64 *r_core, i64 *r_blocks, double *r_mu)
{
    double bid_mu[n];
    i64 bid_blocks[n];
    i64 balance = total_ways - n * min_ways;
    for (i64 k = 0; k < n; k++) {
        alloc[k] = min_ways;
        max_mu(curves + starts[k], lens[k], min_ways, balance,
               &bid_mu[k], &bid_blocks[k]);
    }
    i64 rounds = 0;
    double peak = 0.0;
    while (balance > 0) {
        i64 winner = -1;
        for (i64 k = 0; k < n; k++) {
            if (bid_blocks[k] == 0)
                continue;
            if (winner < 0 || bid_mu[k] > bid_mu[winner] ||
                (bid_mu[k] == bid_mu[winner] && alloc[k] < alloc[winner]))
                winner = k;
        }
        if (winner < 0)
            break;
        double mu = bid_mu[winner];
        i64 blocks = bid_blocks[winner];
        if (rounds == 0)
            peak = mu;
        if (threshold > 0 && (mu <= 0 || mu < threshold * peak))
            break;
        alloc[winner] += blocks;
        balance -= blocks;
        r_core[rounds] = winner;
        r_blocks[rounds] = blocks;
        r_mu[rounds] = mu;
        rounds++;
        /* a loser's bid stands while its blocks fit the new balance */
        for (i64 k = 0; k < n; k++) {
            if (k == winner || bid_blocks[k] > balance)
                max_mu(curves + starts[k], lens[k], alloc[k], balance,
                       &bid_mu[k], &bid_blocks[k]);
        }
    }
    return rounds;
}

/* ------------------------------------------------------------------ */
/* Synthetic trace generation: repro.workloads.trace._fill_columns_python
 * line for line.  `mt` is CPython's MT19937 state as random.getstate()
 * lists it (624 words, then the word index) and advances in place.
 * The word arithmetic of random(), getrandbits(k <= 32) and
 * randrange(n) follows Modules/_randommodule.c, and every double
 * operation runs in the Python loop's order; the build passes
 * -ffp-contract=off so no compiler fuses the gap multiply-add. */

#define MT_N 624
#define MT_M 397

static uint32_t mt_word(uint32_t *mt)
{
    if (mt[MT_N] >= MT_N) {  /* regenerate all N words */
        for (int k = 0; k < MT_N; k++) {
            uint32_t y = (mt[k] & 0x80000000U) |
                         (mt[k + 1 < MT_N ? k + 1 : 0] & 0x7fffffffU);
            mt[k] = mt[k + MT_M < MT_N ? k + MT_M : k + MT_M - MT_N] ^
                    (y >> 1) ^ ((y & 1U) ? 0x9908b0dfU : 0U);
        }
        mt[MT_N] = 0;
    }
    uint32_t y = mt[mt[MT_N]++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= y >> 18;
    return y;
}

static double mt_random(uint32_t *mt)
{
    uint32_t a = mt_word(mt) >> 5;
    uint32_t b = mt_word(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* The generator's raw word stream, getrandbits(32) per word. */
void repro_mt_words(uint32_t *mt, i64 n, uint32_t *out)
{
    for (i64 i = 0; i < n; i++)
        out[i] = mt_word(mt);
}

/* Category c (0 = hot region, 1..n = rings, last = stream) walks
 * tables[offsets[c] .. offsets[c] + lines[c]) cyclically or draws from
 * it uniformly; the stream walks upward from stream_base.  Phase p
 * lasts durations[p] references with weights[p * n_cat ..] and the
 * schedule repeats.  Returns ST_DONE, or ST_ERROR on bad arguments. */
i64 repro_trace_fill(uint32_t *mt, i64 n_refs,
                     i64 n_phases, const i64 *durations, const double *weights,
                     i64 n_cat, const i64 *lines, const i64 *cyclic,
                     const i64 *offsets, const int32_t *tables,
                     double mean_gap, double write_ratio, i64 stream_base,
                     int32_t *gaps, int32_t *addresses, int8_t *writes)
{
    if (n_cat < 2 || n_cat > 64 || n_phases < 1 || mt[MT_N] > MT_N)
        return ST_ERROR;
    double credits[64] = {0.0};
    i64 cursors[64] = {0};
    int shifts[64];
    for (i64 c = 0; c < n_cat - 1; c++) {  /* 32 - bit_length(lines[c]) */
        shifts[c] = 32;
        while (lines[c] >> (32 - shifts[c]))
            shifts[c]--;
    }
    i64 stream = n_cat - 1;
    i64 phase_index = 0;
    i64 refs_left_in_phase = durations[0];
    for (i64 i = 0; i < n_refs; i++) {
        if (refs_left_in_phase <= 0) {
            phase_index = (phase_index + 1) % n_phases;
            refs_left_in_phase = durations[phase_index];
        }
        refs_left_in_phase -= 1;
        const double *w = weights + phase_index * n_cat;

        i64 best = 0;
        double best_credit = credits[0] + w[0];
        credits[0] = best_credit;
        for (i64 c = 1; c < n_cat; c++) {
            double credit = credits[c] + w[c];
            credits[c] = credit;
            if (credit > best_credit) {
                best = c;
                best_credit = credit;
            }
        }
        credits[best] -= 1.0;

        i64 address;
        if (best == stream) {
            address = stream_base + cursors[best];
            cursors[best] += 1;
        } else if (cyclic[best]) {
            address = tables[offsets[best] + cursors[best]];
            cursors[best] = (cursors[best] + 1) % lines[best];
        } else {  /* randrange(lines): rejection-sample the top bits */
            i64 r;
            do
                r = mt_word(mt) >> shifts[best];
            while (r >= lines[best]);
            address = tables[offsets[best] + r];
        }
        gaps[i] = (int32_t)(mt_random(mt) * 2.0 * mean_gap + 0.5);
        addresses[i] = (int32_t)address;
        writes[i] = mt_random(mt) < write_ratio;
    }
    return ST_DONE;
}
