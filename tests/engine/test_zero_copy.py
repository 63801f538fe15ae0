"""The kernel context points at the simulator's own buffers.

A compiled span copies no per-core state.  The context holds the
addresses of the simulator's per-core columns
(:class:`~repro.sim.cpu.CoreColumns`), of its per-core counters and,
through the ``trace_*``/``warm_lines`` columns, of each core's
reference stream.  These tests check:

* the addresses when the context is built, after every phase change,
  and after the warmup reset (a reset that rebinds a buffer instead of
  zeroing it in place leaves the kernel writing to a dead array);
* that a core field Python writes at a boundary is the value the
  kernel's next span reads, and that what the kernel writes is what
  Python reads back.
"""

import ctypes

import pytest

from repro.engine import COMPILED, available_engines, compiled
from repro.engine.build import load_kernel
from repro.scenarios.corpus import corpus_scenario
from repro.scenarios.generate import corpus_config
from repro.scenarios.model import ARRIVE, PHASE
from repro.sim.cpu import CoreColumns
from repro.sim.runner import ExperimentRunner
from repro.sim.simulator import CMPSimulator

pytestmark = pytest.mark.skipif(
    COMPILED not in available_engines(), reason="no C toolchain"
)

_runner = ExperimentRunner()


def _simulator(name, policy="cooperative", governor="coordinated"):
    entry = corpus_scenario(name)
    config = corpus_config(entry.n_cores)
    return CMPSimulator.for_scenario(
        config,
        entry.scenario,
        policy,
        lambda benchmark: _runner.trace_for(benchmark, config),
        governor=governor,
    )


def _marshal(sim):
    return compiled._Marshal(
        sim, load_kernel(), compiled.policy_kind(sim.policy), 2
    )


def _address(column) -> int:
    return column.buffer_info()[0]


def _buffers(sim) -> dict:
    """Context field -> the simulator buffer it must point at."""
    columns = sim.core_columns
    stats = sim.stats
    buffers = {name: getattr(columns, name) for name in CoreColumns.__slots__}
    buffers.update(
        l1_hits=sim.l1_hits,
        l1_misses=sim.l1_misses,
        l1_writebacks=sim.l1_writebacks,
        ways_probed_sum=stats.ways_probed_sum,
        probe_events=stats.probe_events,
        writeback_accesses=stats.writeback_accesses,
        demand_accesses=stats.demand_accesses,
        demand_hits=stats.demand_hits,
    )
    if sim.dvfs is not None:
        buffers["dvfs_stall"] = sim.dvfs.stall
    return buffers


def _assert_shared(marshal, sim) -> None:
    ctx = marshal.ctx
    # A name that is not a Ctx field would only set a Python attribute.
    kernel_fields = {name for name, _ in type(ctx)._fields_}
    for field, buffer in _buffers(sim).items():
        assert field in kernel_fields, field
        assert getattr(ctx, field) == _address(buffer), field
    columns = sim.core_columns
    for core in sim.cores:
        i = core.core_id
        assert columns.trace_gaps[i] == _address(core.gaps)
        assert columns.trace_addr[i] == _address(core.addresses)
        assert columns.trace_writes[i] == _address(core.writes)
        assert columns.warm_lines[i] == _address(core.warm_lines)
        assert columns.warm_len[i] == len(core.warm_lines)
        assert columns.core_length[i] == len(core.addresses)


def _column_at(address: int, n: int):
    """The int64 column at ``address``, read the way the kernel does."""
    return (ctypes.c_int64 * n).from_address(address)


@pytest.fixture
def recorded_marshals(monkeypatch):
    """Every ``_Marshal`` a compiled run builds, in order."""
    built = []

    class Recording(compiled._Marshal):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(compiled, "_Marshal", Recording)
    return built


@pytest.mark.parametrize("policy", ["ucp", "cooperative"])
def test_a_new_context_points_at_the_simulators_buffers(policy):
    sim = _simulator("churn-2c-s000", policy)
    _assert_shared(_marshal(sim), sim)


@pytest.mark.parametrize("governor", [None, "coordinated"])
def test_resets_zero_every_buffer_in_place(governor):
    sim = _simulator("sparse-2c-s002", governor=governor)
    marshal = _marshal(sim)
    before = {field: _address(buffer) for field, buffer in _buffers(sim).items()}
    for buffer in (
        sim.l1_hits, sim.l1_misses, sim.l1_writebacks,
        sim.stats.demand_accesses, sim.stats.demand_hits,
        sim.stats.writeback_accesses, sim.stats.ways_probed_sum,
        sim.stats.probe_events,
    ):
        buffer[1] = 7
    # The warmup reset: PolicyStats.reset_counters, the L1 counters
    # and, with a governor, DvfsState.reset_window.
    sim._end_warmup()
    _assert_shared(marshal, sim)
    after = {field: _address(buffer) for field, buffer in _buffers(sim).items()}
    assert after == before
    assert sim.l1_hits.tolist() == [0, 0]
    assert sim.stats.demand_accesses.tolist() == [0, 0]


def test_a_compiled_run_keeps_every_address(recorded_marshals):
    """Across a whole run (warmup reset and phase changes included) the
    context never goes stale, and each phase change re-points its
    core's trace."""
    sim = _simulator("churn-2c-s000")
    apply_event = sim._apply_event
    moved = []

    def observe(event, when):
        before = sim.core_columns.trace_addr[event.core]
        closed = apply_event(event, when)
        if event.kind == PHASE:
            _assert_shared(recorded_marshals[-1], sim)
            moved.append(sim.core_columns.trace_addr[event.core] != before)
        return closed

    sim._apply_event = observe
    sim.run(COMPILED)
    assert sim._measuring, "the warmup reset never ran"
    assert any(moved), "no phase change swapped a trace"
    _assert_shared(recorded_marshals[-1], sim)


def test_an_arrival_is_what_the_next_span_reads(recorded_marshals):
    sim = _simulator("sparse-2c-s002")
    n = sim.config.n_cores
    apply_event = sim._apply_event
    arrivals = []

    def observe(event, when):
        closed = apply_event(event, when)
        if event.kind == ARRIVE and recorded_marshals:
            ctx = recorded_marshals[-1].ctx
            core = sim.cores[event.core]
            assert _column_at(ctx.core_active, n)[event.core] == 1
            assert _column_at(ctx.core_time, n)[event.core] == core.time
            arrivals.append(core.time)
        return closed

    sim._apply_event = observe
    sim.run(COMPILED)
    assert arrivals, "no late arrival"


def test_core_fields_are_views_of_the_kernels_memory():
    sim = _simulator("sparse-2c-s002")
    ctx = _marshal(sim).ctx
    core = sim.cores[1]
    # Python writes at a boundary; the kernel reads the same word.
    core.time = 123_456
    core.window_open = True
    assert _column_at(ctx.core_time, 2)[1] == 123_456
    assert _column_at(ctx.core_window_open, 2)[1] == 1
    # The kernel writes; Python reads it back (flags as bool).
    _column_at(ctx.core_refs_done, 2)[1] = 42
    _column_at(ctx.core_window_closed, 2)[1] = 1
    _column_at(ctx.core_active, 2)[1] = 0
    assert core.refs_done == 42
    assert core.window_closed is True
    assert core.active is False
