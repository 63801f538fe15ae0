"""The kernel's way-wide sweeps against their Python references.

``SetAssociativeCache.invalidate_way`` (gating a way, CPE's flush) and
``SetAssociativeCache.flush_ways`` (a forced takeover completion) visit
every set.  A compiled run binds the kernel's copies of both
(:class:`repro.engine.compiled.KernelSweeps`) into its LLC; the Python
loops stay the reference.  These tests check:

* on random cache states (2 and 4 cores; empty, full and mixed-dirty;
  with and without the ``mapped`` column), a sequence of sweeps returns
  the same addresses and leaves every column as the Python loops do;
* a compiled run sends every sweep to the kernel, including the
  gating of slots idle from cycle 0 (done when the run begins, after
  the kernel context exists), and a python-engine run never calls one.
"""

import random

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.set_associative import SetAssociativeCache
from repro.engine import COMPILED, PYTHON, available_engines
from repro.engine.build import load_kernel
from repro.engine.compiled import KernelSweeps
from repro.experiment import Experiment
from repro.orchestration.serialize import run_result_to_dict
from repro.scenarios.corpus import corpus_scenario
from repro.scenarios.generate import corpus_config
from repro.sim.runner import ExperimentRunner

pytestmark = pytest.mark.skipif(
    COMPILED not in available_engines(), reason="no C toolchain"
)

GEOMETRY = CacheGeometry(64 * 8 * 64, 64, 8)  # 64 sets x 8 ways
SETS = GEOMETRY.num_sets
WAYS = GEOMETRY.ways

_COLUMNS = ("tags", "owner", "dirty", "stamp", "mapped", "clock", "valid",
            "core_occupancy")


def _random_cache(seed, n_cores, fill, track_copies):
    """A cache driven through random installs.

    Tags come from a small pool per set, so re-installs leave stale
    duplicates that ``mapped`` no longer resolves to.
    """
    rng = random.Random(seed)
    cache = SetAssociativeCache(GEOMETRY, track_copies=track_copies)
    cache.ensure_cores(n_cores)
    if fill == "empty":
        lines = []
    elif fill == "full":
        lines = [(s, w) for s in range(SETS) for w in range(WAYS)]
        rng.shuffle(lines)
        lines += [(rng.randrange(SETS), rng.randrange(WAYS)) for _ in range(SETS)]
    else:
        lines = [(rng.randrange(SETS), rng.randrange(WAYS))
                 for _ in range(SETS * WAYS // 2)]
    for set_index, way in lines:
        cache.install(set_index, way, rng.randrange(2 * WAYS),
                      rng.randrange(n_cores), rng.random() < 0.4)
    return cache


def _columns(cache) -> dict:
    return {name: None if getattr(cache, name) is None
            else getattr(cache, name).tolist() for name in _COLUMNS}


@pytest.mark.parametrize("track_copies", [True, False], ids=["mapped", "no-mapped"])
@pytest.mark.parametrize("fill", ["empty", "full", "mixed"])
@pytest.mark.parametrize("n_cores", [2, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweeps_match_the_python_loops(seed, n_cores, fill, track_copies):
    reference = _random_cache(seed, n_cores, fill, track_copies)
    kernel = _random_cache(seed, n_cores, fill, track_copies)
    kernel.kernel_sweeps = KernelSweeps(load_kernel(), kernel)
    assert _columns(kernel) == _columns(reference)

    rng = random.Random(100 + seed)
    flushed = 0
    for _ in range(8):
        if rng.random() < 0.5:
            way = rng.randrange(WAYS)
            expected = reference.invalidate_way(way)
            assert kernel.invalidate_way(way) == expected
        else:
            ways = tuple(rng.sample(range(WAYS), rng.randint(1, WAYS)))
            expected = reference.flush_ways(ways)
            assert kernel.flush_ways(ways) == expected
        assert _columns(kernel) == _columns(reference)
        flushed += len(expected)
    assert (flushed == 0) == (fill == "empty")


def test_flush_order_is_set_major_in_the_given_way_order():
    reference = _random_cache(7, 2, "full", True)
    kernel = _random_cache(7, 2, "full", True)
    kernel.kernel_sweeps = KernelSweeps(load_kernel(), kernel)
    ways = (5, 1, 3)
    expected = []
    for set_index in range(SETS):
        for way in ways:
            line = set_index * WAYS + way
            if reference.dirty[line]:
                expected.append(GEOMETRY.rebuild_line_address(
                    reference.tags[line], set_index))
    assert expected
    assert reference.flush_ways(ways) == expected
    assert kernel.flush_ways(ways) == expected


def test_a_way_outside_the_cache_is_refused_before_the_kernel_runs():
    cache = _random_cache(3, 2, "full", True)
    cache.kernel_sweeps = KernelSweeps(load_kernel(), cache)
    before = _columns(cache)
    for call, arg in ((cache.invalidate_way, WAYS), (cache.invalidate_way, -1),
                      (cache.flush_ways, (0, WAYS)), (cache.flush_ways, (-1,))):
        with pytest.raises(IndexError):
            call(arg)
    assert _columns(cache) == before


# ----------------------------------------------------------------------
# Which engine runs the sweeps
# ----------------------------------------------------------------------
#: a cooperative run that gates ways and forces takeovers, and a CPE
#: run that flushes reassigned ways
_CASES = [("storm-2c-s000", "cooperative"), ("consolidation-4c-s000", "cpe")]


@pytest.fixture
def sweep_calls(monkeypatch):
    """Log each sweep the cache is asked for (with whether a kernel
    was bound) and each one the kernel ran."""
    calls = {"cache": [], "kernel": []}

    def logging(owner, name, entry):
        original = getattr(owner, name)

        def wrapper(self, *args):
            calls[entry].append(
                (name, self.kernel_sweeps is not None) if entry == "cache"
                else name
            )
            return original(self, *args)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("invalidate_way", "flush_ways"):
        logging(SetAssociativeCache, name, "cache")
        logging(KernelSweeps, name, "kernel")
    return calls


def _run(name, policy, engine) -> dict:
    entry = corpus_scenario(name)
    result = ExperimentRunner(engine=engine).run(Experiment.for_scenario(
        entry.scenario, system=corpus_config(entry.n_cores), policy=policy,
    ))
    return run_result_to_dict(result)


@pytest.mark.parametrize("case", _CASES, ids=[p for _, p in _CASES])
def test_a_compiled_run_sweeps_in_the_kernel(case, sweep_calls):
    python = _run(*case, PYTHON)
    sweep_calls["cache"].clear()
    compiled = _run(*case, COMPILED)
    assert compiled == python
    assert all(bound for _, bound in sweep_calls["cache"])
    assert sweep_calls["kernel"] == [name for name, _ in sweep_calls["cache"]]
    expected = {"invalidate_way", "flush_ways"} if case[1] == "cooperative" \
        else {"invalidate_way"}
    assert set(sweep_calls["kernel"]) == expected


@pytest.mark.parametrize("case", _CASES, ids=[p for _, p in _CASES])
def test_a_python_run_never_calls_a_kernel_sweep(case, sweep_calls):
    _run(*case, PYTHON)
    assert sweep_calls["cache"]
    assert not any(bound for _, bound in sweep_calls["cache"])
    assert sweep_calls["kernel"] == []


def test_slots_idle_from_cycle_0_are_gated_in_the_kernel(sweep_calls):
    name = "sparse-4c-s000"
    scenario = corpus_scenario(name).scenario
    idle = [slot for slot in range(4) if scenario.arrival_of(slot) is None
            or scenario.arrival_of(slot).at_cycle > 0]
    assert idle == [1, 2, 3]
    _run(name, "cooperative", COMPILED)
    calls = sweep_calls["cache"]
    # gating the idle slots' ways is the run's first sweep
    assert calls[0] == ("invalidate_way", True)
    assert ("invalidate_way", False) not in calls
