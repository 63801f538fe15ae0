"""Plugin policies declare their way restrictions as data.

A third-party subclass (see ``examples/custom_policy.py``) states each
core's probe and fill ways with ``_set_core_ways``, exactly as the
built-in schemes do, so it runs on the same access path and on the C
kernel.  The strongest check: a plugin whose restrictions equal Fair
Share's static partitions produces a byte-identical ``RunResult`` on
every engine.  The removed ``_probe_ways``/``_fill_ways`` hooks fail
loudly when a subclass defines them, rather than being ignored.

Third-party policies plug in through the real
:func:`~repro.partitioning.registry.register_policy` decorator — no
monkeypatching of factory internals.
"""

import pytest

from repro.engine import PYTHON, available_engines
from repro.engine.compiled import KIND_TABLED, policy_kind
from repro.orchestration.serialize import run_result_to_dict
from repro.partitioning.base import BaseSharedCachePolicy
from repro.partitioning.registry import (
    POLICY_NAMES,
    register_policy,
    unregister_policy,
)
from repro.sim.config import scaled_two_core
from repro.sim.runner import ExperimentRunner
from repro.sim.simulator import CMPSimulator
from repro.workloads.groups import group_benchmarks


class _PluginEqualShare(BaseSharedCachePolicy):
    """Fair Share written as a plugin: even way blocks per core."""

    name = "Fair Share"  # same display name so RunResults compare equal
    needs_monitors = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        share = self.geometry.ways // self.n_cores
        for core in range(self.n_cores):
            block = tuple(range(core * share, (core + 1) * share))
            self._set_core_ways(core, block, block)


@pytest.fixture
def plugin_fair_share():
    register_policy("fair_share_plugin")(_PluginEqualShare)
    yield "fair_share_plugin"
    unregister_policy("fair_share_plugin")


def _simulator(policy_name, refs_per_core=4_000):
    runner = ExperimentRunner()
    config = scaled_two_core(refs_per_core=refs_per_core)
    traces = [
        runner.trace_for(benchmark, config)
        for benchmark in group_benchmarks("G2-1")
    ]
    return CMPSimulator(config, traces, policy_name)


def test_plugin_policy_runs_on_the_kernel(plugin_fair_share):
    sim = _simulator(plugin_fair_share, refs_per_core=1_000)
    assert policy_kind(sim.policy) == KIND_TABLED
    assert sim.policy.way_allocations() == [4, 4]


def test_plugin_policy_matches_fair_share(plugin_fair_share):
    """The plugin and the built-in simulate the identical machine on
    every engine this machine has."""
    engines = available_engines()
    assert PYTHON in engines
    for engine in engines:
        expected = run_result_to_dict(_simulator("fair_share").run(engine))
        actual = run_result_to_dict(_simulator(plugin_fair_share).run(engine))
        assert actual == expected, engine


@pytest.mark.parametrize("hook", ["_probe_ways", "_fill_ways"])
def test_defining_a_removed_way_hook_raises(hook):
    with pytest.raises(TypeError, match="_set_core_ways"):
        type("HookedPolicy", (BaseSharedCachePolicy,), {hook: lambda self, core: None})


def test_policy_names_registry_matches_display_names():
    assert POLICY_NAMES["fair_share"] == "Fair Share"
