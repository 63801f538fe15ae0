"""Unit tests for the experiment runner (caching, sweeps, normalisation)."""

import pytest

from repro.experiment import Experiment, by_group_policy
from repro.orchestration import ResultStore, SweepExecutor
from repro.partitioning.registry import PolicySpec
from repro.sim.runner import ALL_POLICIES, ExperimentRunner


@pytest.fixture
def runner():
    return ExperimentRunner()


class TestTraceCache:
    def test_traces_cached_per_benchmark(self, runner, tiny_two_core):
        a = runner.trace_for("lbm", tiny_two_core)
        b = runner.trace_for("lbm", tiny_two_core)
        assert a is b

    def test_different_configs_different_traces(self, runner, tiny_two_core, tiny_four_core):
        a = runner.trace_for("lbm", tiny_two_core)
        b = runner.trace_for("lbm", tiny_four_core)
        assert a is not b


class TestAloneRuns:
    def test_alone_results_cached(self, runner, tiny_two_core):
        a = runner.run(Experiment.alone_run("lbm", system=tiny_two_core))
        b = runner.alone("lbm", tiny_two_core)  # the thin wrapper
        assert a is b
        assert a.ipc > 0
        assert a.mpki > 0
        assert a.curves

    def test_high_mpki_benchmark_measures_high(self, runner, tiny_two_core):
        # On the tiny test cache absolute MPKI shifts, but lbm
        # (streaming) must still dwarf povray (L1-resident).
        lbm = runner.alone("lbm", tiny_two_core)
        povray = runner.alone("povray", tiny_two_core)
        assert lbm.mpki > 5 * povray.mpki


class TestGroupRuns:
    def test_group_size_validated(self, runner, tiny_two_core):
        with pytest.raises(ValueError):
            runner.run(Experiment("G4-1", "unmanaged", tiny_two_core))

    def test_run_cached_returns_same_object(self, runner, tiny_two_core):
        a = runner.run(Experiment("G2-4", "unmanaged", tiny_two_core))
        b = runner.run(Experiment("G2-4", "unmanaged", tiny_two_core))
        assert a is b

    def test_weighted_speedup_positive(self, runner, tiny_two_core):
        run = runner.run(Experiment("G2-4", "fair_share", tiny_two_core))
        ws = runner.weighted_speedup_of(run, tiny_two_core)
        assert 0 < ws <= tiny_two_core.n_cores * 1.5

    def test_cpe_gets_profiles_automatically(self, runner, tiny_two_core):
        run = runner.run(Experiment("G2-4", "cpe", tiny_two_core))
        assert run.policy == "Dynamic CPE"

    def test_threshold_spec_equals_threshold_config(self, runner, tiny_two_core):
        via_spec = runner.run(
            Experiment(
                "G2-4", PolicySpec("cooperative", threshold=0.1), tiny_two_core
            )
        )
        via_config = runner.run(
            Experiment("G2-4", "cooperative", tiny_two_core.with_threshold(0.1))
        )
        assert via_spec is via_config  # the very same cached object

    def test_memory_cache_agrees_with_the_store(self, tmp_path, tiny_two_core):
        # ``threshold=0`` and ``0.0`` make equal, equally-hashed specs
        # with different task keys; the in-memory cache must not
        # answer for a key the store has never seen.
        from repro.orchestration.store import ResultStore

        store = ResultStore(tmp_path / "store")
        runner = ExperimentRunner(store=store)
        loose = Experiment("G2-4", "cooperative", tiny_two_core.with_threshold(0))
        exact = Experiment("G2-4", "cooperative", tiny_two_core.with_threshold(0.0))
        assert loose == exact and hash(loose) == hash(exact)
        assert loose.task_key() != exact.task_key()
        first = runner.run(loose)
        assert runner.probe(exact) is store.probe(exact.task_key()) is False
        assert runner.cached(exact) is None
        second = runner.run(exact)
        assert store.probe(exact.task_key())
        assert second.ipcs() == first.ipcs()


class TestSweepNormalisation:
    def test_spec_sweep_keyed_by_experiment(self, tmp_path, tiny_two_core):
        experiments = Experiment.grid(
            tiny_two_core, ["G2-4", "G2-8"], ["fair_share", "cooperative"]
        )
        store = ResultStore(tmp_path / "store")
        with SweepExecutor(store, pool="serial") as executor:
            results = executor.sweep(experiments)
        assert list(results) == experiments
        table = by_group_policy(results)
        ws = executor.runner.normalized_weighted_speedup(table, tiny_two_core)
        for group_row in ws.values():
            assert group_row["fair_share"] == pytest.approx(1.0)
            assert group_row["cooperative"] > 0

    def test_unknown_energy_kind(self, runner, tiny_two_core):
        (experiment,) = Experiment.grid(tiny_two_core, ["G2-4"], ["fair_share"])
        results = by_group_policy({experiment: runner.run(experiment)})
        with pytest.raises(ValueError):
            runner.normalized_energy(results, "thermal")

    def test_all_policies_tuple(self):
        assert ALL_POLICIES == (
            "unmanaged", "fair_share", "cpe", "ucp", "cooperative"
        )
