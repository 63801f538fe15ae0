"""The sweep executor: parallel == serial, resume skips, planning."""

import functools
import multiprocessing

import pytest

from repro import experiment as experiment_module
from repro.engine import COMPILED, PYTHON, compiled_available
from repro.experiment import Experiment, by_group_policy
from repro.orchestration import serialize
from repro.orchestration.executor import SweepExecutor, orchestrated_runner, resolve_jobs
from repro.orchestration import pools
from repro.orchestration.pools import PoolTask, SSHPool
from repro.orchestration.serialize import group_task_key
from repro.orchestration.store import ResultStore
from repro.partitioning.registry import register_policy, unregister_policy
from repro.partitioning.ucp import UCPPolicy
from repro.sim.runner import ExperimentRunner

GROUPS = ["G2-4", "G2-8"]
POLICIES = ("fair_share", "cooperative", "cpe")


def grid(config):
    return Experiment.grid(config, GROUPS, POLICIES)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestParallelMatchesSerial:
    def test_sweep_results_identical(self, store, tiny_two_core):
        serial = ExperimentRunner()
        serial_results = by_group_policy(serial.sweep(grid(tiny_two_core)))
        expected = serial.normalized_weighted_speedup(serial_results, tiny_two_core)

        executor = SweepExecutor(store, max_workers=2)
        executor.prefetch(grid(tiny_two_core))
        # Every spec is now a cache hit for the executor's runner.
        results = by_group_policy(executor.runner.sweep(grid(tiny_two_core)))
        actual = executor.runner.normalized_weighted_speedup(results, tiny_two_core)
        assert actual == expected, "parallel sweep must be bit-identical"

        energies = executor.runner.normalized_energy(results, "dynamic")
        reference = serial.normalized_energy(serial_results, "dynamic")
        assert energies == reference


class TestResume:
    def test_prefetch_reports_computed_then_cached(self, store, tiny_two_core):
        executor = SweepExecutor(store, max_workers=2)
        tasks = grid(tiny_two_core)
        computed, cached = executor.prefetch(tasks)
        assert computed > 0 and cached == 0
        computed_again, cached_again = executor.prefetch(tasks)
        assert computed_again == 0
        assert cached_again == computed

    def test_resumed_sweep_skips_completed_tasks(self, store, tiny_two_core):
        first = SweepExecutor(store, max_workers=2)
        first.prefetch(grid(tiny_two_core))

        # Kill one artifact to simulate an interrupted sweep...
        victim = group_task_key(tiny_two_core, "G2-4", "cooperative")
        store.path_for(victim).unlink()

        # ...and resume with an executor that cannot run in parallel
        # but must recompute exactly the missing task.
        resumed = SweepExecutor(store, max_workers=2)
        _alone, main_pending, _total = resumed.plan(grid(tiny_two_core))
        assert main_pending == [Experiment("G2-4", "cooperative", tiny_two_core)]
        assert resumed.prefetch(grid(tiny_two_core))[0] == 1
        assert store.probe(victim)

    def test_damaged_artifact_of_unchanged_size_reruns_on_the_pool(
        self, store, tiny_two_core, stub_transport, monkeypatch
    ):
        """Damage that keeps an artifact's byte size is a miss at
        planning, so the resume recomputes it on the pool and counts
        it, instead of taking it for cached and recomputing it inline
        at assembly."""
        specs = [
            Experiment("G2-4", policy, tiny_two_core)
            for policy in ("cooperative", "ucp")
        ]
        with SweepExecutor(store, max_workers=1, pool="serial") as seeder:
            assert seeder.prefetch(specs) == (4, 0)
        victim = next(iter(store.keys()))
        path = store.path_for(victim)
        path.write_bytes(b"x" * path.stat().st_size)

        monkeypatch.setattr(
            pools,
            "SSHPool",
            functools.partial(SSHPool, transport_factory=lambda host: stub_transport),
        )
        lines = []
        with SweepExecutor(
            store, max_workers=2, pool="ssh", hosts=["stub"], progress=lines.append
        ) as resumed:
            assert resumed.prefetch(specs) == (1, 3)
            (request,) = stub_transport.requests
            assert [task["key"] for task in request["tasks"]] == [victim]
            assert len(lines) == 1 and "ssh" in lines[0]

            import repro.sim.runner as runner_module

            def explode(*args, **kwargs):
                raise AssertionError("recomputed at assembly")

            monkeypatch.setattr(runner_module, "CMPSimulator", explode)
            for spec in specs:
                resumed.runner.run(spec)
        assert store.probe(victim)

    def test_pending_alone_tasks_deduplicate(self, store, tiny_two_core):
        executor = SweepExecutor(store, max_workers=1)
        # G2-4 (lbm, povray) and G2-8 (lbm, soplex) share lbm.
        tasks = Experiment.grid(tiny_two_core, GROUPS, ["cooperative"])
        alone_pending, _main, _total = executor.plan(tasks)
        names = sorted(e.workload.name for e in alone_pending)
        assert names == ["lbm", "povray", "soplex"]


class TestPlanningCost:
    def test_each_config_and_task_key_is_derived_once(
        self, store, tiny_two_core, tiny_four_core, monkeypatch
    ):
        # A figs-shaped sweep: a 2-core and a 4-core grid whose groups
        # share alone dependencies, planned then packed for the pool.
        serialize._config_text.cache_clear()
        experiment_module._interned_alone.cache_clear()
        encoded, keyed = [], []
        fingerprint, digest = serialize.config_fingerprint, serialize.task_key

        def counting_fingerprint(config):
            encoded.append(config)
            return fingerprint(config)

        def counting_digest(*args, **kwargs):
            keyed.append(args[0])
            return digest(*args, **kwargs)

        monkeypatch.setattr(serialize, "config_fingerprint", counting_fingerprint)
        monkeypatch.setattr(serialize, "task_key", counting_digest)
        tasks = grid(tiny_two_core) + Experiment.grid(
            tiny_four_core, ["G4-1", "G4-2"], POLICIES
        )
        executor = SweepExecutor(store, max_workers=2)
        alone, main, total = executor.plan(tasks)
        assert len(alone) + len(main) == total
        distinct_configs = {
            tiny_two_core, tiny_four_core, tiny_two_core.alone(), tiny_four_core.alone()
        }
        assert len(encoded) == len(distinct_configs) == 4
        assert len(keyed) == total
        packed = [PoolTask.from_experiment(e) for e in (*alone, *main)]
        assert {task.key for task in packed} == {e.task_key() for e in (*alone, *main)}
        assert (len(encoded), len(keyed)) == (4, total), "packing re-derived keys"


class TestRunnerIntegration:
    def test_runner_sweep_uses_pool_when_configured(self, store, tiny_two_core):
        parallel = ExperimentRunner(store=store, max_workers=2)
        results = by_group_policy(parallel.sweep(grid(tiny_two_core)))

        serial = ExperimentRunner()
        expected = by_group_policy(serial.sweep(grid(tiny_two_core)))
        for group in GROUPS:
            for policy in POLICIES:
                assert results[group][policy].ipcs() == expected[group][policy].ipcs()

    def test_runner_sweeps_release_their_workers(
        self, store, tiny_two_core, monkeypatch
    ):
        monkeypatch.delenv("REPRO_POOL", raising=False)
        before = set(multiprocessing.active_children())
        runner = orchestrated_runner(store.root, max_workers=2)
        for policy in ("fair_share", "cpe"):
            runner.sweep(Experiment.grid(tiny_two_core, GROUPS, [policy]))
        assert set(multiprocessing.active_children()) - before == set()

    def test_executor_takes_the_runner_pin(self, store, tiny_two_core):
        pinned = ExperimentRunner(store=store, engine=PYTHON)
        assert SweepExecutor(store, runner=pinned).engine == PYTHON
        assert SweepExecutor(store, runner=pinned, engine=PYTHON).engine == PYTHON
        assert SweepExecutor(store, engine=PYTHON).runner.engine == PYTHON
        # an explicit engine that disagrees would split inline and
        # pooled tasks across two engines
        unpinned = ExperimentRunner(store=store)
        with pytest.raises(ValueError, match="disagrees with the runner"):
            SweepExecutor(store, runner=unpinned, engine=PYTHON)
        if compiled_available():
            with pytest.raises(ValueError, match="disagrees with the runner"):
                SweepExecutor(store, runner=pinned, engine=COMPILED)

    def test_prefetch_noop_without_store(self, tiny_two_core):
        runner = ExperimentRunner()
        assert runner.prefetch([Experiment("G2-4", "ucp", tiny_two_core)]) == (0, 0)

    def test_progress_callback_sees_every_task(self, store, tiny_two_core):
        lines = []
        executor = SweepExecutor(store, max_workers=2, progress=lines.append)
        executor.prefetch([Experiment("G2-4", "fair_share", tiny_two_core)])
        assert any("alone" in line for line in lines)
        assert any("group G2-4 fair_share" in line for line in lines)


class TestInlineSpecs:
    def test_main_module_policy_runs_inline_after_the_pool(
        self, store, tiny_two_core
    ):
        """A worker cannot rebuild a class registered in ``__main__``,
        so its specs run in the parent once the pool has drained."""

        class MainUCP(UCPPolicy):
            pass

        MainUCP.__module__ = "__main__"
        register_policy("main_ucp")(MainUCP)
        lines: list[str] = []
        try:
            specs = [
                Experiment(group, policy, tiny_two_core)
                for group in GROUPS
                for policy in ("ucp", "main_ucp")
            ]
            with SweepExecutor(
                store, max_workers=2, pool="warm", progress=lines.append
            ) as executor:
                assert executor.prefetch(specs) == (7, 0)
            results = executor.runner.sweep(specs)
        finally:
            unregister_policy("main_ucp")
        inline = [line for line in lines if line.endswith(", serial)")]
        assert lines[-2:] == inline
        assert all("main_ucp" in line for line in inline)
        assert all(line.endswith(", warm)") for line in lines[:-2])
        for ucp, main_ucp in zip(specs[::2], specs[1::2]):
            assert results[ucp].ipcs() == results[main_ucp].ipcs()


class TestKnobs:
    def test_resolve_jobs_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(5) == 5
        assert resolve_jobs(None) == 3
        monkeypatch.delenv("REPRO_JOBS")
        assert resolve_jobs(None) >= 1

    def test_resolve_jobs_rejects_garbage_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "auto")
        with pytest.raises(ValueError, match=r"\$REPRO_JOBS must be an integer"):
            resolve_jobs(None)

    def test_orchestrated_runner_wiring(self, tmp_path):
        runner = orchestrated_runner(tmp_path / "s", max_workers=2)
        assert runner.store is not None
        assert runner.store.root == tmp_path / "s"
        assert runner.max_workers == 2
