"""The pool layer: backend equivalence, failure surfacing, backend
selection, and concurrent writers racing on one store."""

import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.engine import COMPILED, PYTHON, compiled_available
from repro.experiment import Experiment
from repro.obs import log
from repro.obs.trace import NULL_RECORDER, TraceRecorder, set_recorder
from repro.orchestration.executor import SweepExecutor
from repro.orchestration.pools import (
    PoolTask,
    SweepTaskError,
    WarmPool,
    _warm_worker,
    resolve_pool_name,
)
from repro.orchestration.store import ResultStore

GROUPS = ["G2-4", "G2-8"]
POLICIES = ("ucp", "cooperative")


def _specs(config):
    return [Experiment(g, p, config) for g in GROUPS for p in POLICIES]


def _sweep_into(root, config, pool, **kwargs):
    store = ResultStore(root)
    with SweepExecutor(store, max_workers=2, pool=pool, **kwargs) as executor:
        computed, cached = executor.prefetch(_specs(config))
    return store, computed, cached


class TestBackendEquivalence:
    """The warm pool must persist artifacts bit-identical to serial's."""

    def test_warm_matches_serial(self, tmp_path, tiny_two_core):
        reference, computed, _ = _sweep_into(
            tmp_path / "serial", tiny_two_core, "serial"
        )
        assert computed > 0
        expected = {key: reference.get(key) for key in reference.keys()}

        store, _, _ = _sweep_into(tmp_path / "warm", tiny_two_core, "warm")
        actual = {key: store.get(key) for key in store.keys()}
        assert actual == expected, "warm artifacts diverge from serial"


class TestEnginePin:
    """The engine pin reaches every backend as a value: each runner is
    built with it, and no process's ``$REPRO_ENGINE`` is written."""

    @pytest.mark.parametrize("engine", [PYTHON, COMPILED])
    @pytest.mark.parametrize("pool", ["serial", "warm"])
    def test_every_task_runs_the_pinned_engine(
        self, pool, engine, tmp_path, tiny_two_core, monkeypatch
    ):
        if engine == COMPILED and not compiled_available():
            pytest.skip("the compiled engine needs a C toolchain")
        if compiled_available():
            # a pin that gets lost would fall back to the other engine
            other = PYTHON if engine == COMPILED else COMPILED
            monkeypatch.setenv("REPRO_ENGINE", other)
        else:
            monkeypatch.delenv("REPRO_ENGINE", raising=False)
        spec = Experiment("G2-4", "ucp", tiny_two_core)
        store = ResultStore(tmp_path / "store")
        rec = TraceRecorder()
        previous = set_recorder(rec)
        try:
            with SweepExecutor(
                store, max_workers=2, engine=engine, pool=pool
            ) as executor:
                assert executor.prefetch([spec]) == (3, 0)
        finally:
            set_recorder(previous)
        spans = _kernel_spans_per_task(rec.events())
        keys = [d.task_key() for d in spec.alone_dependencies()]
        assert sorted(spans) == sorted([*keys, spec.task_key()])
        if engine == PYTHON:
            assert set(spans.values()) == {0}
        else:
            assert min(spans.values()) >= 1


def _kernel_spans_per_task(events):
    """Kernel-span events inside each task span (same process, within
    its time range), keyed by the task's store key."""
    tasks = [event for event in events if event.get("cat") == "task"]
    return {
        task["args"]["key"]: sum(
            event["name"] == "kernel_span"
            and event["pid"] == task["pid"]
            and task["ts"] <= event["ts"] <= task["ts"] + task["dur"]
            for event in events
        )
        for task in tasks
    }


class _ListQueue(list):
    """Stands in for the task queue: records each batch put on it."""

    put = list.append


class TestWarmPoolQueue:
    """The pool's bookkeeping, with the workers and queue stubbed out."""

    @staticmethod
    def _pool(tmp_path, max_workers):
        pool = WarmPool(ResultStore(tmp_path / "store"), max_workers=max_workers)
        pool.start = lambda: None
        pool._tasks = _ListQueue()
        return pool

    @pytest.mark.parametrize(
        "count, workers, sizes",
        [
            (3, 2, [1, 1, 1]),
            (20, 2, [5, 5, 5, 5]),
            (40, 1, [8, 8, 8, 8, 8]),
        ],
        ids=["fewer-than-workers", "balanced", "capped-at-max-batch"],
    )
    def test_submit_many_batches_the_tasks(self, tmp_path, count, workers, sizes):
        """Each batch holds at most ``max_batch`` tasks, and a small
        sweep still gives every worker several batches."""
        pool = self._pool(tmp_path, workers)
        tasks = [
            PoolTask(key=f"{i:064d}", label=str(i), spec={}, policy_module="m")
            for i in range(count)
        ]
        assert pool.submit_many(iter(tasks)) == count
        assert [len(batch) for batch in pool._tasks] == sizes
        assert [task for batch in pool._tasks for task in batch] == tasks
        assert pool.outstanding == count

    def test_empty_submission_queues_nothing(self, tmp_path):
        pool = self._pool(tmp_path, 2)
        assert pool.submit_many([]) == 0
        assert pool._tasks == [] and pool.outstanding == 0

    def test_wait_one_with_nothing_outstanding_is_an_error(self, tmp_path):
        pool = WarmPool(ResultStore(tmp_path / "store"), max_workers=1)
        with pytest.raises(RuntimeError, match="no outstanding tasks"):
            pool.wait_one()

    def test_close_before_start_is_a_no_op(self, tmp_path):
        pool = WarmPool(ResultStore(tmp_path / "store"), max_workers=0)
        assert pool.max_workers == 1
        pool.close()
        pool.close()
        assert pool.outstanding == 0


class _ListTasks:
    """Stands in for the task queue a worker reads: yields the given
    batches, then the ``None`` sentinel."""

    def __init__(self, *batches):
        self._items = [*batches, None]

    def get(self):
        return self._items.pop(0)


class TestWarmWorker:
    """The worker body driven in this process over list-backed queues:
    no process starts."""

    @pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
    def test_a_record_carries_the_task_events_only_when_tracing(
        self, tmp_path, tiny_two_core, trace
    ):
        spec = Experiment.alone_run("lbm", system=tiny_two_core)
        results = _ListQueue()
        previous = set_recorder(NULL_RECORDER)
        was_quiet = log.quiet()
        try:
            _warm_worker(
                str(tmp_path / "store"), PYTHON, trace, was_quiet,
                _ListTasks([PoolTask.from_experiment(spec)]), results,
            )
        finally:
            set_recorder(previous)
        (record,) = results
        assert record["error"] is None and record["label"] == spec.label
        assert "metrics" not in record
        if not trace:
            assert "events" not in record
            return
        tasks = [event for event in record["events"] if event["cat"] == "task"]
        assert [task["name"] for task in tasks] == [spec.label]
        assert tasks[0]["args"]["key"] == spec.task_key()
        assert "trace_start" not in {event["name"] for event in record["events"]}


class TestPoolTask:
    def test_from_experiment_names_the_registering_modules(self, tiny_two_core):
        """A task carries its key, its rebuildable spec and the modules
        whose import registers its policy and governor classes."""
        experiment = Experiment("G2-4", "cooperative", tiny_two_core)
        task = PoolTask.from_experiment(experiment)
        assert (task.key, task.label) == (experiment.task_key(), experiment.label)
        assert Experiment.from_dict(task.spec) == experiment
        assert task.policy_module == "repro.core.policy"
        assert task.governor_module is None
        governed = experiment.with_governor("coordinated")
        assert PoolTask.from_experiment(governed).governor_module == (
            "repro.dvfs.governors"
        )


class TestErrorSurfacing:
    def test_worker_failure_names_the_task(self, tmp_path, tiny_two_core):
        experiment = Experiment("G2-4", "cooperative", tiny_two_core)
        good = PoolTask.from_experiment(experiment)
        bad = PoolTask(
            key=good.key,
            label=good.label,
            spec={**good.spec, "workload": {"kind": "group", "name": "G2-999"}},
            policy_module=good.policy_module,
        )
        pool = WarmPool(ResultStore(tmp_path / "store"), max_workers=1)
        pool.start()
        try:
            pool.submit_many([bad])
            result = pool.wait_one()
        finally:
            pool.close()
        assert result.error is not None
        assert result.key == good.key
        # the worker survives the failure and still runs later tasks
        # (close() above proves the sentinel round-trip worked)

    def test_sweep_task_error_message(self):
        error = SweepTaskError("a" * 64, "group G2-4 ucp", "warm", "KeyError: x")
        assert "group G2-4 ucp" in str(error)
        assert "a" * 12 in str(error)
        assert "warm" in str(error)
        assert error.backend == "warm"

    def test_executor_raises_sweep_task_error(self, tmp_path, tiny_two_core):
        store = ResultStore(tmp_path / "store")
        executor = SweepExecutor(store, max_workers=2, pool="warm")
        # A zero-refs config passes spec validation and fails only
        # when the worker generates its trace — the worker-failure
        # path the executor must translate into a SweepTaskError.
        broken = Experiment(
            "G2-4",
            "cooperative",
            dataclasses.replace(tiny_two_core, refs_per_core=0),
        )
        try:
            with pytest.raises(SweepTaskError) as caught:
                executor.prefetch([broken])
        finally:
            executor.close()
        assert caught.value.backend == "warm"
        assert caught.value.error.startswith("ValueError")
        assert len(caught.value.key) == 64

    def test_dead_warm_worker_raises_instead_of_hanging(
        self, tmp_path, tiny_two_core, monkeypatch
    ):
        """A worker that dies mid-task never reports its task; the
        pool must name the death instead of waiting forever."""
        (tmp_path / "repro_die_on_import.py").write_text("import os\nos._exit(1)\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        good = PoolTask.from_experiment(
            Experiment.alone_run("lbm", system=tiny_two_core)
        )
        doomed = dataclasses.replace(
            good, key="d" * 64, label="doomed", policy_module="repro_die_on_import"
        )
        pool = WarmPool(ResultStore(tmp_path / "store"), max_workers=2)
        raised: list[SweepTaskError] = []

        def drain():
            try:
                while pool.outstanding:
                    pool.wait_one()
            except SweepTaskError as error:
                raised.append(error)

        pool.start()
        try:
            pool.submit_many([doomed, good])
            drainer = threading.Thread(target=drain, daemon=True)
            drainer.start()
            drainer.join(timeout=20)
            assert not drainer.is_alive(), "wait_one() hung on a dead worker"
        finally:
            pool.close()
        assert len(raised) == 1
        assert raised[0].backend == "warm"
        assert "exited with code 1" in str(raised[0])
        assert "--pool serial" in str(raised[0])


class TestSelection:
    def test_explicit_name_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL", "serial")
        assert resolve_pool_name("warm") == "warm"
        assert resolve_pool_name(None) == "serial"

    def test_default_is_warm(self, monkeypatch):
        monkeypatch.delenv("REPRO_POOL", raising=False)
        assert resolve_pool_name(None) == "warm"

    @pytest.mark.parametrize(
        "explicit, env, expected",
        [(" WARM ", None, "warm"), (None, " Serial ", "serial"), (None, "  ", "warm")],
        ids=["explicit-padded", "env-padded", "blank-env"],
    )
    def test_names_are_trimmed_and_case_folded(
        self, monkeypatch, explicit, env, expected
    ):
        if env is None:
            monkeypatch.delenv("REPRO_POOL", raising=False)
        else:
            monkeypatch.setenv("REPRO_POOL", env)
        assert resolve_pool_name(explicit) == expected

    def test_executor_rejects_an_unknown_pool_before_starting_one(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ValueError, match="unknown pool 'ssh'"):
            SweepExecutor(store, max_workers=2, pool="ssh")
        with SweepExecutor(store, max_workers=2, pool="serial") as executor:
            assert executor.pool_name == "serial"
            assert executor._pool is None

    def test_unknown_name_is_an_error(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown pool"):
            resolve_pool_name("fleet")
        with pytest.raises(ValueError, match="unknown pool 'spawn'") as caught:
            resolve_pool_name("spawn")
        assert str(caught.value).endswith("warm, serial")
        monkeypatch.setenv("REPRO_POOL", "spawn")
        with pytest.raises(ValueError, match="unknown pool"):
            resolve_pool_name(None)
        message = "unknown pool 'ssh'; expected one of warm, serial"
        with pytest.raises(ValueError) as caught:
            resolve_pool_name("ssh")
        assert str(caught.value) == message
        monkeypatch.setenv("REPRO_POOL", "ssh")
        with pytest.raises(ValueError) as caught:
            resolve_pool_name(None)
        assert str(caught.value) == message


class TestConcurrentWriters:
    def test_racing_processes_converge(self, tmp_path):
        """Several processes hammering ``put_many`` on one store must
        leave every artifact readable, every key probeable and no temp
        file behind."""
        root = tmp_path / "store"
        src = str(Path(repro.__file__).resolve().parent.parent)
        script = (
            "import sys\n"
            "from repro.orchestration.store import ResultStore\n"
            "worker = int(sys.argv[2])\n"
            "rows = [\n"
            "    (f'ab{worker:02d}{i:060d}', {'worker': worker, 'i': i}, 'group', {})\n"
            "    for i in range(30)\n"
            "]\n"
            "store = ResultStore(sys.argv[1])\n"
            "for row in rows:\n"
            "    store.put_many([row])\n"
        )
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(root), str(index)],
                env={**os.environ, "PYTHONPATH": src},
            )
            for index in range(4)
        ]
        assert [worker.wait() for worker in workers] == [0, 0, 0, 0]

        store = ResultStore(root)
        keys = set(store.keys())
        assert len(keys) == 120
        assert store.count() == 120
        for worker in range(4):
            for i in range(30):
                key = f"ab{worker:02d}{i:060d}"
                assert store.probe(key), key
                assert store.get(key) == {"worker": worker, "i": i}
        assert sorted(os.listdir(root)) == sorted(f"{key}.json" for key in keys)
