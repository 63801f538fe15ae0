"""The pool layer: backend equivalence, the wire protocol, failure
surfacing, and concurrent writers racing on one store."""

import dataclasses
import functools
import json
import os
import subprocess
import sys
import threading
from io import BytesIO
from pathlib import Path

import pytest

import repro
from repro.engine import COMPILED, PYTHON, compiled_available
from repro.experiment import Experiment
from repro.obs.trace import TraceRecorder, set_recorder, trace_key
from repro.orchestration import pools
from repro.orchestration.executor import SweepExecutor
from repro.orchestration.pools import (
    WIRE_SCHEMA,
    LocalTransport,
    PoolTask,
    SSHPool,
    SSHTransport,
    SweepTaskError,
    WarmPool,
    remote_main,
    resolve_pool,
    resolve_pool_name,
    transport_for,
)
from repro.orchestration.store import ResultStore
from repro.sim.runner import ExperimentRunner

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
    """Every backend must persist bit-identical artifacts."""

    def test_warm_spawn_ssh_match_serial(self, tmp_path, tiny_two_core):
        reference, computed, _ = _sweep_into(
            tmp_path / "serial", tiny_two_core, "serial"
        )
        assert computed > 0
        expected = {key: reference.get(key) for key in reference.keys()}

        for pool, kwargs in [("warm", {}), ("ssh", {"hosts": ["local"]})]:
            store, _, _ = _sweep_into(
                tmp_path / pool, tiny_two_core, pool, **kwargs
            )
            actual = {key: store.get(key) for key in store.keys()}
            assert actual == expected, f"{pool} artifacts diverge from serial"


class TestEnginePin:
    """The engine pin reaches every backend as a value: each runner is
    built with it, and no process's ``$REPRO_ENGINE`` is written."""

    @pytest.mark.parametrize("engine", [PYTHON, COMPILED])
    @pytest.mark.parametrize("pool", ["serial", "warm", "ssh"])
    def test_every_task_runs_the_pinned_engine(
        self, pool, engine, tmp_path, tiny_two_core, monkeypatch, stub_transport
    ):
        if engine == COMPILED and not compiled_available():
            pytest.skip("the compiled engine needs a C toolchain")
        if compiled_available():
            # a pin that gets lost would fall back to the other engine
            other = PYTHON if engine == COMPILED else COMPILED
            monkeypatch.setenv("REPRO_ENGINE", other)
        else:
            monkeypatch.delenv("REPRO_ENGINE", raising=False)
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setattr(
            pools,
            "SSHPool",
            functools.partial(
                SSHPool, transport_factory=lambda host: stub_transport
            ),
        )
        spec = Experiment("G2-4", "ucp", tiny_two_core)
        store = ResultStore(tmp_path / "store")
        previous = set_recorder(TraceRecorder())
        try:
            with SweepExecutor(
                store,
                max_workers=2,
                engine=engine,
                pool=pool,
                hosts=["stub"] if pool == "ssh" else None,
            ) as executor:
                assert executor.prefetch([spec]) == (3, 0)
        finally:
            set_recorder(previous)
        keys = [d.task_key() for d in spec.alone_dependencies()]
        keys.append(spec.task_key())
        spans = {}
        for key in keys:
            payload = store.get(trace_key(key))
            assert payload is not None, f"no trace artifact for {key[:12]}"
            spans[key] = sum(
                event["name"] == "kernel_span" for event in payload["events"]
            )
        if engine == PYTHON:
            assert set(spans.values()) == {0}
        else:
            assert min(spans.values()) >= 1

    def test_remote_main_leaves_the_environment_alone(
        self, tmp_path, tiny_two_core, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ENGINE", "auto")
        task = PoolTask.from_experiment(
            Experiment.alone_run("lbm", system=tiny_two_core)
        )
        request = json.dumps(
            {"schema": WIRE_SCHEMA, "engine": PYTHON, "tasks": [task.to_dict()]}
        ).encode("utf-8")
        out = BytesIO()
        assert remote_main(BytesIO(request), out) == 0
        assert [r["error"] for r in json.loads(out.getvalue())["results"]] == [None]
        assert os.environ.get("REPRO_ENGINE") == "auto"


class TestPoolTask:
    def test_wire_round_trip(self, tiny_two_core):
        experiment = Experiment("G2-4", "cooperative", tiny_two_core)
        task = PoolTask.from_experiment(experiment)
        clone = PoolTask.from_dict(json.loads(json.dumps(task.to_dict())))
        assert clone == task
        assert clone.key == experiment.task_key()
        # Group tasks carry their alone dependencies (the ssh pool
        # ships those artifacts alongside the spec).
        assert len(clone.dependencies) == 2
        assert Experiment.from_dict(clone.spec) == experiment

    def test_alone_task_has_no_dependencies(self, tiny_two_core):
        alone = Experiment("G2-4", "cooperative", tiny_two_core)
        dep = alone.alone_dependencies()[0]
        assert PoolTask.from_experiment(dep).dependencies == ()


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
        with pool:
            pool.submit(bad)
            result = pool.wait_one()
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
        # when the worker generates its trace — the remote-failure
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

    @pytest.mark.parametrize("ending", ["eof", "half-response", "broken-pipe"])
    def test_dropped_ssh_transport_names_the_task(
        self, ending, tmp_path, tiny_two_core, stub_transport, monkeypatch
    ):
        """An ssh transport that ends mid-task — EOF, half a reply, a
        broken pipe — fails the sweep with a SweepTaskError naming the
        task, and nothing reaches the local store."""

        class DroppedTransport:
            def run(self, request: bytes) -> bytes:
                if ending == "broken-pipe":
                    raise BrokenPipeError(32, "Broken pipe")
                reply = stub_transport.run(request)  # the remote did the work
                return b"" if ending == "eof" else reply[: len(reply) // 2]

        monkeypatch.setattr(
            pools,
            "SSHPool",
            functools.partial(SSHPool, transport_factory=lambda host: DroppedTransport()),
        )
        spec = Experiment.alone_run("lbm", system=tiny_two_core)
        store = ResultStore(tmp_path / "store")
        with SweepExecutor(store, max_workers=2, pool="ssh", hosts=["stub"]) as executor:
            with pytest.raises(SweepTaskError) as caught:
                executor.prefetch([spec])
        error = caught.value
        assert (error.key, error.label, error.backend) == (
            spec.task_key(), spec.label, "ssh"
        )
        assert spec.label in str(error) and "host stub" in error.error
        assert not store.root.exists() or os.listdir(store.root) == []

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


class TestRemoteProtocol:
    def _request(self, tasks, artifacts=()):
        return json.dumps(
            {
                "schema": WIRE_SCHEMA,
                "engine": None,
                "tasks": [task.to_dict() for task in tasks],
                "artifacts": list(artifacts),
            }
        ).encode("utf-8")

    def test_remote_main_round_trip(self, tmp_path, tiny_two_core):
        # Compute the alone dependencies locally; the group task ships
        # with those artifacts and the remote side must not recompute
        # them (its scratch store is seeded before the runner starts).
        store = ResultStore(tmp_path / "store")
        runner = ExperimentRunner(store=store)
        experiment = Experiment("G2-4", "ucp", tiny_two_core)
        for dependency in experiment.alone_dependencies():
            runner.run(dependency)
        artifacts = [
            store.get_envelope(key)
            for key in [d.task_key() for d in experiment.alone_dependencies()]
        ]
        task = PoolTask.from_experiment(experiment)

        out = BytesIO()
        assert remote_main(BytesIO(self._request([task], artifacts)), out) == 0
        response = json.loads(out.getvalue())
        assert response["schema"] == WIRE_SCHEMA
        assert [r["error"] for r in response["results"]] == [None]
        # the response carries the computed group artifact only — the
        # shipped dependencies were inputs, not results
        assert [e["key"] for e in response["artifacts"]] == [task.key]

        # and the artifact is exactly what a local runner produces
        local = ExperimentRunner(store=ResultStore(tmp_path / "local"))
        expected = local.run(experiment)
        envelope = response["artifacts"][0]
        clone = ResultStore(tmp_path / "clone")
        clone.put_many(
            [(envelope["key"], envelope["payload"], envelope["kind"], {})]
        )
        fetched = ExperimentRunner(store=clone).run(experiment)
        assert fetched.ipcs() == expected.ipcs()

    def test_remote_main_rejects_wrong_schema(self):
        request = json.dumps({"schema": WIRE_SCHEMA + 1, "tasks": []})
        with pytest.raises(SystemExit):
            remote_main(BytesIO(request.encode("utf-8")), BytesIO())

    def test_ssh_pool_over_stub_transport(
        self, tmp_path, tiny_two_core, stub_transport
    ):
        """The full SSHPool machinery — feeder threads, batching,
        dependency shipping, artifact sync — with the transport
        replaced by an in-process stub running the remote protocol."""
        store = ResultStore(tmp_path / "store")
        runner = ExperimentRunner(store=store)
        specs = [Experiment(g, "ucp", tiny_two_core) for g in GROUPS]
        for spec in specs:
            for dependency in spec.alone_dependencies():
                runner.run(dependency)

        pool = SSHPool(
            store,
            hosts=["stub-a", "stub-b"],
            transport_factory=lambda host: stub_transport,
        )
        with pool:
            submitted = pool.submit_many(
                PoolTask.from_experiment(spec) for spec in specs
            )
            results = [pool.wait_one() for _ in range(submitted)]
        assert [r.error for r in results] == [None] * len(specs)
        # artifacts were synced back into the local store
        for spec in specs:
            assert store.probe(spec.task_key())

    def test_transport_selection(self):
        assert isinstance(transport_for("local"), LocalTransport)
        remote = transport_for("worker@farm-03")
        assert isinstance(remote, SSHTransport)
        assert remote.host == "worker@farm-03"


class TestSelection:
    def test_explicit_name_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL", "serial")
        assert resolve_pool_name("warm") == ("warm", ())
        assert resolve_pool_name(None)[0] == "serial"

    def test_hosts_imply_ssh(self, monkeypatch):
        monkeypatch.delenv("REPRO_POOL", raising=False)
        name, hosts = resolve_pool_name(None, hosts="a,b")
        assert (name, hosts) == ("ssh", ("a", "b"))
        monkeypatch.setenv("REPRO_HOSTS", "c")
        assert resolve_pool_name(None) == ("ssh", ("c",))

    def test_default_is_warm(self, monkeypatch):
        monkeypatch.delenv("REPRO_POOL", raising=False)
        monkeypatch.delenv("REPRO_HOSTS", raising=False)
        assert resolve_pool_name(None) == ("warm", ())

    def test_ssh_without_hosts_is_an_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_HOSTS", raising=False)
        with pytest.raises(ValueError, match="hosts"):
            resolve_pool_name("ssh")

    def test_unknown_name_is_an_error(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown pool"):
            resolve_pool_name("fleet")
        with pytest.raises(ValueError, match="unknown pool 'spawn'") as caught:
            resolve_pool_name("spawn")
        assert str(caught.value).endswith("warm, ssh, serial")
        monkeypatch.setenv("REPRO_POOL", "spawn")
        with pytest.raises(ValueError, match="unknown pool"):
            resolve_pool_name(None)

    def test_resolve_pool_builds_each_backend(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert resolve_pool("warm", store=store, max_workers=2).name == "warm"
        ssh = resolve_pool("ssh", store=store, hosts=["local"])
        assert ssh.name == "ssh" and ssh.hosts == ("local",)
        # serial has no pool: the executor runs its tasks inline
        with pytest.raises(ValueError, match="inline"):
            resolve_pool("serial", store=store)


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
                env={"PYTHONPATH": src},
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
