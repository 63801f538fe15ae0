"""The result store: round-trips, key stability, corruption recovery."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiment import Experiment
import repro

from repro.orchestration.serialize import (
    SCHEMA_VERSION,
    alone_result_from_dict,
    alone_result_to_dict,
    alone_task_key,
    group_task_key,
    run_result_from_dict,
    run_result_to_dict,
    task_key,
)
from repro.orchestration.store import ResultStore, default_store_path
from repro.sim.runner import ExperimentRunner


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def _bump_schema(blob: bytes) -> bytes:
    envelope = json.loads(blob)
    envelope["schema"] = SCHEMA_VERSION + 1
    return json.dumps(envelope).encode("utf-8")


class TestTaskKeys:
    def test_key_is_hex_sha256(self, tiny_two_core):
        key = task_key("group", tiny_two_core, group="G2-4", policy="ucp")
        assert len(key) == 64
        int(key, 16)  # parses as hex

    def test_key_depends_on_every_input(self, tiny_two_core):
        base = group_task_key(tiny_two_core, "G2-4", "ucp")
        assert group_task_key(tiny_two_core, "G2-4", "cooperative") != base
        assert group_task_key(tiny_two_core, "G2-5", "ucp") != base
        bumped = tiny_two_core.with_threshold(0.2)
        assert group_task_key(bumped, "G2-4", "ucp") != base

    def test_alone_key_ignores_core_count(self, tiny_two_core, tiny_four_core):
        # Alone runs always happen on the single-core variant, so the
        # group config's n_cores must not fragment the cache...
        two = alone_task_key(tiny_two_core, "lbm")
        assert alone_task_key(tiny_two_core.alone(), "lbm") == two
        # ...but a different geometry is a different run.
        assert alone_task_key(tiny_four_core, "lbm") != two

    def test_key_stable_across_processes(self, tiny_two_core):
        """Keys must not depend on per-process hash randomisation."""
        script = (
            "from repro.sim.config import SystemConfig\n"
            "from repro.cache.geometry import CacheGeometry\n"
            "from repro.orchestration.serialize import group_task_key\n"
            "config = SystemConfig(n_cores=2, l1=CacheGeometry(4096, 64, 4),\n"
            "                      l2=CacheGeometry(32768, 64, 8), l2_latency=15,\n"
            "                      epoch_cycles=30000, umon_interval=4,\n"
            "                      refs_per_core=12000, warmup_refs=2000,\n"
            "                      flush_bucket_cycles=2000)\n"
            "print(group_task_key(config, 'G2-4', 'ucp'))\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        keys = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            ).stdout.strip()
            for hash_seed in ("0", "1", "12345")
        }
        assert keys == {group_task_key(tiny_two_core, "G2-4", "ucp")}


class TestSerialisation:
    def test_run_result_round_trip(self, tiny_two_core):
        runner = ExperimentRunner()
        run = runner.run(Experiment("G2-4", "cooperative", tiny_two_core))
        clone = run_result_from_dict(
            json.loads(json.dumps(run_result_to_dict(run)))
        )
        assert clone.ipcs() == run.ipcs()
        assert clone.dynamic_energy_nj == run.dynamic_energy_nj
        assert clone.static_power_nw == run.static_power_nw
        assert clone.policy_stats.takeover_events == run.policy_stats.takeover_events
        assert dict(clone.policy_stats.transfer_flush_buckets) == dict(
            run.policy_stats.transfer_flush_buckets
        )
        assert clone.takeover_event_fractions() == run.takeover_event_fractions()
        assert clone.policy_stats.flush_series(8) == run.policy_stats.flush_series(8)

    def test_flush_buckets_rekeyed_as_ints(self, tiny_two_core):
        runner = ExperimentRunner()
        run = runner.run(Experiment("G2-4", "ucp", tiny_two_core))
        clone = run_result_from_dict(run_result_to_dict(run))
        assert all(
            isinstance(bucket, int)
            for bucket in clone.policy_stats.transfer_flush_buckets
        )
        # and the rebuilt mapping still defaults missing buckets to 0
        assert clone.policy_stats.transfer_flush_buckets[10**6] == 0

    def test_alone_result_round_trip(self, tiny_two_core):
        runner = ExperimentRunner()
        result = runner.alone("lbm", tiny_two_core)
        clone = alone_result_from_dict(
            json.loads(json.dumps(alone_result_to_dict(result)))
        )
        assert clone == result  # frozen dataclass: field-exact


class TestResultStore:
    def test_round_trip_persistence(self, store, tmp_path):
        store.put("ab" * 32, {"x": 1.5, "y": [1, 2]}, kind="group")
        assert store.get("ab" * 32) == {"x": 1.5, "y": [1, 2]}
        assert store.probe("ab" * 32)
        assert store.count() == 1
        # one flat directory: the artifact is the store's only file
        assert store.path_for("ab" * 32) == tmp_path / "store" / f"{'ab' * 32}.json"
        assert os.listdir(tmp_path / "store") == [f"{'ab' * 32}.json"]

    def test_missing_key(self, store):
        assert store.get("cd" * 32) is None
        assert not store.probe("cd" * 32)

    def test_corrupted_artifact_recovers(self, store):
        key = "ef" * 32
        store.put(key, {"x": 1}, kind="group")
        store.path_for(key).write_text("{truncated")
        assert store.get(key) is None
        assert not store.path_for(key).exists(), "corrupt artifact must be discarded"

    def test_wrong_schema_treated_as_miss(self, store):
        key = "12" * 32
        store.put(key, {"x": 1}, kind="group")
        envelope = json.loads(store.path_for(key).read_text())
        envelope["schema"] = SCHEMA_VERSION + 1
        store.path_for(key).write_text(json.dumps(envelope))
        assert store.get(key) is None

    def test_clean_removes_everything(self, store):
        for index in range(5):
            store.put(f"{index:02d}" + "0" * 62, {"i": index}, kind="alone")
        assert store.count() == 5
        assert store.clean() == 5
        assert store.count() == 0

    def test_default_store_path_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "/tmp/elsewhere")
        assert str(default_store_path()) == "/tmp/elsewhere"
        monkeypatch.delenv("REPRO_STORE")
        assert str(default_store_path()).endswith("store")


class TestProbe:
    """``probe`` reads the artifact: every kind of damage is a miss,
    and the damaged file is discarded so the key can be recomputed."""

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda blob: blob[:-20], id="truncation"),
            # the damage a byte-size check cannot see
            pytest.param(lambda blob: b"x" * len(blob), id="garbage-same-size"),
            pytest.param(_bump_schema, id="wrong-schema"),
        ],
    )
    def test_damaged_artifact_is_a_discarded_miss(self, store, damage):
        key = "ab" * 32
        store.put(key, {"x": list(range(100))}, kind="group")
        path = store.path_for(key)
        path.write_bytes(damage(path.read_bytes()))
        assert not store.probe(key)
        assert not path.exists(), "a damaged artifact must be discarded"
        assert store.count() == 0

    def test_missing_artifact_is_absent_everywhere(self, store):
        store.put("ab" * 32, {"x": 1}, kind="group")
        store.put("cd" * 32, {"x": 2}, kind="group")
        store.path_for("ab" * 32).unlink()
        assert not store.probe("ab" * 32)
        assert list(store.keys()) == ["cd" * 32]
        assert store.count() == 1

    def test_put_many_batch(self, store, tmp_path):
        rows = [
            (f"{i:02d}" + "ef" * 31, {"i": i}, "group", {"label": f"t{i}"})
            for i in range(6)
        ]
        paths = store.put_many(rows)
        assert paths == [store.path_for(key) for key, *_ in rows]
        assert [p.exists() for p in paths] == [True] * 6
        fresh = ResultStore(tmp_path / "store")
        for key, _payload, _kind, _meta in rows:
            assert fresh.probe(key)
        assert fresh.get_envelope(rows[3][0])["meta"] == {"label": "t3"}
        assert store.get(rows[3][0]) == {"i": 3}

    def test_keys_lists_every_artifact_sorted(self, store):
        expected = [f"{i:02d}" + "9a" * 31 for i in range(8)]
        for i, key in enumerate(reversed(expected)):
            store.put(key, {"i": i}, kind="alone")
        (store.root / ".stray.tmp").write_bytes(b"{}")
        assert list(store.keys()) == expected
        assert list(ResultStore(store.root).keys()) == expected

    def test_fully_cached_resume_parses_each_artifact_once(
        self, store, tiny_two_core, monkeypatch
    ):
        """Planning a warm sweep reads each artifact once and keeps it,
        so planning plus assembly read each artifact exactly once (what
        assembly alone needs) and simulate nothing."""
        from repro.orchestration.executor import SweepExecutor

        specs = [
            Experiment("G2-4", policy, tiny_two_core)
            for policy in ("ucp", "cooperative")
        ]
        with SweepExecutor(store, max_workers=1, pool="serial") as seeder:
            computed, _ = seeder.prefetch(specs)
        assert computed > 0

        import repro.sim.runner as runner_module

        def explode(*args, **kwargs):
            raise AssertionError("simulated on a warm store")

        monkeypatch.setattr(runner_module, "CMPSimulator", explode)
        resumed_store = ResultStore(store.root)
        reads = []
        get_envelope = resumed_store.get_envelope

        def counting_get_envelope(key):
            reads.append(key)
            return get_envelope(key)

        resumed_store.get_envelope = counting_get_envelope
        with SweepExecutor(resumed_store, max_workers=1) as resumed:
            alone_pending, main_pending, total = resumed.plan(specs)
            assert (alone_pending, main_pending) == ([], [])
            assert total == 4  # two group tasks + two alone dependencies
            assert resumed.prefetch(specs) == (0, total)
            runner = resumed.runner
            for spec, run in runner.sweep(specs).items():
                runner.weighted_speedup_of(run, tiny_two_core)
        every_key = {spec.task_key() for spec in specs} | {
            dependency.task_key()
            for spec in specs
            for dependency in spec.alone_dependencies()
        }
        assert sorted(reads) == sorted(every_key)


class TestFailurePaths:
    def test_writer_killed_before_its_rename_leaves_only_a_temp_file(
        self, store
    ):
        """A writer killed between its temp write and its rename leaves
        ``.<key>.json.<pid>.tmp``: never read as the artifact, not a
        key, and removed by ``clean``."""
        key = "ab" * 32
        src = str(Path(repro.__file__).resolve().parent.parent)
        script = (
            "import os, sys\n"
            "from repro.orchestration.store import ResultStore\n"
            "os.replace = lambda *args: os._exit(9)  # killed mid-put\n"
            "ResultStore(sys.argv[1]).put(sys.argv[2], {'x': 1}, 'group')\n"
        )
        writer = subprocess.run(
            [sys.executable, "-c", script, str(store.root), key],
            env={**os.environ, "PYTHONPATH": src},
        )
        assert writer.returncode == 9
        (leftover,) = os.listdir(store.root)
        assert leftover.startswith(f".{key}.json.") and leftover.endswith(".tmp")
        assert store.get(key) is None and not store.probe(key)
        assert list(store.keys()) == [] and store.count() == 0
        assert os.listdir(store.root) == [leftover], "a read deleted the temp file"
        store.put("cd" * 32, {"x": 2}, kind="group")
        assert store.clean() == 1
        assert os.listdir(store.root) == []


class TestLegacyLayout:
    def test_sharded_store_is_recomputed_and_cleaned(
        self, tmp_path, tiny_two_core, capsys
    ):
        """A store in the older layout (``<root>/<key[:2]>/<key>.json``
        plus a per-shard index) is not read: its artifacts are
        recomputed, and ``repro clean`` removes all of it."""
        from repro.orchestration.cli import main

        spec = Experiment.alone_run("lbm", system=tiny_two_core)
        key = spec.task_key()
        seeded = ResultStore(tmp_path / "seed")
        expected = ExperimentRunner(store=seeded).run(spec)
        blob = seeded.path_for(key).read_bytes()

        root = tmp_path / "store"
        shard = root / key[:2]
        shard.mkdir(parents=True)
        (shard / f"{key}.json").write_bytes(blob)
        index_line = {"key": key, "size": len(blob), "kind": "alone", "meta": {}}
        (shard / ".index.jsonl").write_text(json.dumps(index_line) + "\n")
        (shard / f".{key}.json.4242.tmp").write_bytes(blob[:10])
        other = root / "cd"
        other.mkdir()
        (other / f"{'cd' * 32}.json").write_bytes(blob)

        store = ResultStore(root)
        assert store.count() == 0 and list(store.keys()) == []
        assert not store.probe(key)

        simulated = []
        runner = ExperimentRunner(store=store)
        simulate = runner._simulate_alone
        runner._simulate_alone = lambda e: simulated.append(e) or simulate(e)
        assert runner.run(spec) == expected
        assert simulated == [spec], "a sharded artifact was read"
        assert list(store.keys()) == [key]

        capsys.readouterr()
        assert main(["clean", "--store", str(root)]) == 0
        assert capsys.readouterr().out.startswith("removed 3 artifact(s)")
        assert os.listdir(root) == []


class TestStoreBackedRunner:
    def test_results_survive_runner_restart(self, store, tiny_two_core):
        first = ExperimentRunner(store=store)
        run = first.run(Experiment("G2-4", "cooperative", tiny_two_core))
        ws = first.weighted_speedup_of(run, tiny_two_core)

        second = ExperimentRunner(store=store)  # fresh memory caches
        cached = second.run(Experiment("G2-4", "cooperative", tiny_two_core))
        assert cached.ipcs() == run.ipcs()
        assert second.weighted_speedup_of(cached, tiny_two_core) == ws

    def test_disk_hit_skips_simulation(self, store, tiny_two_core, monkeypatch):
        seeded = ExperimentRunner(store=store)
        expected = seeded.run(Experiment("G2-4", "fair_share", tiny_two_core))
        seeded.alone("lbm", tiny_two_core)

        import repro.sim.runner as runner_module

        def explode(*args, **kwargs):
            raise AssertionError("simulated on a warm store")

        monkeypatch.setattr(runner_module, "CMPSimulator", explode)
        resumed = ExperimentRunner(store=store)
        hit = resumed.run(Experiment("G2-4", "fair_share", tiny_two_core))
        assert hit.ipcs() == expected.ipcs()
        resumed.alone("lbm", tiny_two_core)

    def test_store_and_memory_agree(self, store, tiny_two_core):
        runner = ExperimentRunner(store=store)
        computed = runner.run(Experiment("G2-4", "ucp", tiny_two_core))
        assert runner.run(Experiment("G2-4", "ucp", tiny_two_core)) is computed
