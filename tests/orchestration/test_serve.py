"""``repro serve``: job round-trips, idempotent submits, restart
recovery resuming from the store."""

import json
import urllib.error
import urllib.request

import pytest

from repro.experiment import Experiment
from repro.orchestration.serve import DONE, QUEUED, SweepServer, jobs_dir_for
from repro.orchestration.store import ResultStore
from repro.sim.runner import ExperimentRunner


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(url, document):
    request = urllib.request.Request(
        url,
        data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def _wait_done(base, job_id, timeout=60.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, record = _get(f"{base}/v1/jobs/{job_id}")
        if record["state"] in ("done", "failed"):
            return record
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish: {record['state']}")


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def _server(store, **kwargs):
    # serial pool: jobs run inline in the scheduler thread, no worker
    # processes to slow the tests down
    return SweepServer(store, max_workers=1, pool="serial", **kwargs)


class TestRoundTrip:
    def test_submit_poll_fetch(self, store, tiny_two_core):
        spec = Experiment("G2-4", "ucp", tiny_two_core)
        with _server(store) as server:
            status, record = _post(
                f"{server.url}/v1/jobs", {"experiments": [spec.to_dict()]}
            )
            assert status == 201
            assert record["state"] == QUEUED
            assert [t["key"] for t in record["tasks"]] == [spec.task_key()]

            finished = _wait_done(server.url, record["id"])
            assert finished["state"] == DONE
            assert all(t["state"] == "done" for t in finished["tasks"])

            # the artifact reads back through the results endpoint...
            status, envelope = _get(
                f"{server.url}/v1/results/{spec.task_key()}"
            )
            assert status == 200
            assert envelope["key"] == spec.task_key()

            # ...and matches what a direct runner computes
            direct = ExperimentRunner().run(spec)
            fetched = ExperimentRunner(store=store).run(spec)
            assert fetched.ipcs() == direct.ipcs()

            # events narrate the run
            with urllib.request.urlopen(
                f"{server.url}/v1/jobs/{record['id']}/events", timeout=10
            ) as response:
                lines = response.read().decode("utf-8").splitlines()
            assert any("computed" in line for line in lines)

    def test_resubmit_is_idempotent(self, store, tiny_two_core):
        spec = Experiment("G2-4", "ucp", tiny_two_core)
        body = {"experiments": [spec.to_dict()]}
        with _server(store) as server:
            status, first = _post(f"{server.url}/v1/jobs", body)
            assert status == 201
            _wait_done(server.url, first["id"])
            status, again = _post(f"{server.url}/v1/jobs", body)
            assert status == 200, "same specs must collapse onto the same job"
            assert again["id"] == first["id"]
            assert again["state"] == DONE

            status, jobs = _get(f"{server.url}/v1/jobs")
            assert status == 200 and len(jobs) == 1

    def test_health_and_missing_routes(self, store):
        with _server(store) as server:
            status, health = _get(f"{server.url}/v1/health")
            assert status == 200 and health["status"] == "ok"
            with pytest.raises(urllib.error.HTTPError) as caught:
                _get(f"{server.url}/v1/jobs/nope")
            assert caught.value.code == 404

    def test_bad_specs_rejected_at_submit(self, store):
        with _server(store) as server:
            with pytest.raises(urllib.error.HTTPError) as caught:
                _post(f"{server.url}/v1/jobs", {"experiments": [{"bad": 1}]})
            assert caught.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as caught:
                _post(f"{server.url}/v1/jobs", {"experiments": []})
            assert caught.value.code == 400
            # nothing was queued
            _, jobs = _get(f"{server.url}/v1/jobs")
            assert jobs == []


class TestRestartRecovery:
    def test_queued_job_survives_restart(self, store, tiny_two_core):
        """A job accepted by a server that dies before running it must
        run when the next server starts on the same store."""
        specs = [
            Experiment("G2-4", p, tiny_two_core).to_dict()
            for p in ("ucp", "cooperative")
        ]
        dead = _server(store)  # never started: simulates a crash
        jobs_dir_for(store).mkdir(parents=True, exist_ok=True)
        record, created = dead.submit(specs)
        assert created and record["state"] == QUEUED

        with _server(store) as server:
            finished = _wait_done(server.url, record["id"])
        assert finished["state"] == DONE
        assert any("requeued" in line for line in finished["events"])

    def test_restart_resumes_from_store(self, store, tiny_two_core):
        """Work finished before the crash is a store hit on resume —
        the restarted job recomputes only what is missing."""
        done_spec = Experiment("G2-4", "ucp", tiny_two_core)
        pending_spec = Experiment("G2-4", "cooperative", tiny_two_core)
        # the first life of the job computed one of the two specs
        # (and its alone dependencies) before dying mid-run
        seeded = ExperimentRunner(store=store)
        for dependency in done_spec.alone_dependencies():
            seeded.run(dependency)
        seeded.run(done_spec)

        dead = _server(store)
        jobs_dir_for(store).mkdir(parents=True, exist_ok=True)
        record, _ = dead.submit([done_spec.to_dict(), pending_spec.to_dict()])
        # simulate the crash arriving mid-job
        record["state"] = "running"
        dead._persist(record)

        with _server(store) as server:
            finished = _wait_done(server.url, record["id"])
        assert finished["state"] == DONE
        summary = [line for line in finished["events"] if "cached" in line]
        assert summary, finished["events"]
        # exactly one group task (plus nothing else) was recomputed
        assert summary[-1].startswith("1 task(s) computed, ")


class TestInjectableClock:
    def test_job_timestamps_come_from_the_injected_clock(
        self, store, tiny_two_core
    ):
        """Every job timestamp routes through one injectable clock, so
        replays and tests control time instead of reading the wall."""
        spec = Experiment("G2-4", "ucp", tiny_two_core)
        server = _server(store, clock=lambda: 1234.5)
        jobs_dir_for(store).mkdir(parents=True, exist_ok=True)
        record, created = server.submit([spec.to_dict()])
        assert created
        assert record["created"] == 1234.5

    def test_default_clock_is_the_blessed_wall_clock(self, store):
        from repro.orchestration.clock import wall_now

        server = _server(store)
        assert server.clock is wall_now
