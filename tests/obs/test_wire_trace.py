"""Trace shipping over the ssh pool wire protocol: a tracing parent
asks remotes to record, and their per-task trace artifacts ride home
in the reply's artifact list."""

import pytest

from repro.experiment import Experiment
from repro.obs.trace import enable_tracing, trace_key
from repro.orchestration.pools import PoolTask, SSHPool
from repro.orchestration.store import ResultStore
from repro.sim.runner import ExperimentRunner


def _prime_dependencies(store, spec):
    runner = ExperimentRunner(store=store)
    for dependency in spec.alone_dependencies():
        runner.run(dependency)


def _run_one(store, spec, transport, **pool_kwargs):
    pool = SSHPool(
        store,
        hosts=["stub"],
        transport_factory=lambda host: transport,
        **pool_kwargs,
    )
    with pool:
        pool.submit(PoolTask.from_experiment(spec))
        result = pool.wait_one()
    assert result.error is None
    return transport


class TestWireTrace:
    def test_untraced_request_keeps_historical_shape(
        self, tmp_path, tiny_two_core, stub_transport
    ):
        store = ResultStore(tmp_path / "store")
        spec = Experiment("G2-4", "ucp", tiny_two_core)
        _prime_dependencies(store, spec)
        transport = _run_one(store, spec, stub_transport)
        (request,) = transport.requests
        assert "trace" not in request  # optional key, absent when off
        assert not store.probe(trace_key(spec.task_key()))

    def test_tracing_parent_gets_remote_trace_artifacts(
        self, tmp_path, tiny_two_core, stub_transport
    ):
        enable_tracing()
        store = ResultStore(tmp_path / "store")
        spec = Experiment("G2-4", "ucp", tiny_two_core)
        _prime_dependencies(store, spec)
        transport = _run_one(store, spec, stub_transport)
        (request,) = transport.requests
        assert request["trace"] is True
        # the remote's trace artifact synced into the local store
        envelope = store.get_envelope(trace_key(spec.task_key()))
        assert envelope is not None and envelope["kind"] == "trace"
        payload = envelope["payload"]
        assert payload["task"] == spec.task_key()
        names = {event["name"] for event in payload["events"]}
        assert "run" in names
        # and the result artifact itself arrived as usual
        assert store.probe(spec.task_key())

    def test_explicit_trace_flag_overrides_global_state(
        self, tmp_path, tiny_two_core, stub_transport
    ):
        store = ResultStore(tmp_path / "store")
        spec = Experiment("G2-4", "ucp", tiny_two_core)
        _prime_dependencies(store, spec)
        transport = _run_one(store, spec, stub_transport, trace=True)
        (request,) = transport.requests
        assert request["trace"] is True
        assert store.probe(trace_key(spec.task_key()))
