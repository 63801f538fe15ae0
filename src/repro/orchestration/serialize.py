"""JSON serialisation of simulation artifacts and stable task keys.

The on-disk result store persists three kinds of artifacts:

* **alone runs** (:class:`~repro.sim.runner.AloneResult`) — one
  benchmark profiled by itself on the full LLC;
* **group runs** (:class:`~repro.sim.stats.RunResult`) — one Table 4
  group simulated under one scheme;
* **scenario runs** — one time-varying schedule under one scheme
  (a :class:`RunResult` with a recorded timeline).

All round-trip losslessly: every counter is an integer and every
float survives ``json`` encoding bit-exactly (Python emits the
shortest repr that parses back to the same double), so numbers read
back from the store are *identical* to freshly simulated ones — the
figures do not change depending on whether a result was cached.

Task keys are SHA-256 digests of a canonical JSON document covering
the full :class:`~repro.sim.config.SystemConfig` (geometries included),
the task parameters (benchmark or group/scenario + policy, plus any
non-default policy parameters) and the code-relevant versions
(:data:`SCHEMA_VERSION` and the library version).  They are stable
across processes and interpreter restarts — hash randomisation does
not affect them — which is what makes sweeps resumable and shardable
across workers.  :meth:`repro.experiment.Experiment.task_key` derives
these same keys directly from a spec, bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from array import array
from collections import defaultdict
from typing import TYPE_CHECKING, Any

from repro.partitioning.base import PolicyStats
from repro.scenarios.model import Scenario, ScenarioEvent
from repro.scenarios.timeline import TimelineSample
from repro.sim.config import SystemConfig
from repro.sim.stats import CoreResult, RunResult

if TYPE_CHECKING:  # imported lazily at runtime; runner imports us back
    from repro.sim.runner import AloneResult

#: bump whenever a change to the simulator, the policies or the trace
#: generator makes previously stored results stale; every task key
#: embeds it, so old artifacts simply stop matching (``repro clean``
#: reclaims the space).
SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Task keys
# ----------------------------------------------------------------------
def config_fingerprint(config: SystemConfig) -> dict[str, Any]:
    """The full parameter dictionary of a config, geometries inlined."""
    return dataclasses.asdict(config)


def config_token(config: SystemConfig) -> tuple[type, str]:
    """A hashable stand-in for ``config`` that two configs share only
    if they encode to the same canonical JSON.

    Equality is not enough: ``threshold=0`` and ``threshold=0.0`` (or
    ``0.0`` and ``-0.0``) compare and hash equal but encode to
    different keys, so a cache keyed by value alone would hand a
    config whichever key its first equal sibling got, and keys would
    depend on the order a process met them.  The dataclass ``repr``
    spells out every field with its type (``0``, ``0.0``, ``False``),
    geometries and their derived fields included, which is exactly
    what :func:`config_fingerprint` encodes.
    """
    return (type(config), repr(config))


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))``, with
#: the encoder built once rather than per call
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@functools.lru_cache(maxsize=256)
def _config_text(_token: tuple[type, str], config: SystemConfig) -> str:
    # ``_token`` keys the cache; ``config`` alone would merge 0 and 0.0.
    return _canonical(config_fingerprint(config))


def task_key(kind: str, config: SystemConfig, **params: Any) -> str:
    """Stable content address for one simulation task.

    ``kind`` is ``"alone"`` or ``"group"``; ``params`` carry the
    task-specific fields (``benchmark=...`` or ``group=...,
    policy=...``).  The digest covers the schema version, the library
    version and every config field, so any change that could alter
    the result changes the key.

    The digested text is the canonical encoding of ``{"schema",
    "version", "kind", "config", "params"}`` (sorted keys, no
    whitespace), assembled from its parts so each distinct config —
    by :func:`config_token`, never by value alone — is encoded once
    per process.
    """
    from repro import __version__  # late: repro/__init__ imports the sim stack

    blob = (
        f'{{"config":{_config_text(config_token(config), config)}'
        f',"kind":{_canonical(kind)},"params":{_canonical(params)}'
        f',"schema":{_canonical(SCHEMA_VERSION)}'
        f',"version":{_canonical(__version__)}}}'
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def alone_task_key(config: SystemConfig, benchmark: str) -> str:
    """Key of ``benchmark``'s isolated profiling run on this geometry."""
    return task_key("alone", config.alone(), benchmark=benchmark)


def group_task_key(config: SystemConfig, group: str, policy: str) -> str:
    """Key of one (group, scheme) simulation on this geometry."""
    return task_key("group", config, group=group, policy=policy)


def scenario_task_key(config: SystemConfig, scenario: Scenario, policy: str) -> str:
    """Key of one (scenario, scheme) simulation on this geometry.

    The digest covers the complete event schedule, so two scenarios
    sharing a name but differing in any event time never collide.
    """
    return task_key(
        "scenario", config, scenario=scenario_to_dict(scenario), policy=policy
    )


# ----------------------------------------------------------------------
# Scenario
# ----------------------------------------------------------------------
def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """Flatten a :class:`Scenario` into JSON-encodable primitives."""
    return {
        "name": scenario.name,
        "events": [
            {
                "kind": event.kind,
                "core": event.core,
                "at_cycle": event.at_cycle,
                "benchmark": event.benchmark,
            }
            for event in scenario.events
        ],
    }


#: fields every scenario event document carries (``benchmark`` is
#: optional: departures have none)
_EVENT_FIELDS = ("kind", "core", "at_cycle")


def scenario_from_dict(data: Any) -> Scenario:
    """Rebuild a :class:`Scenario` from :func:`scenario_to_dict` output
    (also the on-disk ``--spec`` file format of ``repro scenario`` and
    the ``scenario`` document of a corpus spec).

    A malformed document raises :class:`ValueError` naming the missing
    field, and the event index when an event is at fault.
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"a scenario must be a JSON object, got {type(data).__name__}"
        )
    missing = [key for key in ("name", "events") if key not in data]
    if missing:
        raise ValueError(f"scenario is missing field(s) {', '.join(missing)}")
    if not isinstance(data["events"], list):
        raise ValueError("scenario 'events' must be a list")
    events = []
    for index, event in enumerate(data["events"]):
        if not isinstance(event, dict):
            raise ValueError(f"event #{index} must be an object, got {event!r}")
        missing = [key for key in _EVENT_FIELDS if key not in event]
        if missing:
            raise ValueError(
                f"event #{index} {event!r} is missing field(s) "
                f"{', '.join(missing)}"
            )
        try:
            events.append(
                ScenarioEvent(
                    kind=event["kind"],
                    core=event["core"],
                    at_cycle=event["at_cycle"],
                    benchmark=event.get("benchmark"),
                )
            )
        except (TypeError, ValueError) as error:
            raise ValueError(
                f"event #{index} {event!r} is invalid: {error}"
            ) from error
    return Scenario(name=data["name"], events=tuple(events))


# ----------------------------------------------------------------------
# PolicyStats
# ----------------------------------------------------------------------
def policy_stats_to_dict(stats: PolicyStats) -> dict[str, Any]:
    """Flatten a :class:`PolicyStats` into JSON-encodable primitives."""
    return {
        "n_cores": stats.n_cores,
        "flush_bucket_cycles": stats.flush_bucket_cycles,
        "demand_accesses": list(stats.demand_accesses),
        "demand_hits": list(stats.demand_hits),
        "writeback_accesses": list(stats.writeback_accesses),
        "ways_probed_sum": list(stats.ways_probed_sum),
        "probe_events": list(stats.probe_events),
        "decisions": stats.decisions,
        "repartitions": stats.repartitions,
        "last_decision_cycle": stats.last_decision_cycle,
        "transition_durations": list(stats.transition_durations),
        "pending_transition_ages": list(stats.pending_transition_ages),
        "transitions_started": stats.transitions_started,
        "transitions_completed": stats.transitions_completed,
        "transitions_forced": stats.transitions_forced,
        "takeover_events": dict(stats.takeover_events),
        "transfer_flushes": stats.transfer_flushes,
        # JSON only has string keys; buckets are ints, so re-key.
        "transfer_flush_buckets": {
            str(bucket): count
            for bucket, count in stats.transfer_flush_buckets.items()
        },
    }


def policy_stats_from_dict(data: dict[str, Any]) -> PolicyStats:
    """Rebuild a :class:`PolicyStats` from :func:`policy_stats_to_dict`."""
    stats = PolicyStats(data["n_cores"], data["flush_bucket_cycles"])
    stats.demand_accesses = array("q", data["demand_accesses"])
    stats.demand_hits = array("q", data["demand_hits"])
    stats.writeback_accesses = array("q", data["writeback_accesses"])
    stats.ways_probed_sum = array("q", data["ways_probed_sum"])
    stats.probe_events = array("q", data["probe_events"])
    stats.decisions = data["decisions"]
    stats.repartitions = data["repartitions"]
    stats.last_decision_cycle = data["last_decision_cycle"]
    stats.transition_durations = list(data["transition_durations"])
    stats.pending_transition_ages = list(data["pending_transition_ages"])
    stats.transitions_started = data["transitions_started"]
    stats.transitions_completed = data["transitions_completed"]
    stats.transitions_forced = data["transitions_forced"]
    stats.takeover_events = dict(data["takeover_events"])
    stats.transfer_flushes = data["transfer_flushes"]
    stats.transfer_flush_buckets = defaultdict(int)
    for bucket, count in data["transfer_flush_buckets"].items():
        stats.transfer_flush_buckets[int(bucket)] = count
    return stats


# ----------------------------------------------------------------------
# RunResult
# ----------------------------------------------------------------------
def run_result_to_dict(run: RunResult) -> dict[str, Any]:
    """Flatten a :class:`RunResult` (cores and policy stats included).

    The scenario fields are emitted only when they carry information
    (a non-static scenario or a recorded timeline), so classic static
    artifacts — including the pre-overhaul golden fixtures — keep
    their exact historical shape.
    """
    payload = {
        "policy": run.policy,
        "cores": [dataclasses.asdict(core) for core in run.cores],
        "dynamic_energy_nj": run.dynamic_energy_nj,
        "static_energy_nj": run.static_energy_nj,
        "average_active_ways": run.average_active_ways,
        "average_ways_probed": run.average_ways_probed,
        "end_cycle": run.end_cycle,
        "memory_reads": run.memory_reads,
        "memory_writebacks": run.memory_writebacks,
        "policy_stats": policy_stats_to_dict(run.policy_stats),
        "window_instructions": run.window_instructions,
        "window_cycles": run.window_cycles,
        "epoch_curves": [list(curve) for curve in run.epoch_curves],
    }
    if run.scenario != "static":
        payload["scenario"] = run.scenario
    if run.timeline:
        payload["timeline"] = [sample.to_dict() for sample in run.timeline]
    # DVFS fields are emitted only for runs that carried a governor,
    # so pre-DVFS artifacts and golden fixtures keep their exact
    # historical byte layout.
    if run.governor is not None:
        payload["governor"] = run.governor
        payload["core_dynamic_energy_nj"] = run.core_dynamic_energy_nj
        payload["core_static_energy_nj"] = run.core_static_energy_nj
    # Diagnostics exist only on traced runs; untraced artifacts (and
    # every golden fixture) keep their historical byte layout.
    if run.diagnostics:
        payload["diagnostics"] = run.diagnostics
    return payload


def run_result_from_dict(data: dict[str, Any]) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`run_result_to_dict`."""
    return RunResult(
        policy=data["policy"],
        cores=[CoreResult(**core) for core in data["cores"]],
        dynamic_energy_nj=data["dynamic_energy_nj"],
        static_energy_nj=data["static_energy_nj"],
        average_active_ways=data["average_active_ways"],
        average_ways_probed=data["average_ways_probed"],
        end_cycle=data["end_cycle"],
        memory_reads=data["memory_reads"],
        memory_writebacks=data["memory_writebacks"],
        policy_stats=policy_stats_from_dict(data["policy_stats"]),
        window_instructions=data["window_instructions"],
        window_cycles=data["window_cycles"],
        epoch_curves=[list(curve) for curve in data["epoch_curves"]],
        scenario=data.get("scenario", "static"),
        timeline=[
            TimelineSample.from_dict(sample)
            for sample in data.get("timeline", [])
        ],
        governor=data.get("governor"),
        core_dynamic_energy_nj=data.get("core_dynamic_energy_nj", 0.0),
        core_static_energy_nj=data.get("core_static_energy_nj", 0.0),
        diagnostics=data.get("diagnostics") or {},
    )


# ----------------------------------------------------------------------
# AloneResult
# ----------------------------------------------------------------------
def alone_result_to_dict(result: "AloneResult") -> dict[str, Any]:
    """Flatten an :class:`AloneResult` (profiled curves included)."""
    return {
        "benchmark": result.benchmark,
        "ipc": result.ipc,
        "mpki": result.mpki,
        "curves": [list(curve) for curve in result.curves],
    }


def alone_result_from_dict(data: dict[str, Any]) -> "AloneResult":
    """Rebuild an :class:`AloneResult` from :func:`alone_result_to_dict`."""
    from repro.sim.runner import AloneResult

    return AloneResult(
        benchmark=data["benchmark"],
        ipc=data["ipc"],
        mpki=data["mpki"],
        curves=tuple(tuple(curve) for curve in data["curves"]),
    )
