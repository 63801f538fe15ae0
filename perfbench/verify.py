"""Output checks, run outside every timer.

* **Digests.** Every task artifact of a pass is hashed in canonical
  JSON; a pass's digest covers its artifacts and its figure tables.
  Every pass of a run must agree, and, when ``reference.json`` holds
  the seed, agree with the recorded digest and the engine-invariant
  counts (simulated references, policy epochs, takeover events).  A
  speed-only change that moves any simulated statistic therefore fails.
* **Python re-simulation.** A sample of the tasks, drawn from the seed,
  runs again on the reference ``python`` engine; its serialized result
  must equal the stored artifact byte for byte.
* **Differential invariants.** ``repro.bench.differential.check_run``
  on every scenario result.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path

#: per-task digest width kept in reference.json (hex characters)
TASK_DIGEST_CHARS = 4

#: tasks re-simulated on the python engine per run, per workload
RESIMULATED = {"figs-cold": 2, "scenario-dvfs": 6, "threshold-grid": 3}

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _result_payload(payload: dict) -> dict:
    """The payload without the tracer's run diagnostics (present only
    when tracing was on; everything else must not depend on it)."""
    return {key: value for key, value in payload.items() if key != "diagnostics"}


def digest_pass(store_root: Path, tasks: list, tables: dict) -> dict:
    """Per-task digests, the pass digest and artifact counts of a store.

    A missing or unreadable artifact digests as ``None``.
    """
    from repro.orchestration.store import ResultStore

    store = ResultStore(store_root)
    hasher = hashlib.sha256()
    task_digests: list[str | None] = []
    takeover_events = 0
    store_bytes = 0
    for task in tasks:
        key = task.task_key()
        payload = store.get(key)
        if payload is None:
            task_digests.append(None)
            hasher.update(b"missing")
            continue
        store_bytes += store.path_for(key).stat().st_size
        digest = hashlib.sha256(canonical(_result_payload(payload))).hexdigest()
        task_digests.append(digest)
        hasher.update(digest.encode())
        stats = payload.get("policy_stats") or {}
        takeover_events += sum((stats.get("takeover_events") or {}).values())
    hasher.update(canonical(tables))
    return {
        "digest": hasher.hexdigest(),
        "tasks": task_digests,
        "takeover_events": takeover_events,
        "store_bytes": store_bytes,
    }


def short_tasks(task_digests: list) -> str:
    return "".join(
        (digest or "-" * TASK_DIGEST_CHARS)[:TASK_DIGEST_CHARS]
        for digest in task_digests
    )


def load_reference(workload: str, seed: int) -> dict | None:
    """The recorded digests for (workload, seed), if any."""
    try:
        document = json.loads(REFERENCE_PATH.read_text())
    except FileNotFoundError:
        return None
    return document.get(workload, {}).get(str(seed))


def compare_pass(observed: dict, expected: dict) -> list[str]:
    """Mismatches of one pass against the expected digests and counts.

    ``expected`` is a reference.json entry or another pass's summary;
    returns one message per failed task (or per failed count).
    """
    problems: list[str] = []
    want = expected["tasks"]
    got = short_tasks(observed["tasks"])
    if isinstance(want, list):
        want = short_tasks(want)
    width = TASK_DIGEST_CHARS
    for index in range(0, max(len(want), len(got)), width):
        if want[index:index + width] != got[index:index + width]:
            problems.append(f"task #{index // width} digest differs")
    if observed["digest"] != expected["digest"] and not problems:
        problems.append("pass digest differs (artifacts or figure tables)")
    for count in ("sim_refs", "epochs", "takeover_events"):
        if count in expected and observed.get(count) != expected[count]:
            problems.append(
                f"{count} {observed.get(count)} != expected {expected[count]}"
            )
    return problems


def resimulate(store_root: Path, tasks: list) -> list[str]:
    """Re-run ``tasks`` on the python engine; one message per task
    whose serialized result differs from its stored artifact."""
    from repro.orchestration import serialize
    from repro.orchestration.store import ResultStore
    from repro.sim.runner import AloneResult, ExperimentRunner

    store = ResultStore(store_root)
    runner = ExperimentRunner()
    problems = []
    previous = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = "python"
    try:
        for task in tasks:
            result = runner.run(task)
            payload = (
                serialize.alone_result_to_dict(result)
                if isinstance(result, AloneResult)
                else serialize.run_result_to_dict(result)
            )
            stored = store.get(task.task_key())
            if stored is None or canonical(payload) != canonical(stored):
                problems.append(f"{task.label}: python engine result differs")
    finally:
        if previous is None:
            os.environ.pop("REPRO_ENGINE", None)
        else:
            os.environ["REPRO_ENGINE"] = previous
    return problems


def resimulation_sample(workload: str, seed: int, tasks: list, size: str) -> list:
    count = RESIMULATED[workload] if size == "full" else 2
    return random.Random(f"{workload}:{seed}").sample(tasks, min(count, len(tasks)))


def differential(store_root: Path, tasks: list) -> list[str]:
    """``check_run`` on every scenario task's stored result."""
    from repro.bench.differential import check_run
    from repro.orchestration import serialize
    from repro.orchestration.store import ResultStore

    store = ResultStore(store_root)
    problems = []
    for task in tasks:
        if task.kind != "scenario":
            continue
        payload = store.get(task.task_key())
        if payload is None:
            problems.append(f"{task.label}: artifact missing")
            continue
        violations = check_run(task, serialize.run_result_from_dict(payload))
        if violations:
            problems.append(f"{task.label}: {violations[0]}")
    return problems
