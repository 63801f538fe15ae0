"""Built-in metric catalogue.

Instrumented modules import the instruments they update directly
(``from repro.obs.builtin import ENGINE_EPOCHS``); the registry loads this
module lazily on first lookup so a scrape always sees the full catalogue.
The full list is documented in docs/observability.md — keep the two in
sync.
"""

from __future__ import annotations

from repro.obs.metrics import (
    SECONDS_BUCKETS,
    SIZE_BUCKETS,
    counter,
    gauge,
    histogram,
)

# -- engine ------------------------------------------------------------

ENGINE_RUNS = counter(
    "repro_engine_runs_total",
    help="Simulation runs completed, by policy.",
)
ENGINE_EPOCHS = counter(
    "repro_engine_epochs_total",
    help="Partitioning epochs executed across all runs.",
)
KERNEL_FALLBACKS = counter(
    "repro_kernel_fallbacks_total",
    help="Work the C kernel could have done that ran in Python, by layer.",
)
KERNEL_SPAN_REFS = histogram(
    "repro_kernel_span_refs",
    help="References retired per compiled-kernel span.",
    unit="refs",
    buckets=SIZE_BUCKETS,
)
KERNEL_SPAN_SECONDS = histogram(
    "repro_kernel_span_seconds",
    help="Wall time per compiled-kernel span.",
    unit="seconds",
    buckets=SECONDS_BUCKETS,
)

# -- partitioning mechanics (paper section 4) --------------------------

TAKEOVER_EVENTS = counter(
    "repro_takeover_events_total",
    help="Way takeover events observed at run end, by kind.",
)
WAY_TRANSITIONS = counter(
    "repro_way_transitions_total",
    help="Way ownership transitions started.",
)
TRANSFER_FLUSHES = counter(
    "repro_transfer_flushes_total",
    help="Dirty-line flushes caused by way transfers.",
)
POWER_GATE_DROPS = counter(
    "repro_power_gate_drops_total",
    help="Timeline steps where powered-way count dropped (ways gated off).",
)

# -- result store ------------------------------------------------------

STORE_GET_SECONDS = histogram(
    "repro_store_get_seconds",
    help="Latency of ResultStore artifact reads.",
    unit="seconds",
)
STORE_PUT_SECONDS = histogram(
    "repro_store_put_seconds",
    help="Latency of ResultStore.put_many batches.",
    unit="seconds",
)
STORE_ARTIFACTS_WRITTEN = counter(
    "repro_store_artifacts_written_total",
    help="Artifacts written to the ResultStore.",
)

# -- pools / executor --------------------------------------------------

POOL_OUTSTANDING = gauge(
    "repro_pool_outstanding_tasks",
    help="Tasks currently submitted to the pool and not yet collected.",
)
TASK_WALL_SECONDS = histogram(
    "repro_task_wall_seconds",
    help="Per-task wall time as reported by the pool backend.",
    unit="seconds",
)
TASK_QUEUE_SECONDS = histogram(
    "repro_task_queue_seconds",
    help="Per-task time between submit and completion minus run time.",
    unit="seconds",
)
TASKS_COMPLETED = counter(
    "repro_tasks_completed_total",
    help="Sweep tasks collected from a pool, by backend and outcome.",
)

