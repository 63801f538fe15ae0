"""One pass of a workload: a fresh interpreter sweeping a cold store.

Run by ``run.py`` once per pass, never by hand::

    python perfbench/driver.py --specs S.json --store DIR --out R.json \\
        --launch T --pool warm --mode plain

The pass loads the generated ``Experiment`` specs, prefetches them
through the program's ``SweepExecutor`` (warm pool with ``JOBS``
workers by default, or the serial pool for the traced run), closes the
pool and assembles every
result plus the figure tables from the store — the shape of
``repro sweep``.  Timestamps are ``time.monotonic()`` readings, which
share one clock with the parent that launched this interpreter
(``--launch``), so wall time counts interpreter start.

Every mode has three cheap hooks: a timestamp when the pool has
started; three readings of set-up's speed in this process, at its
start, after the kernel has loaded and once the pool is up (the time
the first two take is left out of ``setup_s``); and, per simulator
run, a host-speed probe (``_probe``) timed just before the run plus a
line of engine-invariant counts (simulated references, policy epochs)
and that probe reading, appended to a file per process.  The pass's ``slowdown`` is the probe's trimmed mean over
its reference time: how much slower than the reference the cores ran
while, and where, this pass's work ran.

Modes:

``plain``
    The end-to-end pass: nothing more.
``traced``
    The ledger pass: the serial pool in-process, every layer wrapper
    from ``ledger.py`` installed and the program's own tracer on.
``metrics``
    A plain pass with the program's metric registry on, for the pool's
    task wall and queue histograms.
``setup``
    A plain pass that stops once the pool has started: the executor
    closes the pool before any task runs.  One more set-up sample.
"""

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MODES = ("plain", "traced", "metrics", "setup")

#: warm-pool workers: the program's default pool, on at most two cores
JOBS = min(2, os.cpu_count() or 1)

#: the host-speed probe: steps of one fixed loop, and the loop's CPU
#: time at the reference speed the time metrics are scaled to
PROBE_STEPS = 2000
PROBE_REFERENCE_S = 0.001
_PROBE_BUFFER = bytearray(1 << 22)
#: probes per set-up speed reading; the reading is their median
READING_PROBES = 3


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--specs", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--pool", choices=("warm", "serial"), default="warm")
    parser.add_argument("--mode", choices=MODES, default="plain")
    return parser.parse_args(argv)


def _probe() -> float:
    """CPU seconds of one fixed interpreter-and-memory loop: random
    dict stores and reads from a 4 MB buffer (~1 ms).  CPU time leaves
    out the waits for a core, so the reading follows only how fast the
    core this process is on runs at the moment."""
    started = time.thread_time()
    x, table, buffer = 12345, {}, _PROBE_BUFFER
    for step in range(PROBE_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 0xFFFF] = step
        buffer[x & 0x3FFFFF]
    return time.thread_time() - started


def _slowdown(probes: list[float]) -> float:
    """The probe's 10%-trimmed mean over its reference time."""
    ordered = sorted(probes) or [_probe()]
    trim = len(ordered) // 10
    kept = ordered[trim:len(ordered) - trim]
    return sum(kept) / len(kept) / PROBE_REFERENCE_S


def _reading(readings: list[float]) -> float:
    """Append one reading of this process's core speed, the median of
    ``READING_PROBES`` probes; return the wall seconds it took."""
    started = time.monotonic()
    readings.append(statistics.median(_probe() for _ in range(READING_PROBES)))
    return time.monotonic() - started


def _count_runs(directory: Path) -> None:
    """Probe the host's speed before each simulator run, and append
    ``refs epochs probe_s`` per run to a file per process.

    Warm workers fork from this process after the patch, so they carry
    it; each flushes its own file, which the parent sums after the
    pool has joined.
    """
    from repro.sim.simulator import CMPSimulator

    run = CMPSimulator.run
    handles: dict[int, object] = {}

    def counted_run(self, engine=None):
        epochs = [0]
        policy_epoch = self.policy.epoch

        def epoch(now):
            epochs[0] += 1
            return policy_epoch(now)

        self.policy.epoch = epoch
        probe = _probe()
        result = run(self, engine)
        pid = os.getpid()
        handle = handles.get(pid)
        if handle is None:
            handle = handles[pid] = open(directory / f"runs-{pid}.txt", "a")
        refs = sum(core.refs_done for core in self.cores)
        handle.write(f"{refs} {epochs[0]} {probe!r}\n")
        handle.flush()
        return result

    CMPSimulator.run = counted_run


def _run_totals(directory: Path) -> dict:
    runs = refs = epochs = 0
    probes = []
    for path in sorted(directory.glob("runs-*.txt")):
        for line in path.read_text().splitlines():
            run_refs, run_epochs, probe = line.split()
            runs += 1
            refs += int(run_refs)
            epochs += int(run_epochs)
            probes.append(float(probe))
    return {
        "runs": runs, "sim_refs": refs, "epochs": epochs,
        "slowdown": _slowdown(probes),
    }


class _SetUpDone(Exception):
    """Raised in ``setup`` mode once the pool has started."""


def _hook_pool_start(stamps: dict[str, float], readings: list[float], stop: bool) -> None:
    """Record when the warm pool's workers are up: set-up ends there.
    Then take the last set-up speed reading, and with ``stop`` end the
    pass."""
    from repro.orchestration.pools import WarmPool

    start = WarmPool.start

    def timed_start(self):
        stamps.setdefault("pool_start", time.monotonic())
        start(self)
        stamps.setdefault("pool_started", time.monotonic())
        _reading(readings)
        if stop:
            raise _SetUpDone

    WarmPool.start = timed_start


def _children_peak_kb() -> int:
    """Summed high-water resident sets of the live children (the pool
    workers), read before the pool joins them."""
    total = 0
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1])
    return total


def assemble(runner, specs) -> dict:
    """Every result read back, plus the figure tables of each machine:
    weighted speedup, dynamic and static energy, normalised to Fair
    Share (Figs. 5-13) and one summary row per scenario run."""
    groups: dict = {}
    scenarios = {}
    for spec in specs:
        run = runner.run(spec)
        if spec.kind == "group":
            groups.setdefault(spec.system, {}).setdefault(
                spec.workload.name, {}
            )[spec.policy_name] = run
        elif spec.kind == "scenario":
            scenarios[spec.label] = [
                run.total_energy_nj, run.static_power_nw, run.end_cycle
            ]
    tables = {}
    for config, results in groups.items():
        name = f"{config.n_cores}c-T{config.threshold}-r{config.refs_per_core}"
        tables[name] = {
            "speedup": runner.normalized_weighted_speedup(results, config),
            "dynamic": runner.normalized_energy(results, "dynamic"),
            "static": runner.normalized_energy(results, "static"),
        }
    if scenarios:
        tables["scenarios"] = scenarios
    return tables


def _phase(ledger, layer: str):
    """A ledger span in the traced pass; nothing otherwise."""
    return contextlib.nullcontext() if ledger is None else ledger.span(layer)


def _setup_report(launch: float, stamps: dict[str, float], readings: list[float],
                  probing_s: float) -> dict[str, float]:
    """Set-up seconds without the in-window speed readings, and set-up's
    slowdown: the mean reading over the probe's reference time."""
    if "pool_started" not in stamps:  # the serial pool starts no workers
        return {}
    return {
        "setup_s": stamps["pool_started"] - launch - probing_s,
        "setup_slowdown": statistics.mean(readings) / PROBE_REFERENCE_S,
    }


def main(argv: list[str]) -> int:
    options = _parse(argv)
    stamps: dict[str, float] = {"start": STARTED}
    readings: list[float] = []
    probing_s = _reading(readings)
    stamps["probed"] = time.monotonic()
    ledger = None
    if options.mode == "traced":
        from ledger import Ledger, instrument

        ledger = Ledger()
        ledger.add("setup.interpreter", STARTED - options.launch)
    with _phase(ledger, "setup.import"):
        from repro.engine import resolve_engine
        from repro.engine.build import load_kernel
        from repro.experiment import Experiment
        from repro.orchestration.executor import SweepExecutor
        from repro.orchestration.store import ResultStore
    stamps["imported"] = time.monotonic()
    with _phase(ledger, "engine.kernel_load"):
        try:
            kernel = load_kernel()
        except Exception:  # noqa: BLE001 — the program falls back to python
            kernel = None
    stamps["kernel"] = time.monotonic()
    probing_s += _reading(readings)
    documents = json.loads(Path(options.specs).read_text())
    specs = [Experiment.from_dict(document) for document in documents]

    store = ResultStore(options.store)
    counts_dir = Path(options.store).parent
    if ledger is not None:
        from repro.obs.trace import enable_tracing, recorder

        instrument(ledger, kernel)
        enable_tracing()
    # Installed after the ledger's wrappers, so its write per run stays
    # outside the ``sim.run`` spans.
    _count_runs(counts_dir)
    if options.mode == "metrics":
        from repro.obs.metrics import enable_metrics

        enable_metrics()
    _hook_pool_start(stamps, readings, stop=options.mode == "setup")

    executor = SweepExecutor(store, max_workers=JOBS, pool=options.pool)
    stamps["prefetch"] = time.monotonic()
    try:
        computed, _cached = executor.prefetch(specs)
    except _SetUpDone:  # the executor has closed the pool
        report = _setup_report(options.launch, stamps, readings, probing_s)
        Path(options.out).write_text(json.dumps(report))
        return 0
    stamps["prefetched"] = time.monotonic()
    workers_kb = _children_peak_kb()
    executor.close()
    with _phase(ledger, "orchestration.assemble"):
        tables = assemble(executor.runner, specs)
    stamps["assembled"] = time.monotonic()

    report = {
        "launch": options.launch,
        "jobs": JOBS,
        "stamps": stamps,
        "engine": resolve_engine(None),
        "computed": computed,
        "tables": tables,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + workers_kb
        ) / 1024.0,
    }
    report.update(_run_totals(counts_dir))
    report.update(_setup_report(options.launch, stamps, readings, probing_s))
    if ledger is not None:
        report["ledger"] = ledger.to_dict()
        report["tracer"] = recorder().summary()
    if options.mode == "metrics":
        from repro.obs.metrics import snapshot

        report["task_metrics"] = {
            name: _histogram_totals(snapshot().get(name, {}))
            for name in ("repro_task_wall_seconds", "repro_task_queue_seconds")
        }
    Path(options.out).write_text(json.dumps(report, sort_keys=True))
    return 0


def _histogram_totals(metric: dict) -> dict[str, float]:
    """Sum and count of a histogram over all its label sets."""
    totals = {"sum": 0.0, "count": 0.0}
    for sample in metric.get("samples", ()):
        suffix = sample.get("suffix", "")
        if suffix in ("_sum", "_count"):
            totals[suffix[1:]] += sample["value"]
    return totals


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
