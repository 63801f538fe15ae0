"""The repo benchmark: wall time to produce figures from a cold store.

    python3 perfbench/run.py --workload figs-cold --seed 1 --seconds 36 --trace 0

One run generates the workload's ``Experiment`` specs from ``--seed``
and times whole passes — each a fresh interpreter sweeping a cold store
on the program's default warm pool (``perfbench/driver.py``) — until
``--seconds`` are spent.  Before each simulator run the pass's own
processes time a small fixed loop (``driver._probe``); every time
metric is the pass's time divided by how much slower than the
reference that loop ran, so a shared host's swings in core speed drop
out.  End-to-end metrics are medians over the passes; ``setup_s`` also
counts ``SETUP_LAUNCHES`` set-up-only launches.  ``--trace 1`` instead
measures the per-layer ledger: untraced and traced serial passes in
pairs, then one warm pass with the metric registry on.  The outputs
are checked outside every timer (``perfbench/verify.py``).  The last
stdout line is the JSON result; ``--workload all`` runs every workload
in turn.  See ``perfbench/README.md`` for the metric catalogue.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space inside the checkout: kernel cache, per-run stores
WORK = ROOT / ".perfbench"

#: a pass that takes longer than this is killed and counted as failed
#: (full passes take 2-12 s; a run must end within 180 s)
PASS_TIMEOUT_S = 60.0
#: passes per untraced run, whatever --seconds says
MIN_PASSES = 3
#: set-up-only launches at the start of an untraced run: extra set-up
#: samples, and the run's warm-up
SETUP_LAUNCHES = 8
#: the traced run's named layers must account for this share of its
#: wall time (full size: 0.93-0.97; tiny: 0.87-0.92)
COVERAGE_FLOOR = 0.80

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_refs_per_s": "refs/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.interpreter_s": "s",
    "setup.import_s": "s",
    "engine.kernel_load_s": "s",
    "orchestration.pool_start_s": "s",
    "workloads.trace_gen_s": "s",
    "workloads.traces": "count",
    "sim.construct_s": "s",
    "sim.runs": "count",
    "sim.run_s.alone": "s",
    "sim.run_s.group": "s",
    "sim.run_s.scenario": "s",
    "engine.c_kernel_s": "s",
    "engine.c_calls": "count",
    "engine.kernel_span_s": "s",
    "engine.marshal_s": "s",
    "engine.other_s": "s",
    "engine.refs_per_c_call": "refs/call",
    "engine.sim_refs": "count",
    "engine.python_fallback_runs": "count",
    "partitioning.epoch_s": "s",
    "partitioning.epochs": "count",
    "dvfs.epoch_s": "s",
    "dvfs.decisions": "count",
    "orchestration.serialize_s": "s",
    "orchestration.store_put_s": "s",
    "orchestration.store_puts": "count",
    "orchestration.store_bytes": "bytes",
    "orchestration.store_get_s": "s",
    "orchestration.assemble_s": "s",
    "orchestration.task_wall_s": "s",
    "orchestration.task_queue_s": "s",
    "orchestration.pool_busy_ratio": "ratio",
    "obs.trace_store_s": "s",
    "obs.trace_overhead": "ratio",
    "ledger.unattributed_s": "s",
    "ledger.coverage": "ratio",
}


def _parse(argv: list[str]) -> argparse.Namespace:
    import specs

    parser = argparse.ArgumentParser(
        description="Time the cold-store figure workloads end to end."
    )
    parser.add_argument(
        "--workload", required=True, choices=(*specs.WORKLOADS, "all")
    )
    parser.add_argument("--seed", type=int, default=specs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=specs.SIZES, default="full",
        help="'tiny' shrinks every workload to a smoke-test scale",
    )
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
class Run:
    """One benchmark run of one workload: its specs, its passes and the
    check outcome of every pass."""

    def __init__(self, options: argparse.Namespace, workload: str, directory: Path) -> None:
        import specs

        self.options = options
        self.workload = workload
        self.directory = directory
        self.specs = specs.build(workload, options.seed, options.size)
        self.tasks = specs.task_order(self.specs)
        self.specs_path = directory / "specs.json"
        self.specs_path.write_text(specs.specs_document(self.specs))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.passes: list[dict] = []
        #: scaled seconds to a started pool of every good set-up-only launch
        self.setups: list[float] = []
        #: the stderr tail of every failed set-up-only launch
        self.setup_errors: list[list[str]] = []
        #: the first good pass's store, kept for the sampled checks
        self.kept_store: Path | None = None

    def _launch(self, directory: Path, mode: str, pool: str) -> tuple[float, dict]:
        """Run one driver interpreter in a new ``directory`` to its end.

        Returns its launch instant and its report, or, when it failed,
        ``{"error": [the last lines of its stderr]}``.
        """
        directory.mkdir()
        out = directory / "report.json"
        command = [
            sys.executable, str(HERE / "driver.py"),
            "--specs", str(self.specs_path),
            "--store", str(directory / "store"),
            "--out", str(out),
            "--pool", pool,
            "--mode", mode,
        ]
        errors = directory / "stderr.txt"
        with errors.open("w") as stderr:
            launch = time.monotonic()
            process = subprocess.Popen(
                command + ["--launch", repr(launch)],
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                start_new_session=True,
            )
            try:
                process.wait(timeout=PASS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                stderr.write(f"\npass killed after {PASS_TIMEOUT_S:.0f}s\n")
            finally:
                if process.poll() is None:
                    os.killpg(process.pid, signal.SIGKILL)
                process.wait()
        if process.returncode == 0 and out.exists():
            return launch, json.loads(out.read_text())
        return launch, {"error": errors.read_text().strip().splitlines()[-3:]}

    def run_setup(self) -> None:
        """One set-up-only launch (``driver.py --mode setup``)."""
        directory = self.directory / f"setup-{len(self.setups) + len(self.setup_errors)}"
        _, report = self._launch(directory, "setup", "warm")
        if "error" in report:
            self.setup_errors.append(report["error"])
        else:
            self.setups.append(report["setup_s"] / report["setup_slowdown"])
        shutil.rmtree(directory, ignore_errors=True)

    def run_pass(self, mode: str, pool: str) -> dict:
        """Launch one driver pass; its report plus its digests."""
        import verify

        directory = self.directory / f"pass-{len(self.passes)}"
        launch, report = self._launch(directory, mode, pool)
        record: dict = {"mode": mode, "pool": pool, "ok": "error" not in report}
        record.update(report)
        if record["ok"]:
            record["raw_wall_s"] = record["stamps"]["assembled"] - launch
            record["wall_s"] = record["raw_wall_s"] / record["slowdown"]
            record["check"] = verify.digest_pass(
                directory / "store", self.tasks, record["tables"]
            )
        if record["ok"] and mode != "traced" and self.kept_store is None:
            self.kept_store = directory / "store"
        else:
            shutil.rmtree(directory / "store", ignore_errors=True)
        self.passes.append(record)
        return record

    # ------------------------------------------------------------------
    def check(self) -> tuple[int, int, list[str]]:
        """``(attempted, failed, problems)`` over every pass so far."""
        import verify

        options = self.options
        expected = verify.load_reference(self.workload, options.seed)
        if options.size != "full":
            expected = None
        problems: list[str] = []
        failed = 0
        for index, record in enumerate(self.passes):
            if not record["ok"]:
                failed += len(self.tasks)
                problems.append(f"pass {index} failed: {' | '.join(record['error'])}")
                continue
            if record["computed"] != len(self.tasks):
                failed += len(self.tasks) - record["computed"]
                problems.append(
                    f"pass {index} computed {record['computed']} of "
                    f"{len(self.tasks)} tasks: the store was not cold"
                )
            observed = dict(
                record["check"], sim_refs=record["sim_refs"], epochs=record["epochs"]
            )
            if expected is None:
                expected = observed  # every later pass must agree
                continue
            found = verify.compare_pass(observed, expected)
            failed += len(found)
            problems += [f"pass {index}: {message}" for message in found]
        if self.kept_store is not None:
            sample = verify.resimulation_sample(
                self.workload, options.seed, self.tasks, options.size
            )
            found = verify.resimulate(self.kept_store, sample)
            found += verify.differential(self.kept_store, self.tasks)
            failed += len(found)
            problems += found
        # A set-up-only launch counts as one attempt of its own.
        failed += len(self.setup_errors)
        problems += [f"set-up launch failed: {' | '.join(error)}" for error in self.setup_errors]
        attempted = len(self.tasks) * len(self.passes) + len(self.setups) + len(self.setup_errors)
        return attempted, min(failed, attempted), problems

    def good(self) -> list[dict]:
        return [record for record in self.passes if record["ok"]]


def _until(deadline: float, durations: list[float], minimum: int) -> bool:
    """Whether another pass of typical length still fits."""
    if len(durations) < minimum:
        return True
    return time.monotonic() + statistics.median(durations) <= deadline


def measure_end_to_end(run: Run) -> dict[str, list[float]]:
    deadline = time.monotonic() + run.options.seconds
    for _ in range(SETUP_LAUNCHES):
        run.run_setup()
    durations: list[float] = []
    while _until(deadline, durations, MIN_PASSES):
        started = time.monotonic()
        run.run_pass("plain", "warm")
        durations.append(time.monotonic() - started)
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    good = run.good()
    samples["setup_s"] = run.setups + [
        record["setup_s"] / record["setup_slowdown"] for record in good
    ]
    for record in good:
        samples["wall_s"].append(record["wall_s"])
        samples["sim_refs_per_s"].append(record["sim_refs"] / record["wall_s"])
        samples["peak_rss_mb"].append(record["peak_rss_mb"])
    return samples


def measure_layers(run: Run) -> dict[str, list[float]]:
    deadline = time.monotonic() + run.options.seconds
    durations: list[float] = []
    pairs = []
    while _until(deadline, durations, 1):
        started = time.monotonic()
        serial = run.run_pass("plain", "serial")
        traced = run.run_pass("traced", "serial")
        durations.append(time.monotonic() - started)
        if serial["ok"] and traced["ok"]:
            pairs.append((serial, traced))
    warm = run.run_pass("metrics", "warm")
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    if not warm["ok"]:
        return samples
    for serial, traced in pairs:
        for name, value in layer_metrics(traced, serial, warm).items():
            samples[name].append(value)
    return samples


def layer_metrics(traced: dict, serial: dict, warm: dict) -> dict[str, float]:
    """Every per-layer metric from one (untraced serial, traced serial)
    pair plus the warm metrics pass; see README.md for definitions."""
    from ledger import attributed_s

    ledger = traced["ledger"]
    self_s, total_s = ledger["self_s"], ledger["total_s"]
    calls, counts = ledger["calls"], ledger["counts"]
    tracer = traced["tracer"]
    wall = traced["raw_wall_s"]
    kernel_span = tracer.get("kernel_seconds", 0.0)
    run_span = self_s.get("engine.c_run_span", 0.0)
    kinds = ("alone", "group", "scenario")
    run_self = sum(self_s.get(f"sim.run.{kind}", 0.0) for kind in kinds)
    marshal = kernel_span - run_span
    attributed = attributed_s(self_s)
    stamps = warm["stamps"]
    task_metrics = warm["task_metrics"]
    task_wall = task_metrics["repro_task_wall_seconds"]["sum"]
    prefetch_wall = stamps["prefetched"] - stamps["prefetch"]
    span_calls = calls.get("engine.c_run_span", 0)
    return {
        "setup.interpreter_s": stamps["start"] - warm["launch"],
        "setup.import_s": stamps["imported"] - stamps["probed"],
        "engine.kernel_load_s": stamps["kernel"] - stamps["imported"],
        "orchestration.pool_start_s": stamps["pool_started"] - stamps["pool_start"],
        "workloads.trace_gen_s": self_s.get("workloads.trace_gen", 0.0),
        "workloads.traces": calls.get("workloads.trace_gen", 0),
        "sim.construct_s": self_s.get("sim.construct", 0.0),
        "sim.runs": sum(calls.get(f"sim.run.{kind}", 0) for kind in kinds),
        "sim.run_s.alone": total_s.get("sim.run.alone", 0.0),
        "sim.run_s.group": total_s.get("sim.run.group", 0.0),
        "sim.run_s.scenario": total_s.get("sim.run.scenario", 0.0),
        "engine.c_kernel_s": run_span + self_s.get("engine.c_warm_sweep", 0.0),
        "engine.c_calls": span_calls + calls.get("engine.c_warm_sweep", 0),
        "engine.kernel_span_s": kernel_span,
        "engine.marshal_s": marshal,
        "engine.other_s": run_self - marshal,
        "engine.refs_per_c_call": (
            tracer.get("kernel_refs", 0) / span_calls if span_calls else 0.0
        ),
        "engine.sim_refs": traced["sim_refs"],
        "engine.python_fallback_runs": counts.get("engine.python_fallback_runs", 0),
        "partitioning.epoch_s": self_s.get("partitioning.epoch", 0.0),
        "partitioning.epochs": traced["epochs"],
        "dvfs.epoch_s": self_s.get("dvfs.epoch", 0.0),
        "dvfs.decisions": calls.get("dvfs.epoch", 0),
        "orchestration.serialize_s": self_s.get("orchestration.serialize", 0.0),
        "orchestration.store_put_s": self_s.get("orchestration.store_put", 0.0),
        "orchestration.store_puts": counts.get("orchestration.store_puts", 0),
        "orchestration.store_bytes": serial["check"]["store_bytes"],
        "orchestration.store_get_s": self_s.get("orchestration.store_get", 0.0),
        "orchestration.assemble_s": total_s.get("orchestration.assemble", 0.0),
        "orchestration.task_wall_s": task_wall,
        "orchestration.task_queue_s": task_metrics["repro_task_queue_seconds"]["sum"],
        "orchestration.pool_busy_ratio": task_wall / (warm["jobs"] * prefetch_wall),
        "obs.trace_store_s": self_s.get("obs.trace_store", 0.0),
        "obs.trace_overhead": traced["wall_s"] / serial["wall_s"],
        "ledger.unattributed_s": wall - attributed,
        "ledger.coverage": attributed / wall,
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _median(values: list[float], unit: str) -> float:
    """The median; a count stays a whole number."""
    if unit in ("count", "bytes"):
        return statistics.median_low(values)
    return statistics.median(values)


def _summary(name: str, unit: str, values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples
    beyond it, and the sample count."""
    ordered = sorted(values)
    count = len(ordered)
    line = f"  {name:<32}{_median(ordered, unit):>14.6g} {unit:<10} n={count}"
    if count > 10:
        rank = count - 10  # 1-based: ten samples lie beyond it
        line += f"  p{100 * rank / count:.0f}={ordered[rank - 1]:.6g}"
    return line


def measure(options: argparse.Namespace, workload: str) -> dict | None:
    """One workload's run; the result object, or None when no pass
    succeeded."""
    directory = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    try:
        run = Run(options, workload, directory)
        catalogue = PER_LAYER if options.trace else END_TO_END
        samples = (measure_layers if options.trace else measure_end_to_end)(run)
        attempted, failed, problems = run.check()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(
        f"{workload} seed={options.seed} size={options.size} "
        f"trace={options.trace}: {len(run.passes)} passes, "
        f"{len(run.tasks)} tasks each, engine "
        f"{next((r['engine'] for r in run.good()), '?')}"
    )
    for problem in problems[:10]:
        print(f"  CHECK FAILED {problem}")
    if not all(samples.values()):
        return None
    for name, values in samples.items():
        print(_summary(name, catalogue[name], values))
    good = run.good()
    print(_summary("unscaled wall", "s", [record["raw_wall_s"] for record in good]))
    print(_summary("host slowdown", "x", [record["slowdown"] for record in good]))
    print(f"  {'failed_share':<32}{failed / attempted:>14.6g} {'ratio':<10} "
          f"({failed} of {attempted} attempts)")
    if options.trace:
        coverage = statistics.median(samples["ledger.coverage"])
        if coverage < COVERAGE_FLOOR:
            print(f"  WARNING ledger coverage {coverage:.3f} < {COVERAGE_FLOOR}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": _median(values, catalogue[name]), "unit": catalogue[name]}
            for name, values in samples.items()
        },
    }


def main(argv: list[str]) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    options = _parse(argv)
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_KERNEL_CACHE"] = str(WORK / "kernel")
    # The compiler's and Python's temporary files stay in the checkout.
    os.environ["TMPDIR"] = str(WORK / "tmp")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    from repro.engine import compiled_available

    compiled_available()  # builds the kernel once; passes load it warm

    import specs

    workloads = specs.WORKLOADS if options.workload == "all" else (options.workload,)
    results = {}
    for workload in workloads:
        results[workload] = measure(options, workload)
        if results[workload] is None:
            print(f"perfbench: every pass of {workload} failed", file=sys.stderr)
            return 1
    if len(results) == 1:
        (combined,) = results.values()
    else:
        combined = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, result in results.items()
                for name, metric in result["metrics"].items()
            },
        }
    print(json.dumps(combined, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
