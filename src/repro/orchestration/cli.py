"""``repro`` — the command-line front end of the reproduction.

Seven subcommands drive the whole evaluation through the orchestrator:

* ``repro sweep``    — run a (group × scheme) cross-product in
  parallel, persisting every result; re-running is a cache-hit no-op.
  ``--spec experiments.json`` instead runs an explicit JSON list of
  serialised :class:`~repro.experiment.Experiment` specs (mixed
  alone/group/scenario runs welcome) through the store-backed
  executor.  ``--dry-run`` prints the planned task list with per-task
  store hit/miss status and runs nothing.
* ``repro alone``    — profile benchmarks in isolation (Table 3).
* ``repro report``   — render the figure tables from stored artifacts
  only (never simulates; tells you what to sweep if results are
  missing).  ``--format {table,json,csv}`` makes the output
  machine-readable.
* ``repro scenario`` — run a time-varying schedule (consolidation,
  arrival or phase preset, or a ``--spec`` JSON file) under the
  selected schemes and print the recorded timeline plus a comparison
  against the matching static run.  ``--suite {quick,full}`` instead
  drives the committed scenario corpus through the differential
  invariant harness — every selected policy × governor combination,
  exiting non-zero on any violation (see ``docs/scenarios.md``).
* ``repro trace``    — inspect trace files: ``repro trace view``
  converts one into a Perfetto-loadable Chrome trace.
* ``repro clean``    — drop the store.
* ``repro check``    — run the project-invariant static analysis
  (determinism/concurrency/meta rules, ``# repro: noqa[...]``
  suppressions; see ``docs/static-analysis.md``).

``sweep``, ``alone`` and ``scenario`` share one run path: each builds
its :class:`~repro.experiment.Experiment` specs and runs them through
one session owning the store and the sweep executor, so ``--jobs``
fans out scenario presets and suites just as it fans out sweeps.

Every run-shaped command accepts ``--cores``, ``--refs-per-core``,
``--groups``, ``--policies`` and ``--threshold`` to select the slice
of the evaluation, ``--governor``/``--governor-param`` to run it
under a DVFS governor (see ``docs/energy.md``), plus ``--store``,
``--jobs`` and ``--pool`` for the orchestration knobs
(``$REPRO_STORE`` / ``$REPRO_JOBS`` / ``$REPRO_POOL`` set the
defaults; see ``docs/distributed.md`` for the pool backends).
Installed as a console script by ``setup.py``; ``python -m repro`` is
the equivalent for source checkouts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from dataclasses import asdict
from typing import Any, Iterable, Sequence

from repro import obs
from repro.analysis.cli import add_check_arguments, cmd_check
from repro.dvfs.governors import GovernorSpec, registered_governors
from repro.engine import EngineUnavailableError
from repro.experiment import Experiment
from repro.metrics.figures import METRICS, figure_tables
from repro.obs.log import progress
from repro.obs.trace import read_events, to_chrome_trace, write_trace_file
from repro.orchestration.executor import SweepExecutor, resolve_jobs
from repro.orchestration.pools import POOL_NAMES, SERIAL
from repro.orchestration.serialize import scenario_from_dict, scenario_to_dict
from repro.orchestration.store import ResultStore, default_store_path
from repro.render import Column, csv_text, json_text, table
from repro.scenarios.model import (
    Scenario, arrival_scenario, consolidation_scenario, phased_scenario,
)
from repro.scenarios.timeline import render_timeline
from repro.sim.config import (
    FIGURE_REFS_PER_CORE, SystemConfig, scaled_four_core, scaled_two_core,
)
from repro.sim.runner import ALL_POLICIES, AloneResult, ExperimentRunner
from repro.workloads.groups import group_benchmarks, group_names
from repro.workloads.profiles import BENCHMARK_PROFILES, classify_mpki


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``repro`` console script; returns exit code."""
    parser = build_parser()
    options = parser.parse_args(argv)
    found_recorder, found_quiet = obs.recorder(), obs.quiet()
    _apply_obs(options)
    try:
        return options.handler(options)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        obs.set_recorder(found_recorder)
        obs.set_quiet(found_quiet)


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the Cooperative Partitioning (HPCA 2012) evaluation.",
    )
    from repro import __version__

    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--store", default=None, metavar="DIR",
        help="result store directory (default: $REPRO_STORE or .repro/store)",
    )

    pooling = argparse.ArgumentParser(add_help=False)
    pooling.add_argument(
        "--pool", default=None, metavar="NAME",
        choices=POOL_NAMES,
        help="execution pool backend: warm (persistent workers; the "
             "default) or serial (inline); default: $REPRO_POOL",
    )

    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record hierarchical trace spans (sweep/task/run/epoch) and "
             "write the merged trace to FILE on exit — Chrome/Perfetto "
             "JSON when FILE ends in .json, JSONL otherwise (convert "
             "with `repro trace view`); pool workers ship theirs home",
    )
    obs_flags.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="record trace spans as --trace does and write the metrics "
             "read from them as a Prometheus text dump to FILE on exit "
             "('-' prints the dump alone to stdout, and the command's "
             "tables to stderr)",
    )

    jobs_flag = argparse.ArgumentParser(add_help=False)
    jobs_flag.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for a sweep, an alone profile, or a "
             "scenario preset or suite (default: $REPRO_JOBS or CPU count)",
    )

    engine_flag = argparse.ArgumentParser(add_help=False)
    engine_flag.add_argument(
        "--engine", default=None, metavar="NAME",
        choices=("auto", "python", "compiled"),
        help="execution backend every task (workers included) runs on "
             "(default: $REPRO_ENGINE, then auto); every backend is "
             "bit-identical, this only changes speed",
    )

    quiet_flag = argparse.ArgumentParser(add_help=False)
    quiet_flag.add_argument(
        "--quiet", action="store_true",
        help="suppress progress lines on stderr; result tables still "
             "print to stdout",
    )

    selection = argparse.ArgumentParser(add_help=False)
    selection.add_argument(
        "--cores", type=int, choices=(2, 4), default=2,
        help="system geometry: 2-core (8-way 2MB-class L2) or 4-core (16-way)",
    )
    selection.add_argument(
        "--refs-per-core", type=int, default=None, metavar="N",
        help=f"measured references per core (default: {FIGURE_REFS_PER_CORE[2]} "
             f"for 2-core, {FIGURE_REFS_PER_CORE[4]} for 4-core — the benchmark "
             "harness's scales, so a default sweep pre-populates the figures' "
             "cache)",
    )
    selection.add_argument(
        "--groups", default=None, metavar="SPEC",
        help="comma-separated Table 4 group names (e.g. G2-1,G2-8) or a "
             "number N meaning the first N groups; default: all 14",
    )
    selection.add_argument(
        "--policies", default=None, metavar="LIST",
        help=f"comma-separated schemes out of {','.join(ALL_POLICIES)}; default: all",
    )
    selection.add_argument(
        "--threshold", type=float, default=None, metavar="T",
        help="override the takeover threshold (paper default 0.05)",
    )
    selection.add_argument(
        "--governor", default=None, metavar="NAME",
        help="run group/scenario simulations under a DVFS governor "
             "(fixed, ondemand, coordinated, or a registered third-party "
             "name); default: none — the nominal-frequency machine",
    )
    selection.add_argument(
        "--governor-param", action="append", default=None,
        metavar="KEY=VALUE",
        help="governor parameter binding, repeatable (e.g. "
             "--governor coordinated --governor-param qos_slowdown=0.1); "
             "values parse as JSON, falling back to plain strings",
    )

    sweep = commands.add_parser(
        "sweep",
        parents=[common, selection, pooling, jobs_flag, engine_flag, obs_flags,
                 quiet_flag],
        help="run a group x scheme sweep in parallel and print the figure tables",
    )
    sweep.add_argument(
        "--metric", choices=(*METRICS, "all"), default="speedup",
        help="which normalised table(s) to print (default: speedup)",
    )
    sweep.add_argument(
        "--spec", default=None, metavar="FILE",
        help="run a JSON list of serialised Experiment specs (the "
             "Experiment.to_dict format; see docs/api.md) instead of the "
             "--cores/--groups/--policies grid, printing one summary row "
             "per spec",
    )
    sweep.add_argument(
        "--dry-run", action="store_true",
        help="print the planned task list (alone-run dependencies "
             "included) with per-task store hit/miss status and exit "
             "without simulating anything",
    )
    sweep.set_defaults(handler=_run_command, run=_sweep)

    alone = commands.add_parser(
        "alone",
        parents=[common, selection, pooling, jobs_flag, engine_flag, quiet_flag],
        help="profile benchmarks in isolation (Table 3's MPKI classification)",
    )
    alone.add_argument(
        "benchmarks", nargs="*", metavar="BENCHMARK",
        help="benchmarks to profile (default: all 19)",
    )
    alone.set_defaults(handler=_run_command, run=_alone)

    report = commands.add_parser(
        "report", parents=[common, selection],
        help="print the figure tables from stored results (never simulates)",
    )
    report.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="output format: human tables, one JSON document, or flat "
             "metric,group,policy,value CSV rows (default: table)",
    )
    report.set_defaults(handler=_cmd_report)

    scenario = commands.add_parser(
        "scenario", parents=[common, selection, jobs_flag, obs_flags, quiet_flag],
        help="run a time-varying schedule (arrivals/departures/phases) "
             "and print its timeline",
    )
    scenario.add_argument(
        "--preset", choices=("consolidation", "arrival", "phases"),
        default="consolidation",
        help="schedule shape: consolidation (half the cores depart "
             "mid-run), arrival (the last core joins mid-run), phases "
             "(core 0 switches benchmark mid-run); default: consolidation",
    )
    scenario.add_argument(
        "--spec", default=None, metavar="FILE",
        help="JSON schedule file (the scenario_to_dict format) overriding "
             "--preset",
    )
    scenario.add_argument(
        "--group", default=None, metavar="NAME",
        help="Table 4 group supplying the applications (default: G2-1 / G4-1)",
    )
    scenario.add_argument(
        "--at-fraction", type=float, default=0.35, metavar="F",
        help="preset event position within the measured window of the "
             "static baseline run, 0..1 (default: 0.35)",
    )
    scenario.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="output format (default: table)",
    )
    scenario.add_argument(
        "--suite", choices=("quick", "full"), default=None,
        help="run the differential suite over the committed scenario "
             "corpus instead of a single schedule: every selected "
             "(scenario x policy x governor) combination through the "
             "store-backed runner plus the invariant harness; exits "
             "non-zero on any violation (see docs/scenarios.md)",
    )
    scenario.add_argument(
        "--governors", default=None, metavar="LIST",
        help="suite mode: comma-separated governor settings, 'none' "
             "meaning the ungoverned machine (default: none,coordinated "
             "for quick; none,fixed,ondemand,coordinated for full)",
    )
    scenario.add_argument(
        "--filter", default=None, metavar="SUBSTR",
        help="suite mode: keep only corpus scenarios whose name "
             "contains SUBSTR (e.g. 'storm', '4c')",
    )
    scenario.add_argument(
        "--list", action="store_true",
        help="suite mode: print the selected corpus scenarios and exit "
             "without running anything",
    )
    scenario.add_argument(
        "--report", default=None, metavar="FILE",
        help="suite mode: also write the JSON report to FILE (the CI "
             "artifact shape)",
    )
    scenario.set_defaults(handler=_run_command, run=_scenario)

    trace = commands.add_parser(
        "trace",
        help="inspect observability trace files (see docs/observability.md)",
    )
    trace_actions = trace.add_subparsers(dest="trace_command", required=True)
    trace_view = trace_actions.add_parser(
        "view",
        help="convert a trace (JSONL or Chrome JSON) into a "
             "Perfetto-loadable Chrome trace-event file",
    )
    trace_view.add_argument("file", metavar="TRACE")
    trace_view.add_argument(
        "-o", "--output", default=None, metavar="OUT.json",
        help="where to write the Chrome JSON (default: stdout)",
    )
    trace_view.set_defaults(handler=_cmd_trace_view)

    clean = commands.add_parser(
        "clean", parents=[common], help="delete every stored artifact"
    )
    clean.set_defaults(handler=_cmd_clean)

    check = commands.add_parser(
        "check",
        help="run the project-invariant static analysis "
             "(see docs/static-analysis.md)",
    )
    add_check_arguments(check)
    check.set_defaults(handler=cmd_check)
    return parser


# ----------------------------------------------------------------------
# Selection helpers
# ----------------------------------------------------------------------
def _config_from(options: argparse.Namespace) -> SystemConfig:
    refs = options.refs_per_core
    if refs is None:
        refs = FIGURE_REFS_PER_CORE[options.cores]
    if refs <= 0:
        raise SystemExit(f"--refs-per-core must be positive, got {refs}")
    factory = scaled_two_core if options.cores == 2 else scaled_four_core
    config = factory(refs_per_core=refs)
    if options.threshold is not None:
        try:
            config = config.with_threshold(options.threshold)
        except ValueError as error:
            raise SystemExit(f"bad --threshold: {error}")
    return config


def _names(spec: str) -> tuple[str, ...]:
    """The names of a comma-separated list option, blanks dropped."""
    return tuple(token.strip() for token in spec.split(",") if token.strip())


def _groups_from(options: argparse.Namespace) -> list[str]:
    names = group_names(options.cores)
    spec = options.groups
    if not spec:
        return names
    try:
        count = int(spec)
    except ValueError:
        chosen = _names(spec)
        unknown = [g for g in chosen if g not in names]
        if unknown:
            raise SystemExit(
                f"unknown group(s) {', '.join(unknown)} for --cores "
                f"{options.cores}; valid: {', '.join(names)}"
            )
        return list(chosen)
    if count <= 0:
        raise SystemExit(f"--groups must name groups or a positive count, got {count}")
    return names[:count]


def _policies_from(options: argparse.Namespace) -> tuple[str, ...]:
    spec = options.policies
    if not spec:
        return ALL_POLICIES
    chosen = _names(spec)
    unknown = [p for p in chosen if p not in ALL_POLICIES]
    if unknown:
        raise SystemExit(
            f"unknown polic{'ies' if len(unknown) > 1 else 'y'} "
            f"{', '.join(unknown)}; valid: {', '.join(ALL_POLICIES)}"
        )
    return chosen


def _governor_from(options: argparse.Namespace):
    """Build the selected :class:`GovernorSpec` (None when no
    ``--governor`` was given)."""
    raw_params = options.governor_param or []
    if options.governor is None:
        if raw_params:
            raise SystemExit(
                "--governor-param requires --governor NAME "
                f"(registered: {', '.join(registered_governors())})"
            )
        return None
    params = {}
    for binding in raw_params:
        key, separator, value = binding.partition("=")
        if not separator or not key:
            raise SystemExit(
                f"--governor-param must look like KEY=VALUE, got {binding!r}"
            )
        try:
            params[key] = json.loads(value)
        except ValueError:
            params[key] = value
    try:
        return GovernorSpec(options.governor, **params)
    except (TypeError, ValueError) as error:
        raise SystemExit(f"bad --governor selection: {error}")


def _store_from(options: argparse.Namespace) -> ResultStore:
    return ResultStore(options.store if options.store else default_store_path())


def _apply_obs(options: argparse.Namespace) -> None:
    """Honour --quiet/--trace/--metrics before the handler runs.

    Either of the last two installs a fresh recorder, so a command's
    trace and metrics hold its own events only; :func:`main` puts back
    the recorder and the quiet switch it found.  The switches are set
    before the executor exists, so its warm pool captures them and
    passes them on to its workers.
    """
    if getattr(options, "quiet", False):
        obs.set_quiet(True)
    if getattr(options, "trace", None) or getattr(options, "metrics", None):
        obs.set_recorder(obs.TraceRecorder())


def _finish_obs(options: argparse.Namespace) -> None:
    """Write --trace/--metrics output after a run command returns.

    Both read every event of this process's recorder: its own spans
    plus those each pool worker shipped home with a task (a cached
    task simulated nothing and has none).  The metrics are rendered
    from those events (:mod:`repro.obs.metrics`).
    """
    trace_path = getattr(options, "trace", None)
    if trace_path:
        count = write_trace_file(obs.recorder().events(), trace_path)
        obs.progress(f"wrote {count} trace event(s) to {trace_path}")
    metrics_path = getattr(options, "metrics", None)
    if metrics_path:
        text = obs.render_prometheus()
        if metrics_path == "-":
            sys.stdout.write(text)
        else:
            with open(metrics_path, "w", encoding="utf-8") as handle:
                handle.write(text)
            obs.progress(f"wrote metrics to {metrics_path}")


# ----------------------------------------------------------------------
# The figure tables
# ----------------------------------------------------------------------
def _grid(
    options: argparse.Namespace,
) -> tuple[SystemConfig, list[str], tuple[str, ...], list[Experiment]]:
    """The selected (group x scheme) grid of ``sweep`` and ``report``:
    its config, groups, schemes and :class:`Experiment` specs."""
    config = _config_from(options)
    groups = _groups_from(options)
    policies = _policies_from(options)
    governor = _governor_from(options)
    experiments = Experiment.grid(config, groups, policies, governor=governor)
    return config, groups, policies, experiments


def _print_figures(
    runner: ExperimentRunner,
    experiments: list[Experiment],
    config: SystemConfig,
    policies: Sequence[str],
    metrics: Iterable[str],
    output_format: str = "table",
) -> None:
    """Print a run grid's normalised figure tables as human tables,
    one JSON document or flat metric,group,policy,value CSV rows."""
    results = {spec: runner.run(spec) for spec in experiments}
    tables = figure_tables(runner, results, config, policies, metrics)
    if output_format == "json":
        sys.stdout.write(json_text({
            "n_cores": config.n_cores,
            "refs_per_core": config.refs_per_core,
            "policies": list(policies),
            "metrics": {metric: asdict(figure) for metric, figure in tables.items()},
        }))
        return
    if output_format == "csv":
        print(csv_text(("metric", "group", "policy", "value"), (
            (metric, group, policy, row[policy])
            for metric, figure in tables.items()
            for group, row in figure.rows()
            for policy in policies
        )))
        return
    for figure in tables.values():
        print(f"\n=== {figure.title} ===")
        print(figure.render())


# ----------------------------------------------------------------------
# The run path: specs -> session -> render
# ----------------------------------------------------------------------
class _Session:
    """The store and executor of one simulating command.

    The engine pin and ``--jobs``/``--pool`` resolve here,
    once; an unavailable engine or a bad pool selection exits cleanly.
    Every :meth:`run` prefetches, so :attr:`runner` reads are hits.
    """

    def __init__(self, options: argparse.Namespace) -> None:
        self.store = _store_from(options)
        try:
            self.executor = SweepExecutor(
                self.store,
                resolve_jobs(options.jobs),
                progress=progress,
                engine=getattr(options, "engine", None),
                pool=getattr(options, "pool", None),
            )
        except (EngineUnavailableError, ValueError) as error:
            raise SystemExit(str(error))
        self.runner = self.executor.runner
        self.computed = self.cached = 0
        self.started = time.perf_counter()

    def run(self, specs: Iterable[Experiment]) -> None:
        """Materialise ``specs`` (and their alone dependencies)."""
        computed, cached = self.executor.prefetch(specs)
        self.computed += computed
        self.cached += cached

    def tally(self, note: str = "") -> str:
        """The summary tail: task counts, store, elapsed time, pool."""
        elapsed = time.perf_counter() - self.started
        executor = self.executor
        # The serial pool runs every task inline, whatever --jobs says.
        workers = 1 if executor.pool_name == SERIAL else executor.max_workers
        return (
            f"{self.computed} tasks computed, {self.cached} cached in "
            f"{self.store.root} ({note}{elapsed:.1f}s, "
            f"{workers} workers, {executor.pool_name} pool)"
        )


def _run_command(options: argparse.Namespace) -> int:
    """``sweep``, ``alone`` and ``scenario``: build the subcommand's
    specs, run them through one :class:`_Session`, render.  With
    ``--metrics -`` the rendering goes to stderr, so stdout holds the
    Prometheus dump alone."""
    session = _Session(options)
    tables = sys.stderr if getattr(options, "metrics", None) == "-" else sys.stdout
    try:
        with contextlib.redirect_stdout(tables):
            code = options.run(options, session)
    finally:
        session.executor.close()
    _finish_obs(options)
    return code


def _render_dry_run(session: _Session, experiments: list) -> int:
    """``repro sweep --dry-run``: the planned task list, no simulation."""
    plan = session.executor.plan_report(experiments)
    columns = (Column("status", "<8"), Column("kind", "<10"),
               Column("experiment", "<44"), Column("key", "<14"))
    print(table(columns, [
        ("hit" if cached else "miss", experiment.kind, experiment.label,
         experiment.task_key()[:12])
        for experiment, cached in plan
    ]))
    missing = sum(1 for _, cached in plan if not cached)
    print(
        f"\n{len(plan)} task(s) planned (alone-run dependencies "
        f"included); {len(plan) - missing} cached in {session.store.root}, "
        f"{missing} would be computed — dry run, nothing executed"
    )
    return 0


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _sweep(options: argparse.Namespace, session: _Session) -> int:
    """``repro sweep``: the group x scheme grid, or ``--spec FILE``."""
    if options.spec:
        experiments = _spec_experiments(options)
    else:
        config, groups, policies, experiments = _grid(options)
    if options.dry_run:
        return _render_dry_run(session, experiments)
    session.run(experiments)
    if options.spec:
        _print_spec_rows(session.runner, experiments)
        print(f"\n{len(experiments)} spec(s); {session.tally()}")
        return 0
    metrics = tuple(METRICS) if options.metric == "all" else (options.metric,)
    _print_figures(session.runner, experiments, config, policies, metrics)
    print(
        f"\n{len(experiments)} group runs over {len(groups)} groups x "
        f"{len(policies)} schemes; "
        f"{session.tally('alone-run dependencies included; ')}"
    )
    return 0


def _spec_experiments(options: argparse.Namespace) -> list[Experiment]:
    """The Experiment list of ``repro sweep --spec FILE``."""
    if _governor_from(options) is not None:
        raise SystemExit(
            "--governor cannot be combined with --spec: each spec "
            "document carries its own governor (the Experiment.to_dict "
            "'governor' field)"
        )
    with open(options.spec, "r", encoding="utf-8") as handle:
        documents = json.load(handle)
    if not isinstance(documents, list):
        raise SystemExit(
            f"{options.spec} must hold a JSON *list* of Experiment specs "
            f"(got {type(documents).__name__})"
        )
    try:
        return [Experiment.from_dict(document) for document in documents]
    except (KeyError, TypeError, ValueError) as error:
        raise SystemExit(f"bad experiment spec in {options.spec}: {error}")


def _print_spec_rows(runner: ExperimentRunner, experiments: list) -> None:
    """One summary row per ``--spec`` experiment."""
    rows = []
    for experiment in experiments:
        result = runner.run(experiment)
        if isinstance(result, AloneResult):
            headline = f"ipc={result.ipc:.3f} mpki={result.mpki:.2f}"
        else:
            headline = (
                f"dyn={result.dynamic_energy_nj:,.0f}nJ "
                f"static={result.static_energy_nj:,.0f}nJ "
                f"ways={result.average_active_ways:.1f}"
            )
        rows.append(
            (experiment.kind, experiment.label, experiment.task_key()[:12], headline)
        )
    columns = (Column("kind", "<10"), Column("experiment", "<38"),
               Column("key", "<14"), Column("headline", "<40"))
    print(table(columns, rows))


def _alone(options: argparse.Namespace, session: _Session) -> int:
    """``repro alone``: profile benchmarks, one row per argument."""
    if _governor_from(options) is not None:
        raise SystemExit(
            "alone runs always profile at the nominal frequency (no "
            "--governor): IPC_alone is the QoS reference every DVFS "
            "comparison is measured against"
        )
    config = _config_from(options).alone()
    names = options.benchmarks or sorted(BENCHMARK_PROFILES)
    unknown = [name for name in names if name not in BENCHMARK_PROFILES]
    if unknown:
        raise SystemExit(
            f"unknown benchmark(s) {', '.join(unknown)}; valid: "
            f"{', '.join(sorted(BENCHMARK_PROFILES))}"
        )
    specs = [Experiment.alone_run(name, system=config) for name in names]
    session.run(specs)
    results = [session.runner.run(spec) for spec in specs]
    columns = (Column("benchmark", "<12"), Column("paper MPKI", ">12", ".2f"),
               Column("measured", ">12", ".2f"), Column("IPC", ">8", ".3f"),
               Column("class", ">9"))
    print(f"\n=== alone runs on {config.l2.describe()} ===")
    print(table(columns, [
        (name, BENCHMARK_PROFILES[name].mpki, result.mpki, result.ipc,
         classify_mpki(result.mpki).value)
        for name, result in zip(names, results)
    ]))
    return 0


def _cmd_report(options: argparse.Namespace) -> int:
    config, _, policies, experiments = _grid(options)
    store = _store_from(options)
    runner = ExperimentRunner(store=store)
    # A corrupt artifact reads as a miss, so report refuses instead of
    # simulating it.  A hit stays in the runner's memory, so rendering
    # parses no artifact twice.
    missing = sorted({
        f"{spec.workload.name}/{spec.policy_name}"
        if spec.kind == "group"
        else f"alone/{spec.workload.name}"
        for experiment in experiments
        for spec in (experiment, *experiment.alone_dependencies())
        if runner.cached(spec) is None
    })
    if missing:
        shown = ", ".join(missing[:10])
        print(
            f"{len(missing)} result(s) missing from {store.root} "
            f"({shown}{', ...' if len(missing) > 10 else ''}); "
            f"run the matching `repro sweep` first",
            file=sys.stderr,
        )
        return 1
    _print_figures(runner, experiments, config, policies, METRICS, options.format)
    return 0


def _scenario(options: argparse.Namespace, session: _Session) -> int:
    """``repro scenario``: a preset or ``--spec`` schedule under each
    selected scheme, against its static baseline."""
    if options.suite:
        return _scenario_suite(options, session)
    config = _config_from(options)
    policies = _policies_from(options)
    governor = _governor_from(options)
    group = options.group or ("G2-1" if options.cores == 2 else "G4-1")
    benchmarks = group_benchmarks(group)
    if len(benchmarks) != config.n_cores:
        raise SystemExit(
            f"group {group} has {len(benchmarks)} applications but "
            f"--cores is {config.n_cores}"
        )

    def under_each_policy(schedule: Scenario) -> dict[str, Experiment]:
        return {
            policy: Experiment.for_scenario(
                schedule, system=config, policy=policy, governor=governor
            )
            for policy in policies
        }

    if options.spec:
        try:
            with open(options.spec, "r", encoding="utf-8") as handle:
                scenario = scenario_from_dict(json.load(handle))
            scenario.validate(config.n_cores)
        except (OSError, ValueError) as error:
            raise SystemExit(
                f"cannot read scenario spec {options.spec}: {error}"
            ) from None
        # The comparison baseline must run the spec's own workload mix:
        # each slot's arrival benchmark, present from cycle 0.
        static = Scenario.static(
            scenario.arrival_benchmarks(config.n_cores),
            name=f"static-{scenario.name}",
        )
    else:
        static = Scenario.static(benchmarks, name=f"static-{group}")
        if not 0.0 <= options.at_fraction <= 1.0:
            raise SystemExit(
                f"--at-fraction must be in [0, 1], got {options.at_fraction}"
            )
    baselines = under_each_policy(static)
    session.run(baselines.values())
    if not options.spec:
        # Calibrate the preset's event cycle from the first scheme's
        # static baseline: its measured window places the event.
        probe = session.runner.run(baselines[policies[0]])
        window_start = probe.end_cycle - probe.window_cycles
        event_cycle = window_start + int(
            probe.window_cycles * options.at_fraction
        )
        n = config.n_cores
        if options.preset == "consolidation":
            scenario = consolidation_scenario(
                benchmarks, list(range(n // 2, n)), event_cycle,
                name=f"consolidation-{group}",
            )
        elif options.preset == "arrival":
            scenario = arrival_scenario(
                benchmarks, n - 1, event_cycle, name=f"arrival-{group}"
            )
        else:
            scenario = phased_scenario(
                benchmarks, 0, ["lbm"], [event_cycle], name=f"phases-{group}"
            )
    runs = under_each_policy(scenario)
    session.run(runs.values())

    document: dict = {
        "scenario": scenario_to_dict(scenario),
        "group": group,
        "n_cores": config.n_cores,
        "refs_per_core": config.refs_per_core,
        "governor": governor.to_dict() if governor is not None else None,
        "runs": {},
    }
    for policy in policies:
        run = session.runner.run(runs[policy])
        baseline = session.runner.run(baselines[policy])
        takeovers = sum(run.policy_stats.takeover_events.values())
        summary = {
            "static_energy_nj": run.static_energy_nj,
            "static_energy_nj_baseline": baseline.static_energy_nj,
            "dynamic_energy_nj": run.dynamic_energy_nj,
            "core_energy_nj": run.core_energy_nj,
            "total_energy_nj": run.total_energy_nj,
            "average_active_ways": run.average_active_ways,
            "min_powered_ways": run.min_powered_ways(),
            "initial_powered_ways": (
                run.timeline[0].powered_ways if run.timeline else config.l2.ways
            ),
            "transitions_started": run.policy_stats.transitions_started,
            "takeover_events": takeovers,
            "transfer_flushes": run.policy_stats.transfer_flushes,
            "end_cycle": run.end_cycle,
        }
        document["runs"][policy] = {
            "summary": summary,
            "timeline": [sample.to_dict() for sample in run.timeline],
        }
        if options.format == "table":
            print(f"\n=== scenario {scenario.name} under {run.policy} ===")
            print(render_timeline(run.timeline, config.l2.ways))
            ratio = (
                run.static_energy_nj / baseline.static_energy_nj
                if baseline.static_energy_nj
                else float("nan")
            )
            print(
                f"static energy {run.static_energy_nj:,.1f} nJ vs "
                f"{baseline.static_energy_nj:,.1f} nJ static baseline "
                f"({ratio:.2f}x); powered ways "
                f"{summary['initial_powered_ways']} -> min "
                f"{summary['min_powered_ways']}; "
                f"{summary['transitions_started']} way transitions, "
                f"{takeovers} takeover events, "
                f"{summary['transfer_flushes']} transfer flushes"
            )
    if options.format == "json":
        sys.stdout.write(json_text(document))
    elif options.format == "csv":
        header = ("policy", "cycle", "active_cores", "allocations", "powered_ways",
                  "static_energy_nj", "dynamic_energy_nj", "events")
        print(csv_text(header, (
            (policy, sample["cycle"], "+".join(map(str, sample["active_cores"])),
             "+".join(map(str, sample["allocations"])), sample["powered_ways"],
             sample["static_energy_nj"], sample["dynamic_energy_nj"],
             "+".join(sample["events"]))
            for policy, data in document["runs"].items()
            for sample in data["timeline"]
        )))
    return 0


def _scenario_suite(options: argparse.Namespace, session: _Session) -> int:
    """``repro scenario --suite``: the corpus differential harness."""
    from repro.bench.differential import (
        render_report,
        run_suite,
        suite_entries,
        suite_experiments,
        suite_governors,
        suite_policies,
    )

    for value, flag in (
        (options.spec, "--spec"),
        (options.group, "--group"),
        (options.governor, "--governor"),
        (options.governor_param, "--governor-param"),
    ):
        if value:
            raise SystemExit(
                f"{flag} cannot be combined with --suite: the suite draws "
                f"its scenarios from the committed corpus and its governor "
                f"settings from --governors"
            )
    policies = (
        _policies_from(options)
        if options.policies
        else suite_policies(options.suite)
    )
    governors = (
        _names(options.governors)
        if options.governors
        else suite_governors(options.suite)
    )
    if options.list:
        try:
            entries = suite_entries(options.suite, name_filter=options.filter)
        except ValueError as error:
            raise SystemExit(str(error))
        for entry in entries:
            print(
                f"{entry.name:<24} shape={entry.shape:<14} "
                f"cores={entry.n_cores} events={len(entry.scenario.events)}"
            )
        print(
            f"{len(entries)} scenario(s) x {len(policies)} policies x "
            f"{len(governors)} governors = "
            f"{len(entries) * len(policies) * len(governors)} runs"
        )
        return 0
    selection: dict[str, Any] = dict(
        policies=policies, governors=governors,
        name_filter=options.filter, refs_per_core=options.refs_per_core,
    )
    try:
        session.run(suite_experiments(options.suite, **selection).values())
        report = run_suite(
            options.suite, runner=session.runner, progress=progress, **selection
        )
    except ValueError as error:
        raise SystemExit(str(error))
    if options.report:
        with open(options.report, "w", encoding="utf-8") as handle:
            handle.write(json_text(report.to_dict()))
        progress(f"wrote report to {options.report}")
    if options.format == "json":
        sys.stdout.write(json_text(report.to_dict()))
    elif options.format == "csv":
        fields = ("scenario", "shape", "n_cores", "policy", "governor", "end_cycle",
                  "total_energy_nj", "static_power_nw", "min_powered_ways",
                  "violations")
        print(csv_text(fields, ([row[f] for f in fields] for row in report.rows)))
    else:
        print(render_report(report))
    return 0 if report.ok else 1


def _cmd_trace_view(options: argparse.Namespace) -> int:
    """``repro trace view``: emit a Perfetto-loadable Chrome trace."""
    try:
        events = read_events(options.file)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        raise SystemExit(f"cannot read trace {options.file}: {error}")
    document = to_chrome_trace(events)
    if options.output:
        with open(options.output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
            handle.write("\n")
        progress(
            f"wrote {len(events)} event(s) to {options.output} "
            f"(load at https://ui.perfetto.dev)"
        )
    else:
        sys.stdout.write(json_text(document))
    return 0


def _cmd_clean(options: argparse.Namespace) -> int:
    store = _store_from(options)
    removed = store.clean()
    print(f"removed {removed} artifact(s) from {store.root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
