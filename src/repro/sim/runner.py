"""Experiment driver: one run path for alone/group/scenario specs.

The paper's protocol needs three kinds of runs, all served by
:meth:`ExperimentRunner.run` over a declarative
:class:`~repro.experiment.Experiment` spec:

* **alone runs** (one benchmark, full LLC, Unmanaged) provide
  IPC_alone for weighted speedup, Table 3's MPKI classification and
  the per-epoch profiled miss curves Dynamic CPE consumes;
* **group runs** (a Table 4 group under one scheme) produce the
  figures' raw data;
* **scenario runs** execute a time-varying schedule of core
  arrivals/departures/phase changes.

Fanning many specs out across worker processes is the job of
:class:`~repro.orchestration.SweepExecutor`, which owns a
store-backed runner and reads every result back through it.

Caching is two-level.  The in-process dictionary is the L1: hits
return the very same objects, so repeated reads within a session are
free.  Like the store, it is keyed by task key, not by spec value
(equal specs can carry different keys, ``threshold=0`` vs ``0.0``).
When a :class:`~repro.orchestration.store.ResultStore` is attached it
acts as the L2: results are looked up on disk before simulating and
written through after, so sweeps survive process restarts and can be
sharded across worker processes.  Store task keys come from
:meth:`Experiment.task_key`, which reproduces the historical
string-API keys exactly — artifacts written before the spec redesign
stay resolvable, bit-identically.

:meth:`ExperimentRunner.alone` remains as a thin documented
convenience over an alone spec.

Traces are generated once per (benchmark, geometry) and shared across
schemes, so every comparison is paired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.experiment import Experiment
from repro.metrics.speedup import weighted_speedup
from repro.sim.config import SystemConfig
from repro.sim.simulator import CMPSimulator
from repro.sim.stats import RunResult
from repro.workloads.profiles import profile_for
from repro.workloads.trace import Trace, generate_trace

if TYPE_CHECKING:
    from repro.orchestration.store import ResultStore

#: the five evaluated schemes, in the paper's legend order
ALL_POLICIES = ("unmanaged", "fair_share", "cpe", "ucp", "cooperative")


@dataclass(frozen=True)
class AloneResult:
    """Outcome of one benchmark's isolated profiling run."""

    benchmark: str
    ipc: float
    mpki: float
    #: per-epoch miss curves (for Dynamic CPE's profile)
    curves: tuple[tuple[int, ...], ...]


class ExperimentRunner:
    """Caches and runs :class:`Experiment` specs; optionally disk-backed.

    ``store`` attaches an on-disk L2 cache of results.  ``engine``
    pins the execution backend of every simulation this runner
    performs (see :meth:`CMPSimulator.run`); None lets each run
    resolve ``$REPRO_ENGINE``/auto itself.  The runner simulates in
    this process only; a :class:`~repro.orchestration.SweepExecutor`
    fans specs out and reads them back through its own runner.
    """

    def __init__(
        self,
        store: "ResultStore | None" = None,
        engine: str | None = None,
    ) -> None:
        self._traces: dict[tuple, Trace] = {}
        #: the L1, keyed like the store: equal specs can carry different
        #: task keys (``threshold=0`` vs ``0.0``), so never by spec value
        self._results: dict[str, RunResult | AloneResult] = {}
        self.store = store
        self.engine = engine

    # ------------------------------------------------------------------
    # Traces
    # ------------------------------------------------------------------
    def trace_for(self, benchmark: str, config: SystemConfig) -> Trace:
        """The deterministic trace of ``benchmark`` on this geometry."""
        key = (benchmark, config.l2, config.l1, config.refs_per_core, config.seed)
        trace = self._traces.get(key)
        if trace is None:
            trace = generate_trace(
                profile_for(benchmark),
                config.l2,
                config.l1.total_lines,
                config.refs_per_core,
                seed=config.seed,
            )
            self._traces[key] = trace
        return trace

    # ------------------------------------------------------------------
    # The one run path
    # ------------------------------------------------------------------
    def run(self, experiment: Experiment) -> RunResult | AloneResult:
        """Run one spec (L1/L2 cached): the single entry point for
        alone, group and scenario simulations alike.

        When tracing is enabled the cache-miss path records a task
        span in this process's recorder (a warm pool worker ships it
        home with the task's result).
        """
        result = self.cached(experiment)
        if result is not None:
            return result
        from repro.obs.trace import timed

        kind = experiment.kind
        with timed(experiment.label, kind=kind, key=experiment.task_key()):
            if kind == "alone":
                result = self._simulate_alone(experiment)
            elif kind == "group":
                result = self._simulate_group(experiment)
            else:
                result = self._simulate_scenario(experiment)
            self._to_store(experiment, result)
        self._results[experiment.task_key()] = result
        return result

    def cached(self, experiment: Experiment) -> RunResult | AloneResult | None:
        """L1/L2 lookup of a spec without simulating.

        A disk hit is promoted into the in-memory cache, so callers
        that probe and then read (the sweep executor's planning pass)
        parse each artifact once.
        """
        key = experiment.task_key()
        result = self._results.get(key)
        if result is None:
            result = self._from_store(experiment)
            if result is not None:
                self._results[key] = result
        return result

    def probe(self, experiment: Experiment) -> bool:
        """Whether this spec's result is already available.

        This is :meth:`cached`: a store hit is parsed once and kept in
        memory, so the sweep executor's planning pass (which probes)
        leaves assembly nothing to read, and a damaged artifact is a
        miss here, where the sweep can still recompute it.
        """
        return self.cached(experiment) is not None

    # ------------------------------------------------------------------
    # Simulation bodies (cache misses only)
    # ------------------------------------------------------------------
    def _simulate_alone(self, experiment: Experiment) -> AloneResult:
        benchmark = experiment.workload.name
        config = experiment.system  # already the one-core alone() variant
        trace = self.trace_for(benchmark, config)
        simulator = CMPSimulator(
            config, [trace], experiment.policy, collect_curves=True
        )
        run = simulator.run(self.engine)
        core = run.cores[0]
        return AloneResult(
            benchmark=benchmark,
            ipc=core.ipc,
            mpki=core.mpki,
            curves=tuple(tuple(curve) for curve in run.epoch_curves),
        )

    def _profiles_for(
        self, experiment: Experiment, benchmarks: Iterable[str | None]
    ) -> list[list]:
        """Per-slot profiled miss curves for profile-driven policies
        (absent slots get a flat zero curve the lookahead never
        rewards)."""
        config = experiment.system
        profiles: list[list] = []
        for benchmark in benchmarks:
            if benchmark is None:
                profiles.append([0] * (config.l2.ways + 1))
            else:
                profiles.append(
                    [
                        list(curve)
                        for curve in self.alone(benchmark, config).curves
                    ]
                )
        return profiles

    def _simulate_group(self, experiment: Experiment) -> RunResult:
        config = experiment.system
        benchmarks = experiment.workload.benchmarks
        traces = [self.trace_for(benchmark, config) for benchmark in benchmarks]
        profiles = None
        if experiment.policy.info.profile_kwarg is not None:
            profiles = self._profiles_for(experiment, benchmarks)
        simulator = CMPSimulator(
            config,
            traces,
            experiment.policy,
            cpe_profiles=profiles,
            governor=experiment.governor,
        )
        return simulator.run(self.engine)

    def _simulate_scenario(self, experiment: Experiment) -> RunResult:
        config = experiment.system
        scenario = experiment.scenario
        profiles = None
        if experiment.policy.info.profile_kwarg is not None:
            profiles = self._profiles_for(
                experiment, scenario.arrival_benchmarks(config.n_cores)
            )
        simulator = CMPSimulator.for_scenario(
            config,
            scenario,
            experiment.policy,
            lambda benchmark: self.trace_for(benchmark, config),
            cpe_profiles=profiles,
            collect_timeline=True,
            governor=experiment.governor,
        )
        return simulator.run(self.engine)

    # ------------------------------------------------------------------
    # Store plumbing
    # ------------------------------------------------------------------
    def _from_store(
        self, experiment: Experiment
    ) -> RunResult | AloneResult | None:
        if self.store is None:
            return None
        from repro.orchestration import serialize

        # Decoding inside the store's read makes an undecodable payload
        # a discarded miss, like any other damaged artifact.
        return self.store._read(
            experiment.task_key(),
            serialize.alone_result_from_dict
            if experiment.kind == "alone"
            else serialize.run_result_from_dict,
        )

    def _to_store(
        self, experiment: Experiment, result: RunResult | AloneResult
    ) -> None:
        if self.store is None:
            return
        from repro.orchestration import serialize

        payload = (
            serialize.alone_result_to_dict(result)
            if isinstance(result, AloneResult)
            else serialize.run_result_to_dict(result)
        )
        self.store.put(
            experiment.task_key(),
            payload,
            kind=experiment.kind,
            meta=experiment.store_meta(),
        )

    # ------------------------------------------------------------------
    # Convenience wrappers (thin, spec-backed)
    # ------------------------------------------------------------------
    def alone(self, benchmark: str, config: SystemConfig) -> AloneResult:
        """Run ``benchmark`` by itself on the full LLC (cached)."""
        return self.run(Experiment.alone_run(benchmark, system=config))

    def weighted_speedup_of(self, run: RunResult, config: SystemConfig) -> float:
        """Equation (1) for a finished group run."""
        alone_ipcs = [self.alone(core.benchmark, config).ipc for core in run.cores]
        return weighted_speedup(run.ipcs(), alone_ipcs)

    # ------------------------------------------------------------------
    # Normalisation
    # ------------------------------------------------------------------
    def normalized_weighted_speedup(
        self,
        results: dict[str, dict[str, RunResult]],
        config: SystemConfig,
        baseline: str = "fair_share",
    ) -> dict[str, dict[str, float]]:
        """Figure 5/8 rows: weighted speedup normalised to Fair Share."""
        table: dict[str, dict[str, float]] = {}
        for group, runs in results.items():
            speedups = {
                policy: self.weighted_speedup_of(run, config)
                for policy, run in runs.items()
            }
            base = speedups[baseline]
            table[group] = {policy: ws / base for policy, ws in speedups.items()}
        return table

    @staticmethod
    def normalized_energy(
        results: dict[str, dict[str, RunResult]],
        kind: str,
        baseline: str = "fair_share",
    ) -> dict[str, dict[str, float]]:
        """Figure 6/7/9/10 rows: energy normalised to Fair Share.

        ``kind`` is ``"dynamic"`` or ``"static"``.  Dynamic energy is
        compared per unit of work (nJ/kilo-instruction) and static
        energy as leakage power, matching the paper's protocol of
        equal work per application (see :class:`RunResult`).
        """
        if kind == "dynamic":
            attribute = "dynamic_energy_per_kiloinstruction"
        elif kind == "static":
            attribute = "static_power_nw"
        else:
            raise ValueError(f"kind must be 'dynamic' or 'static', got {kind!r}")
        table: dict[str, dict[str, float]] = {}
        for group, runs in results.items():
            base = getattr(runs[baseline], attribute)
            table[group] = {
                policy: getattr(run, attribute) / base for policy, run in runs.items()
            }
        return table

