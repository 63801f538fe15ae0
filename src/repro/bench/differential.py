"""Differential invariant harness over the scenario corpus.

The scenario engine times five policies against four governor settings
over arbitrary schedules — a space far too large for hand-written
expectations.  This module checks *relations* instead of values, at
three depths:

* :func:`check_run` — per-run engine invariants readable off a
  store-backed :class:`~repro.sim.stats.RunResult`: powered ways stay
  inside the LLC geometry, the timeline boundary clock and every
  cumulative energy series are monotone, departed cores stay
  frequency-gated, and DVFS fields appear exactly when a governor ran.
* :func:`check_cross` — cross-policy / cross-governor sanity over the
  runs of one scenario: ``cooperative`` never leaks more than
  ``unmanaged``; a default ``fixed`` governor is bit-identical to the
  pre-DVFS machine on the LLC side; ``coordinated`` honours its QoS
  budget against the ungoverned run and beats fixed-nominal on total
  energy.
* :func:`check_live` — invariants that need the simulator itself, not
  just its result: the incremental occupancy counters against a
  brute-force recount of the cache arrays.

:func:`run_suite` drives the committed corpus through the existing
store-backed run path (``ExperimentRunner``), applies every check, and
renders a summary table / JSON report; ``repro scenario --suite`` is
the CLI face.  Same checks, one graded knob: the ``quick`` suite is
the CI smoke, ``full`` is the pre-tentpole regression net.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.dvfs.governors import GovernorSpec
from repro.experiment import Experiment
from repro.render import Column, table
from repro.scenarios.corpus import CorpusEntry, load_corpus
from repro.scenarios.generate import CORPUS_SHAPES
from repro.sim.config import SystemConfig, scaled_four_core, scaled_two_core
from repro.sim.runner import ALL_POLICIES, ExperimentRunner
from repro.sim.stats import RunResult

__all__ = [
    "Violation",
    "SuiteReport",
    "SUITES",
    "GATING_POLICIES",
    "check_run",
    "check_cross",
    "check_live",
    "check_simulator",
    "governor_label",
    "governor_from_label",
    "suite_entries",
    "suite_policies",
    "suite_governors",
    "suite_config",
    "run_suite",
    "render_report",
]

#: suite grades, mildest first
SUITES = ("quick", "full")

#: policies that flush-and-gate LLC ways when a core departs
GATING_POLICIES = ("cooperative", "cpe")

#: absolute/relative slack for float accumulator comparisons
FLOAT_SLACK = 1e-9

#: DVFS timing-model tolerance for QoS compliance checks.  On static
#: workloads the analytic slowdown model is within ~2% (the
#: ``bench_dvfs_qos_energy`` constant); under dynamic schedules the
#: controller reacts on *stale* epoch telemetry — an arrival or phase
#: change shifts a core's miss mix an epoch before the governor can
#: respond — which adds a few percent of honest model error.  The
#: check still catches gross breakage (an unconstrained governor
#: slows memory-bound cores 30%+).
QOS_TOLERANCE = 0.05

#: slack for cross-governor total-energy comparisons: a slowed core
#: stretches wall time, and the extra LLC leakage of the longer window
#: can nibble at the V² core savings on short suite-sized runs
ENERGY_TOLERANCE = 0.02

#: suite refs per core, sized so corpus horizons land inside the run
DEFAULT_SUITE_REFS = {2: 6_000, 4: 5_000}

#: suite epoch length — several epochs inside even the shortest run
DEFAULT_SUITE_EPOCH = 60_000

_QUICK_SEED = 0


# ----------------------------------------------------------------------
# Violations
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Violation:
    """One invariant breach: which check, on which run, and how."""

    check: str
    subject: str
    detail: str

    def to_dict(self) -> dict[str, str]:
        return {
            "check": self.check,
            "subject": self.subject,
            "detail": self.detail,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.check}] {self.subject}: {self.detail}"


# ----------------------------------------------------------------------
# Governor labels (the suite's spelling of "no governor")
# ----------------------------------------------------------------------
def governor_label(governor: GovernorSpec | str | None) -> str:
    """The suite label of a governor setting (``"none"`` = no DVFS)."""
    if governor is None:
        return "none"
    if isinstance(governor, str):
        return governor
    return governor.name


def governor_from_label(label: str) -> GovernorSpec | None:
    """Inverse of :func:`governor_label` with default parameters."""
    if label == "none":
        return None
    return GovernorSpec(label)


# ----------------------------------------------------------------------
# Per-run invariants (store-backed results are enough)
# ----------------------------------------------------------------------
def check_run(experiment: Experiment, run: RunResult) -> list[Violation]:
    """Engine invariants on one scenario run's result + timeline."""
    subject = _subject(experiment)
    ways = experiment.system.l2.ways
    n_cores = experiment.system.n_cores
    governed = experiment.governor is not None
    violations: list[Violation] = []

    def fail(check: str, detail: str) -> None:
        violations.append(Violation(check, subject, detail))

    # -- geometry bounds ----------------------------------------------
    for index, sample in enumerate(run.timeline):
        if not 0 <= sample.powered_ways <= ways:
            fail(
                "powered-ways-bounds",
                f"sample #{index} at cycle {sample.cycle} powers "
                f"{sample.powered_ways} ways outside [0, {ways}]",
            )
        if len(sample.allocations) != n_cores or any(
            not 0 <= allocation <= ways for allocation in sample.allocations
        ):
            fail(
                "allocation-bounds",
                f"sample #{index} allocations {sample.allocations} leave "
                f"[0, {ways}]^{n_cores}",
            )
        if any(not 0 <= core < n_cores for core in sample.active_cores):
            fail(
                "active-cores-bounds",
                f"sample #{index} active cores {sample.active_cores} "
                f"name slots outside the {n_cores}-core machine",
            )

    # -- monotone boundary clock --------------------------------------
    cycles = [sample.cycle for sample in run.timeline]
    for a, b in zip(cycles, cycles[1:]):
        if b < a:
            fail("monotone-clock", f"timeline clock steps back {a} -> {b}")
            break
    if cycles and cycles[-1] > run.end_cycle:
        fail(
            "monotone-clock",
            f"last sample at {cycles[-1]} outlives end_cycle {run.end_cycle}",
        )

    # -- cumulative energies are monotone non-decreasing --------------
    for check, series in (
        ("monotone-static-energy", [s.static_energy_nj for s in run.timeline]),
        (
            "monotone-dynamic-energy",
            [s.dynamic_energy_nj for s in run.timeline],
        ),
        ("monotone-core-energy", [s.core_energy_nj for s in run.timeline]),
    ):
        for a, b in zip(series, series[1:]):
            if b < a - FLOAT_SLACK * max(abs(a), 1.0):
                fail(check, f"cumulative series decreases {a} -> {b}")
                break
    for field in ("static_energy_nj", "dynamic_energy_nj", "core_energy_nj"):
        if getattr(run, field) < 0.0:
            fail("nonnegative-energy", f"{field} = {getattr(run, field)}")

    # -- departures gate leakage for the gating policies --------------
    # (the result's ``policy`` is the display name; the experiment
    # carries the registry name the tuple uses)
    if experiment.policy_name in GATING_POLICIES:
        for index in range(1, len(run.timeline)):
            sample = run.timeline[index]
            if not sample.events or not all(
                event.startswith("depart:") for event in sample.events
            ):
                continue
            previous = run.timeline[index - 1]
            if sample.powered_ways > previous.powered_ways:
                fail(
                    "depart-gating",
                    f"departure at cycle {sample.cycle} raises powered "
                    f"ways {previous.powered_ways} -> {sample.powered_ways}",
                )

    # -- DVFS fields appear exactly when a governor ran ---------------
    if governed:
        expected = governor_label(experiment.governor)
        if run.governor != expected:
            fail(
                "dvfs-fields",
                f"result records governor {run.governor!r}, spec says "
                f"{expected!r}",
            )
        for index, sample in enumerate(run.timeline):
            if len(sample.frequencies_mhz) != n_cores or len(
                sample.voltages_mv
            ) != n_cores:
                fail(
                    "dvfs-fields",
                    f"sample #{index} misses per-slot V/f for the "
                    f"{n_cores}-core machine",
                )
                break
        violations.extend(_check_departed_frequencies(subject, run))
    else:
        if run.governor is not None:
            fail("dvfs-fields", f"ungoverned run records {run.governor!r}")
        if run.core_energy_nj != 0.0:
            fail(
                "gated-core-energy",
                f"ungoverned run charges {run.core_energy_nj} nJ of core "
                f"energy",
            )
        for index, sample in enumerate(run.timeline):
            if sample.frequencies_mhz or sample.voltages_mv or (
                sample.core_energy_nj != 0.0
            ):
                fail(
                    "dvfs-fields",
                    f"ungoverned sample #{index} carries DVFS fields",
                )
                break
    return violations


def _check_departed_frequencies(
    subject: str, run: RunResult
) -> list[Violation]:
    """After ``depart:coreN``, slot N must stay at 0 MHz (gated)."""
    violations: list[Violation] = []
    departed: dict[int, int] = {}
    for index, sample in enumerate(run.timeline):
        for event in sample.events:
            if event.startswith("depart:core"):
                try:
                    core = int(event[len("depart:core"):])
                except ValueError:  # pragma: no cover - label contract
                    continue
                departed.setdefault(core, index)
    for core, since in departed.items():
        for sample in run.timeline[since + 1:]:
            if core < len(sample.frequencies_mhz) and (
                sample.frequencies_mhz[core] != 0
            ):
                violations.append(
                    Violation(
                        "departed-frequency",
                        subject,
                        f"core {core} departed but still clocks "
                        f"{sample.frequencies_mhz[core]} MHz at cycle "
                        f"{sample.cycle}",
                    )
                )
                break
    return violations


# ----------------------------------------------------------------------
# Cross-run sanity (one scenario, many policies × governors)
# ----------------------------------------------------------------------
def check_cross(
    scenario_name: str,
    runs: Mapping[tuple[str, str], RunResult],
    governors: Mapping[str, GovernorSpec | None] | None = None,
    scenario=None,
) -> list[Violation]:
    """Differential checks over one scenario's (policy, governor) grid.

    ``runs`` maps ``(policy, governor_label)`` to the run; ``governors``
    maps each label to the spec that produced it (defaults rebuild the
    spec from the label, so parameterised suites should pass it).
    ``scenario`` (when given) scopes the QoS check to the cores whose
    measured window is actually comparable across governors — resident
    from cycle 0, never departing.  A core that departs at a fixed
    wall-clock cycle executes *less* work under a slowed clock, and a
    late arrival's window starts wherever the stretched schedule puts
    it, so their cycle ratios measure the schedule, not the governor.
    """
    if governors is None:
        governors = {
            label: governor_from_label(label)
            for label in {key[1] for key in runs}
        }
    violations: list[Violation] = []
    policies = sorted({key[0] for key in runs})
    labels = sorted({key[1] for key in runs})

    # Cooperative (and every other scheme) never leaks more than the
    # unmanaged machine: powered ways are a subset of "all ways, always".
    for label in labels:
        baseline = runs.get(("unmanaged", label))
        if baseline is None or baseline.window_cycles == 0:
            continue
        ceiling = baseline.static_power_nw * (1.0 + FLOAT_SLACK)
        for policy in policies:
            run = runs.get((policy, label))
            if run is None or run.window_cycles == 0:
                continue
            if run.static_power_nw > ceiling:
                violations.append(
                    Violation(
                        "static-power-vs-unmanaged",
                        f"{scenario_name}/{policy}/{label}",
                        f"static power {run.static_power_nw:.3f} nW beats "
                        f"unmanaged's {baseline.static_power_nw:.3f} nW",
                    )
                )

    for policy in policies:
        ungoverned = runs.get((policy, "none"))

        # A default `fixed` governor is the legacy machine spelled
        # explicitly: the whole LLC side must be bit-identical.
        fixed = runs.get((policy, "fixed"))
        fixed_spec = governors.get("fixed")
        if (
            ungoverned is not None
            and fixed is not None
            and (fixed_spec is None or not fixed_spec.non_default_params())
        ):
            violations.extend(
                _check_fixed_identity(
                    f"{scenario_name}/{policy}", ungoverned, fixed
                )
            )

        # The coordinated governor honours its QoS budget against the
        # same schedule at nominal frequency...
        coordinated = runs.get((policy, "coordinated"))
        spec = governors.get("coordinated")
        if coordinated is not None and ungoverned is not None:
            budget = 0.10
            if spec is not None:
                budget = spec.bound_params().get("qos_slowdown", budget)
            eligible = _qos_eligible_cores(
                scenario, len(coordinated.cores)
            )
            for core, (governed_core, reference) in enumerate(
                zip(coordinated.cores, ungoverned.cores)
            ):
                if core not in eligible or reference.cycles == 0:
                    continue
                slowdown = governed_core.cycles / reference.cycles
                if slowdown > 1.0 + budget + QOS_TOLERANCE:
                    violations.append(
                        Violation(
                            "coordinated-qos",
                            f"{scenario_name}/{policy}/coordinated",
                            f"core {core} slowdown {slowdown:.4f} breaks "
                            f"budget 1+{budget}+{QOS_TOLERANCE}",
                        )
                    )

        # ...and never spends more total (LLC + core) energy than the
        # fixed-nominal machine it is allowed to slow down.
        if coordinated is not None and fixed is not None:
            ceiling = fixed.total_energy_nj * (1.0 + ENERGY_TOLERANCE)
            if coordinated.total_energy_nj > ceiling:
                violations.append(
                    Violation(
                        "coordinated-energy",
                        f"{scenario_name}/{policy}/coordinated",
                        f"total energy {coordinated.total_energy_nj:.1f} nJ "
                        f"exceeds fixed-nominal "
                        f"{fixed.total_energy_nj:.1f} nJ (+{ENERGY_TOLERANCE:.0%})",
                    )
                )
    return violations


def _qos_eligible_cores(scenario, n_cores: int) -> set[int]:
    """Cores whose cycle ratio is a fair QoS measure (see check_cross)."""
    if scenario is None:
        return set(range(n_cores))
    departed = {
        event.core for event in scenario.events if event.kind == "depart"
    }
    eligible = set()
    for core in range(n_cores):
        arrival = scenario.arrival_of(core)
        if arrival is not None and arrival.at_cycle == 0 and (
            core not in departed
        ):
            eligible.add(core)
    return eligible


_IDENTICAL_FIELDS = (
    "end_cycle",
    "dynamic_energy_nj",
    "static_energy_nj",
    "average_active_ways",
    "average_ways_probed",
    "memory_reads",
    "memory_writebacks",
    "window_instructions",
    "window_cycles",
)


def _check_fixed_identity(
    subject: str, ungoverned: RunResult, fixed: RunResult
) -> list[Violation]:
    violations: list[Violation] = []

    def fail(detail: str) -> None:
        violations.append(Violation("fixed-nominal-identity", subject, detail))

    for field in _IDENTICAL_FIELDS:
        a, b = getattr(ungoverned, field), getattr(fixed, field)
        if a != b:
            fail(f"{field} diverges: none={a!r} fixed={b!r}")
    if ungoverned.cores != fixed.cores:
        fail("per-core results diverge between none and default fixed")
    if len(ungoverned.timeline) != len(fixed.timeline):
        fail(
            f"timeline lengths diverge: none={len(ungoverned.timeline)} "
            f"fixed={len(fixed.timeline)}"
        )
        return violations
    for index, (a, b) in enumerate(
        zip(ungoverned.timeline, fixed.timeline)
    ):
        if (
            a.cycle != b.cycle
            or a.active_cores != b.active_cores
            or a.allocations != b.allocations
            or a.powered_ways != b.powered_ways
            or a.static_energy_nj != b.static_energy_nj
            or a.dynamic_energy_nj != b.dynamic_energy_nj
            or a.events != b.events
        ):
            fail(f"timeline sample #{index} diverges on the LLC side")
            break
    return violations


# ----------------------------------------------------------------------
# Live checks (need the simulator, not just the result)
# ----------------------------------------------------------------------
def check_simulator(subject: str, simulator, run: RunResult) -> list[Violation]:
    """Invariants over live simulator state after a completed run."""
    violations: list[Violation] = []
    config = simulator.config
    ways = config.l2.ways

    active = simulator.policy.active_ways()
    if not 0 <= active <= ways:
        violations.append(
            Violation(
                "powered-ways-bounds",
                subject,
                f"policy reports {active} active ways outside [0, {ways}]",
            )
        )

    # Incremental occupancy counters == brute-force recount of the
    # cache arrays (the partition bookkeeping drifted iff these differ).
    cache = simulator.cache
    recount = [0] * config.n_cores
    for tag, owner in zip(cache.tags, cache.owner):
        if tag != -1 and 0 <= owner < config.n_cores:
            recount[owner] += 1
    incremental = cache.occupancy_by_core(config.n_cores)
    if incremental != recount:
        violations.append(
            Violation(
                "occupancy-recount",
                subject,
                f"incremental occupancy {incremental} != recount {recount}",
            )
        )
    return violations


def check_live(
    experiment: Experiment,
    trace_for: Callable[[str, SystemConfig], Any] | None = None,
) -> tuple[RunResult, list[Violation]]:
    """Simulate ``experiment`` directly and run every live + per-run
    check.  Profile-fed policies (``cpe``) need the runner's alone-run
    plumbing, so live checks stick to the profile-free ones.
    """
    from repro.sim.simulator import CMPSimulator

    if experiment.scenario is None:
        raise ValueError("check_live needs a scenario experiment")
    if experiment.policy.info.profile_kwarg is not None:
        raise ValueError(
            f"live checks do not support profile-fed policy "
            f"{experiment.policy_name!r}"
        )
    if trace_for is None:
        trace_for = ExperimentRunner().trace_for
    config = experiment.system
    simulator = CMPSimulator.for_scenario(
        config,
        experiment.scenario,
        experiment.policy,
        lambda benchmark: trace_for(benchmark, config),
        collect_timeline=True,
        governor=experiment.governor,
    )
    run = simulator.run()
    violations = check_run(experiment, run)
    violations.extend(check_simulator(_subject(experiment), simulator, run))
    return run, violations


def _subject(experiment: Experiment) -> str:
    scenario = experiment.scenario.name if experiment.scenario else "?"
    return (
        f"{scenario}/{experiment.policy_name}/"
        f"{governor_label(experiment.governor)}"
    )


# ----------------------------------------------------------------------
# Suite selection
# ----------------------------------------------------------------------
def suite_entries(
    suite: str = "quick",
    *,
    corpus: Mapping[str, CorpusEntry] | None = None,
    name_filter: str | None = None,
) -> list[CorpusEntry]:
    """The corpus scenarios a suite grade runs, in name order.

    ``quick`` takes the seed-0 scenario of every (shape, core count)
    cell — 10 scenarios; ``full`` takes the whole corpus.  An optional
    substring ``name_filter`` narrows either.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if corpus is None:
        corpus = load_corpus()
    if suite == "quick":
        wanted = [
            f"{shape}-{cores}c-s{_QUICK_SEED:03d}"
            for shape in CORPUS_SHAPES
            for cores in (2, 4)
        ]
        missing = [name for name in wanted if name not in corpus]
        if missing:
            raise ValueError(
                f"quick suite scenarios missing from the corpus: "
                f"{', '.join(missing)}"
            )
        entries = [corpus[name] for name in sorted(wanted)]
    else:
        entries = [corpus[name] for name in sorted(corpus)]
    if name_filter:
        entries = [entry for entry in entries if name_filter in entry.name]
        if not entries:
            raise ValueError(
                f"name filter {name_filter!r} matches no suite scenario"
            )
    return entries


def suite_policies(suite: str = "quick") -> tuple[str, ...]:
    """Default policy selection per suite grade."""
    if suite == "quick":
        return ("unmanaged", "cooperative")
    return tuple(ALL_POLICIES)


def suite_governors(suite: str = "quick") -> tuple[str, ...]:
    """Default governor-label selection per suite grade."""
    if suite == "quick":
        return ("none", "coordinated")
    return ("none", "fixed", "ondemand", "coordinated")


def suite_config(
    entry: CorpusEntry, refs_per_core: int | None = None
) -> SystemConfig:
    """The machine a suite run times ``entry`` on (suite-sized refs)."""
    base = scaled_two_core if entry.n_cores == 2 else scaled_four_core
    refs = refs_per_core or DEFAULT_SUITE_REFS[entry.n_cores]
    config = base(refs_per_core=refs)
    return dataclasses.replace(config, epoch_cycles=DEFAULT_SUITE_EPOCH)


def suite_experiments(
    suite: str = "quick",
    *,
    policies: Sequence[str] | None = None,
    governors: Sequence[GovernorSpec | str | None] | None = None,
    name_filter: str | None = None,
    refs_per_core: int | None = None,
    corpus: Mapping[str, CorpusEntry] | None = None,
) -> dict[tuple[str, str, str], Experiment]:
    """The suite's spec grid, keyed ``(scenario, policy, governor label)``.

    Every selected corpus scenario under every (policy × governor)
    combination on its :func:`suite_config` machine — exactly the runs
    :func:`run_suite` checks, so a caller can materialise them first.
    """
    entries = suite_entries(suite, corpus=corpus, name_filter=name_filter)
    policies = tuple(policies) if policies is not None else suite_policies(suite)
    governor_specs: dict[str, GovernorSpec | None] = {}
    for governor in (
        governors if governors is not None else suite_governors(suite)
    ):
        spec = (
            governor_from_label(governor)
            if governor is None or isinstance(governor, str)
            else governor
        )
        governor_specs[governor_label(spec)] = spec
    return {
        (entry.name, policy, label): Experiment.for_scenario(
            entry.scenario,
            system=suite_config(entry, refs_per_core),
            policy=policy,
            governor=spec,
        )
        for entry in entries
        for policy in policies
        for label, spec in governor_specs.items()
    }


# ----------------------------------------------------------------------
# The suite runner
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SuiteReport:
    """Outcome of one differential suite run."""

    suite: str
    policies: tuple[str, ...]
    governors: tuple[str, ...]
    rows: list[dict[str, Any]]
    violations: list[Violation]
    counts: dict[str, int]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready report (the CI artifact shape)."""
        return {
            "suite": self.suite,
            "policies": list(self.policies),
            "governors": list(self.governors),
            "counts": dict(self.counts),
            "ok": self.ok,
            "rows": [dict(row) for row in self.rows],
            "violations": [v.to_dict() for v in self.violations],
        }

    def render(self) -> str:
        return render_report(self)


def run_suite(
    suite: str = "quick",
    *,
    policies: Sequence[str] | None = None,
    governors: Sequence[GovernorSpec | str | None] | None = None,
    name_filter: str | None = None,
    refs_per_core: int | None = None,
    runner: ExperimentRunner | None = None,
    corpus: Mapping[str, CorpusEntry] | None = None,
    deep: int = 2,
    progress: Callable[[str], None] | None = None,
) -> SuiteReport:
    """Run the differential suite and collect every violation.

    Runs every selected corpus scenario under every (policy ×
    governor) combination through the store-backed run path, applies
    the per-run and cross-run checks, and re-simulates ``deep`` combos
    live for the checks that need simulator state (occupancy recount).
    """
    if corpus is None:
        corpus = load_corpus()
    experiments = suite_experiments(
        suite, policies=policies, governors=governors,
        name_filter=name_filter, refs_per_core=refs_per_core, corpus=corpus,
    )
    entries = suite_entries(suite, corpus=corpus, name_filter=name_filter)
    policies = tuple(policies) if policies is not None else suite_policies(suite)
    governor_specs = {
        label: experiment.governor
        for (_, _, label), experiment in experiments.items()
    }
    if runner is None:
        runner = ExperimentRunner()

    say = progress or (lambda message: None)
    say(
        f"suite {suite}: {len(entries)} scenarios x {len(policies)} "
        f"policies x {len(governor_specs)} governors = "
        f"{len(experiments)} runs"
    )
    runner.prefetch(experiments.values())

    rows: list[dict[str, Any]] = []
    violations: list[Violation] = []
    counts = {
        "scenarios": len(entries),
        "runs": len(experiments),
        "per_run_checks": 0,
        "cross_run_checks": 0,
        "live_checks": 0,
    }
    results: dict[tuple[str, str, str], RunResult] = {}
    for index, ((name, policy, label), experiment) in enumerate(
        experiments.items()
    ):
        run = runner.run(experiment)
        results[(name, policy, label)] = run
        found = check_run(experiment, run)
        counts["per_run_checks"] += 1
        violations.extend(found)
        entry = next(e for e in entries if e.name == name)
        rows.append(
            {
                "scenario": name,
                "shape": entry.shape,
                "n_cores": entry.n_cores,
                "policy": policy,
                "governor": label,
                "end_cycle": run.end_cycle,
                "total_energy_nj": round(run.total_energy_nj, 3),
                "static_power_nw": round(run.static_power_nw, 3),
                "min_powered_ways": run.min_powered_ways(),
                "violations": len(found),
            }
        )
        if progress and (index + 1) % 20 == 0:
            say(f"  {index + 1}/{len(experiments)} runs checked")

    for entry in entries:
        grid = {
            (policy, label): results[(entry.name, policy, label)]
            for policy in policies
            for label in governor_specs
        }
        violations.extend(
            check_cross(entry.name, grid, governor_specs, entry.scenario)
        )
        counts["cross_run_checks"] += 1

    # Deep pass: re-simulate a deterministic sample live for the
    # checks that need the machine itself, not just the result.
    live_policies = [
        policy
        for policy in policies
        if Experiment.for_scenario(
            entries[0].scenario,
            system=suite_config(entries[0]),
            policy=policy,
        ).policy.info.profile_kwarg
        is None
    ]
    if deep > 0 and live_policies:
        stride = max(1, len(entries) // deep)
        sample = entries[::stride][:deep]
        for index, entry in enumerate(sample):
            policy = live_policies[index % len(live_policies)]
            labels = sorted(governor_specs)
            label = labels[index % len(labels)]
            experiment = Experiment.for_scenario(
                entry.scenario,
                system=suite_config(entry, refs_per_core),
                policy=policy,
                governor=governor_specs[label],
            )
            say(f"  live check: {_subject(experiment)}")
            _, found = check_live(experiment, runner.trace_for)
            counts["live_checks"] += 1
            violations.extend(found)

    say(
        f"suite {suite}: {counts['runs']} runs, "
        f"{len(violations)} violation(s)"
    )
    return SuiteReport(
        suite=suite,
        policies=policies,
        governors=tuple(governor_specs),
        rows=rows,
        violations=violations,
        counts=counts,
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
#: the suite table: its columns and the report-row field each one shows
_REPORT_COLUMNS = (
    Column("scenario", "<22"), Column("policy", "<12"), Column("governor", "<12"),
    Column("end cycle", ">10"), Column("total nJ", ">12", ".1f"),
    Column("static nW", ">10", ".3f"), Column("min ways", ">8"),
    Column("bad", ">4"),
)
_REPORT_FIELDS = (
    "scenario", "policy", "governor", "end_cycle", "total_energy_nj",
    "static_power_nw", "min_powered_ways", "violations",
)


def render_report(report: SuiteReport) -> str:
    """The suite summary as a fixed-width table + verdict line."""
    rows = ([row[field] for field in _REPORT_FIELDS] for row in report.rows)
    counts = report.counts
    lines = [
        table(_REPORT_COLUMNS, rows, sep=" ", rule=True),
        "",
        f"suite={report.suite} scenarios={counts['scenarios']} "
        f"runs={counts['runs']} per-run={counts['per_run_checks']} "
        f"cross={counts['cross_run_checks']} live={counts['live_checks']}",
    ]
    if report.ok:
        lines.append("OK: zero invariant violations")
    else:
        lines.append(f"FAIL: {len(report.violations)} invariant violation(s)")
        for violation in report.violations:
            lines.append(f"  {violation}")
    return "\n".join(lines)
