"""Golden-equivalence matrix: the engine's bit-exactness contract.

The hot-path optimisations (array-backed sets, tuple access paths,
the scheduler fast paths) are only admissible because they change
*nothing* about the simulated machine.  This module pins that down:
a fixed matrix of simulations — every scheme x {2, 4} cores x two LLC
geometries — whose complete :class:`~repro.sim.stats.RunResult`
serialisations are committed as JSON fixtures under
``tests/golden/fixtures/``.

``tests/golden/test_engine_equivalence.py`` recomputes the matrix on
every test run and compares against the fixtures field by field; a
single drifted counter (a hit, a probed way, a nanojoule) fails the
suite.  The committed fixtures were generated from the pre-overhaul
seed engine, so they prove the optimised engine reproduces it exactly.

Regenerate (only when a *deliberate* model change invalidates them)::

    PYTHONPATH=src python -m repro.bench.golden tests/golden/fixtures
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from repro.cache.geometry import CacheGeometry
from repro.dvfs.governors import GovernorSpec
from repro.experiment import Experiment
from repro.orchestration.serialize import run_result_to_dict
from repro.render import json_text
from repro.scenarios.model import (
    Scenario,
    arrival_scenario,
    consolidation_scenario,
    phased_scenario,
)
from repro.sim.config import SystemConfig, scaled_four_core, scaled_two_core
from repro.sim.runner import ALL_POLICIES, ExperimentRunner
from repro.sim.stats import RunResult
from repro.workloads.groups import group_benchmarks

#: fixture payload schema; bump on incompatible layout changes
GOLDEN_SCHEMA = 1


@dataclass(frozen=True)
class GoldenCase:
    """One pinned simulation of the equivalence matrix."""

    name: str
    cores: int
    geometry: str  # "base" or "small"
    policy: str
    group: str
    refs_per_core: int

    def config(self) -> SystemConfig:
        """The exact system configuration of this case."""
        factory = scaled_two_core if self.cores == 2 else scaled_four_core
        config = factory(refs_per_core=self.refs_per_core)
        if self.geometry == "small":
            # Same associativity (the partitioned quantity), half the
            # sets: exercises set-index/tag handling on a second shape.
            small = CacheGeometry(
                config.l2.size_bytes // 2, config.l2.line_bytes, config.l2.ways
            )
            config = dataclasses.replace(config, l2=small)
        return config

    @property
    def filename(self) -> str:
        """Fixture file name for this case."""
        return f"{self.name}.json"


def golden_matrix() -> list[GoldenCase]:
    """Every scheme x {2, 4} cores x {base, small} LLC geometry."""
    cases = []
    for cores, group, refs in ((2, "G2-1", 8_000), (4, "G4-1", 6_000)):
        for geometry in ("base", "small"):
            for policy in ALL_POLICIES:
                cases.append(
                    GoldenCase(
                        name=f"{cores}c_{geometry}_{policy}",
                        cores=cores,
                        geometry=geometry,
                        policy=policy,
                        group=group,
                        refs_per_core=refs,
                    )
                )
    return cases


def run_golden_case(case: GoldenCase, runner: ExperimentRunner) -> RunResult:
    """Simulate one case (the runner caches traces and CPE profiles)."""
    return runner.run(Experiment(case.group, case.policy, case.config()))


# ----------------------------------------------------------------------
# Scenario-timeline fixtures
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioGoldenCase:
    """One pinned time-varying schedule whose full result — per-epoch
    timeline, allocations and energy included — is a committed fixture."""

    name: str
    cores: int
    policy: str
    group: str
    refs_per_core: int
    shape: str  # "depart" | "arrive" | "phase"
    event_cycle: int

    def config(self) -> SystemConfig:
        """The exact system configuration of this case."""
        factory = scaled_two_core if self.cores == 2 else scaled_four_core
        return factory(refs_per_core=self.refs_per_core)

    def scenario(self) -> Scenario:
        """The pinned event schedule of this case."""
        benchmarks = group_benchmarks(self.group)
        if self.shape == "depart":
            return consolidation_scenario(
                benchmarks, [len(benchmarks) - 1], self.event_cycle,
                name=self.name,
            )
        if self.shape == "arrive":
            return arrival_scenario(
                benchmarks, len(benchmarks) - 1, self.event_cycle,
                name=self.name,
            )
        if self.shape == "phase":
            return phased_scenario(
                benchmarks, 0, ["lbm"], [self.event_cycle], name=self.name
            )
        raise ValueError(f"unknown scenario shape {self.shape!r}")

    @property
    def filename(self) -> str:
        """Fixture file name for this case."""
        return f"{self.name}.json"


def scenario_golden_matrix() -> list[ScenarioGoldenCase]:
    """Three pinned schedules: a departure and a phase change on the
    two-core system, a late arrival on the four-core system.

    The event cycles sit inside the measured windows of the matching
    static golden runs (2-core window ≈ 2.82M..3.03M cycles at 8000
    refs; 4-core ≈ 1.28M..1.43M at 6000 refs), so the timelines pin
    the interesting transitions, not just the steady state.
    """
    return [
        ScenarioGoldenCase(
            name="scn_2c_depart_cooperative",
            cores=2, policy="cooperative", group="G2-1",
            refs_per_core=8_000, shape="depart", event_cycle=2_880_000,
        ),
        ScenarioGoldenCase(
            name="scn_4c_arrive_cooperative",
            cores=4, policy="cooperative", group="G4-1",
            refs_per_core=6_000, shape="arrive", event_cycle=1_320_000,
        ),
        ScenarioGoldenCase(
            name="scn_2c_phase_ucp",
            cores=2, policy="ucp", group="G2-1",
            refs_per_core=8_000, shape="phase", event_cycle=2_880_000,
        ),
    ]


def run_scenario_golden_case(
    case: ScenarioGoldenCase, runner: ExperimentRunner
) -> RunResult:
    """Simulate one pinned schedule (trace cache shared via the runner)."""
    return runner.run(
        Experiment.for_scenario(
            case.scenario(), system=case.config(), policy=case.policy
        )
    )


# ----------------------------------------------------------------------
# DVFS fixtures
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DvfsGoldenCase:
    """One pinned DVFS run: per-core V/f trajectory, core energy and
    the frequency/voltage timeline are all part of the fixture."""

    name: str
    cores: int
    policy: str
    group: str
    refs_per_core: int
    governor: str
    qos_slowdown: float

    def config(self) -> SystemConfig:
        """The exact system configuration of this case."""
        factory = scaled_two_core if self.cores == 2 else scaled_four_core
        return factory(refs_per_core=self.refs_per_core)

    def governor_spec(self) -> GovernorSpec:
        """The pinned governor binding of this case."""
        return GovernorSpec(self.governor, qos_slowdown=self.qos_slowdown)

    @property
    def filename(self) -> str:
        """Fixture file name for this case."""
        return f"{self.name}.json"


def dvfs_golden_matrix() -> list[DvfsGoldenCase]:
    """One pinned DVFS run: the coordinated governor over cooperative
    partitioning on the two-core system — the headline configuration
    of the DVFS subsystem, energy integrals and timeline included."""
    return [
        DvfsGoldenCase(
            name="dvfs_2c_coordinated_cooperative",
            cores=2, policy="cooperative", group="G2-1",
            refs_per_core=8_000, governor="coordinated", qos_slowdown=0.2,
        ),
    ]


def run_dvfs_golden_case(
    case: DvfsGoldenCase, runner: ExperimentRunner
) -> RunResult:
    """Simulate one pinned DVFS case (trace cache shared via runner)."""
    return runner.run(
        Experiment(
            case.group,
            case.policy,
            case.config(),
            governor=case.governor_spec(),
        )
    )


# ----------------------------------------------------------------------
# Corpus fixtures
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CorpusGoldenCase:
    """One committed corpus scenario whose full result is a fixture.

    This pins two contracts at once: the generator's committed output
    (the scenario is loaded from ``repro/scenarios/corpus/``, so a
    generator drift that changed the committed specs would surface
    here too) and the engine's bit-exact behaviour on a
    generated-storm schedule in the same suite-sized configuration
    the differential harness runs.
    """

    name: str
    scenario_name: str
    policy: str
    governor: str | None

    def config(self) -> SystemConfig:
        """The suite-sized machine for the scenario's core count."""
        from repro.scenarios.generate import corpus_config

        return corpus_config(self.cores)

    @property
    def cores(self) -> int:
        """Core count parsed from the corpus naming scheme."""
        from repro.scenarios.corpus import corpus_scenario

        return corpus_scenario(self.scenario_name).n_cores

    def scenario(self) -> Scenario:
        """The committed corpus schedule of this case."""
        from repro.scenarios.corpus import corpus_scenario

        return corpus_scenario(self.scenario_name).scenario

    def governor_spec(self) -> GovernorSpec | None:
        """The pinned governor binding (None runs at nominal V/f)."""
        return GovernorSpec(self.governor) if self.governor else None

    @property
    def filename(self) -> str:
        """Fixture file name for this case."""
        return f"{self.name}.json"


def corpus_golden_matrix() -> list[CorpusGoldenCase]:
    """One pinned corpus run: the seed-zero two-core storm under
    cooperative partitioning and the coordinated governor — the
    densest event schedule in the quick suite, with arrivals,
    departures, way gating and V/f scaling all in one timeline."""
    return [
        CorpusGoldenCase(
            name="corpus_storm_2c_s000_coordinated",
            scenario_name="storm-2c-s000",
            policy="cooperative",
            governor="coordinated",
        ),
    ]


def run_corpus_golden_case(
    case: CorpusGoldenCase, runner: ExperimentRunner
) -> RunResult:
    """Simulate one pinned corpus case (trace cache shared via runner)."""
    return runner.run(
        Experiment.for_scenario(
            case.scenario(),
            system=case.config(),
            policy=case.policy,
            governor=case.governor_spec(),
        )
    )


def case_payload(case: GoldenCase, result: RunResult) -> dict:
    """JSON-ready fixture payload for one simulated case."""
    return {
        "schema": GOLDEN_SCHEMA,
        "case": dataclasses.asdict(case),
        "result": run_result_to_dict(result),
    }


def diff_payloads(expected: dict, actual: dict, prefix: str = "") -> list[str]:
    """Recursive field-by-field diff; returns mismatch descriptions."""
    mismatches: list[str] = []
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in expected:
                mismatches.append(f"{path}: unexpected field {actual[key]!r}")
            elif key not in actual:
                mismatches.append(f"{path}: missing (expected {expected[key]!r})")
            else:
                mismatches.extend(diff_payloads(expected[key], actual[key], path))
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            mismatches.append(
                f"{prefix}: length {len(actual)} != expected {len(expected)}"
            )
        else:
            for index, (left, right) in enumerate(zip(expected, actual)):
                mismatches.extend(diff_payloads(left, right, f"{prefix}[{index}]"))
    elif expected != actual:
        mismatches.append(f"{prefix}: {actual!r} != expected {expected!r}")
    return mismatches


def write_fixtures(directory: str | Path, progress=print) -> list[Path]:
    """Generate every fixture into ``directory``; returns written paths.

    Covers both matrices: the static engine-equivalence cases and the
    scenario-timeline cases.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    runner = ExperimentRunner()
    written = []
    matrices = (
        (golden_matrix, run_golden_case),
        (scenario_golden_matrix, run_scenario_golden_case),
        (dvfs_golden_matrix, run_dvfs_golden_case),
        (corpus_golden_matrix, run_corpus_golden_case),
    )
    for matrix, run_case in matrices:
        for case in matrix():
            result = run_case(case, runner)
            path = directory / case.filename
            path.write_text(json_text(case_payload(case, result)))
            written.append(path)
            if progress is not None:
                progress(f"wrote {path}")
    return written


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else "tests/golden/fixtures"
    write_fixtures(target)
