"""Seeded random scenario generation and the committed corpus.

The scenario engine accepts *any* structurally legal schedule, but
hand-written presets only ever exercise three shapes.  This module
generates legal schedules at scale: :func:`generate_scenario` draws a
:class:`~repro.scenarios.model.Scenario` from a seeded RNG for any
core count, in one of six **shapes** that cover the space the engine
has to survive:

* ``storm`` — clustered arrival and departure waves: one cohort is
  present from cycle 0, one arrives in a tight burst, one departs in a
  tight burst;
* ``consolidation`` — everybody starts, then a majority departs
  within a short window (the bursty data-centre drain);
* ``churn`` — full occupancy with heavy phase-change traffic: every
  core re-profiles repeatedly while the mix stays resident;
* ``diurnal`` — a load curve: staggered ramp-up arrivals early,
  staggered ramp-down departures late, like a day of traffic;
* ``sparse`` — under-committed machines: slots that never arrive and
  slots that arrive only to depart again almost immediately;
* ``mixed`` — per-core behaviour drawn independently from the whole
  space (the hypothesis-style worst case).

Determinism is a contract, not an accident: the RNG is seeded from a
CRC32 of ``(seed, n_cores, shape)`` — exactly the scheme the trace
generator uses — so the same call produces the same schedule on every
platform, interpreter and session, and the emitted spec JSON is
**byte-identical** across regenerations.  Core 0 always arrives at
cycle 0, which anchors every schedule to a non-empty machine.

Event *times* are drawn as fractions and only then scaled onto
``[window_start_cycles, horizon_cycles]``.  That split matters
because the timeline only observes the post-warmup measurement
window, whose position depends strongly on the benchmark mix (from
~100k to several million cycles for the same ref budget).  The corpus
writer therefore **probes** each scenario's arrival mix once
(:func:`measurement_window`) and re-scales the same fractional
schedule into the observable window — the RNG stream never depends on
the window, so the draw is identical either way.

The committed corpus under ``src/repro/scenarios/corpus/`` is just
this generator at pinned seeds: 5 shapes × {2, 4} cores × 5 seeds =
50 named scenarios, written by :func:`write_corpus` (``python -m
repro.scenarios.generate``) in the schema-versioned spec format that
:mod:`repro.scenarios.corpus` validates eagerly on load.  ``repro
scenario --suite`` runs policy × governor combinations over it and
feeds every result through the differential invariant harness
(:mod:`repro.bench.differential`).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Sequence

from repro.render import json_text
from repro.scenarios.model import (
    Scenario,
    ScenarioEvent,
    core_arrive,
    core_depart,
    phase_change,
)

#: the generator's schedule shapes, in documentation order
SCENARIO_SHAPES = (
    "storm",
    "consolidation",
    "churn",
    "diurnal",
    "sparse",
    "mixed",
)

#: benchmark pool the generator draws from by default: a deliberate
#: spread over the MPKI classes (streaming, capacity, tiny) that keeps
#: the trace cache small across a 50-scenario suite
DEFAULT_POOL = (
    "gcc",
    "lbm",
    "libquantum",
    "mcf",
    "milc",
    "namd",
    "povray",
    "soplex",
)

#: corpus spec-file schema; bump on incompatible layout changes
CORPUS_SCHEMA = 1

#: pinned generator seeds behind the committed corpus
CORPUS_SEEDS = (0, 1, 2, 3, 4)

#: machine sizes the corpus spans
CORPUS_CORE_COUNTS = (2, 4)

#: corpus shapes ("mixed" is left to the property-based tests, which
#: draw fresh seeds every run instead of pinning five)
CORPUS_SHAPES = tuple(shape for shape in SCENARIO_SHAPES if shape != "mixed")

#: suite-sized ref budgets the corpus is calibrated against (the
#: differential harness runs corpus scenarios at these sizes)
CORPUS_REFS = {2: 6_000, 4: 5_000}

#: suite epoch length — several epochs inside even the fastest mix
CORPUS_EPOCH_CYCLES = 60_000


def _rng(seed: int, n_cores: int, shape: str):
    """The generator's deterministic RNG (CRC32-keyed like traces,
    via the shared :mod:`repro.workloads.seeding` helper).

    The key deliberately excludes the cycle window: times are drawn as
    fractions, so re-scaling a schedule onto a different window keeps
    every structural draw (benchmarks, presence, event counts) intact.
    The ``shift=32`` layout keeps the CRC and the seed in disjoint bit
    ranges — the historical key space, pinned byte-for-byte by the
    committed corpus.
    """
    from repro.workloads.seeding import stable_rng

    return stable_rng(f"scenario:{seed}:{n_cores}:{shape}", seed, shift=32)


def generate_scenario(
    seed: int,
    n_cores: int = 2,
    shape: str = "mixed",
    *,
    horizon_cycles: int = 2_800_000,
    window_start_cycles: int = 0,
    benchmarks: Sequence[str] | None = None,
    name: str | None = None,
) -> Scenario:
    """Draw one structurally legal scenario from a seeded RNG.

    ``shape`` selects the schedule family (:data:`SCENARIO_SHAPES`);
    timed events land inside ``[window_start_cycles, horizon_cycles]``
    (arrivals "from the start" stay at cycle 0); ``benchmarks`` is the
    pool event streams are drawn from (default :data:`DEFAULT_POOL`).
    The same ``(seed, n_cores, shape, benchmarks)`` always draws the
    same schedule *structure* — byte-identical through
    ``scenario_to_dict`` for equal windows — and core 0 is guaranteed
    to arrive at cycle 0, so the schedule is legal on any machine with
    at least ``n_cores`` slots.
    """
    if shape not in SCENARIO_SHAPES:
        raise ValueError(
            f"unknown scenario shape {shape!r}; one of {SCENARIO_SHAPES}"
        )
    if n_cores < 1:
        raise ValueError(f"n_cores must be positive, got {n_cores}")
    if horizon_cycles < 1000:
        raise ValueError(
            f"horizon_cycles must be at least 1000, got {horizon_cycles}"
        )
    if not 0 <= window_start_cycles < horizon_cycles:
        raise ValueError(
            f"window_start_cycles must lie in [0, horizon_cycles), got "
            f"{window_start_cycles} vs {horizon_cycles}"
        )
    pool = tuple(benchmarks) if benchmarks is not None else DEFAULT_POOL
    if not pool:
        raise ValueError("benchmark pool must not be empty")
    rng = _rng(seed, n_cores, shape)
    builder = _SHAPE_BUILDERS[shape]
    drafts = builder(rng, n_cores, pool)
    events = _materialise(drafts, window_start_cycles, horizon_cycles)
    return Scenario(
        name=name or f"{shape}-{n_cores}c-s{seed:03d}",
        events=tuple(events),
    )


# ----------------------------------------------------------------------
# Shape builders.  Every builder anchors core 0 at cycle 0 and emits
# draft events whose times are *fractions* of the eventual window (or
# ``None`` for "present from the start"), kept in per-core causal
# order; :func:`_materialise` scales them onto real cycles and bumps
# collisions, so the schedules are legal by construction (one arrival,
# phases after it, at most one departure, nothing after the departure).
# ----------------------------------------------------------------------
#: (kind, core, fraction-or-None, benchmark-or-None)
_Draft = tuple[str, int, "float | None", "str | None"]


def _frac(rng, lo: float, hi: float) -> float:
    """A time fraction drawn uniformly from [lo, hi]."""
    return lo + rng.random() * (hi - lo)


def _storm(rng, n_cores, pool) -> list[_Draft]:
    """Clustered arrival and departure waves."""
    arrive_wave = _frac(rng, 0.10, 0.45)
    depart_wave = _frac(rng, 0.55, 0.88)
    burst = 0.01
    drafts: list[_Draft] = [("arrive", 0, None, rng.choice(pool))]
    for core in range(1, n_cores):
        if rng.random() < 0.5:  # in the arrival storm
            when = arrive_wave + rng.random() * burst
        else:  # present from the start
            when = None
        drafts.append(("arrive", core, when, rng.choice(pool)))
        if rng.random() < 0.6:  # in the departure storm
            drafts.append(
                ("depart", core, depart_wave + rng.random() * burst, None)
            )
    return drafts


def _consolidation(rng, n_cores, pool) -> list[_Draft]:
    """Everybody starts; a majority drains in one short burst."""
    drain = _frac(rng, 0.25, 0.70)
    burst = 0.02
    drafts: list[_Draft] = [
        ("arrive", core, None, rng.choice(pool)) for core in range(n_cores)
    ]
    departing = max(1, n_cores - 1 if n_cores > 2 else 1)
    cores = list(range(1, n_cores))
    rng.shuffle(cores)
    for core in cores[:departing]:
        drafts.append(("depart", core, drain + rng.random() * burst, None))
    return drafts


def _churn(rng, n_cores, pool) -> list[_Draft]:
    """Full occupancy, heavy phase-change traffic."""
    drafts: list[_Draft] = [
        ("arrive", core, None, rng.choice(pool)) for core in range(n_cores)
    ]
    for core in range(n_cores):
        cursor = 0.0
        for _ in range(rng.randrange(2, 6)):
            cursor += 0.03 + rng.random() * 0.25
            if cursor > 0.88:
                break
            drafts.append(("phase", core, cursor, rng.choice(pool)))
    return drafts


def _diurnal(rng, n_cores, pool) -> list[_Draft]:
    """Staggered ramp-up arrivals, staggered ramp-down departures."""
    drafts: list[_Draft] = [("arrive", 0, None, rng.choice(pool))]
    late = list(range(1, n_cores))
    ramps = sorted(_frac(rng, 0.05, 0.35) for _ in late)
    drains = sorted((_frac(rng, 0.60, 0.90) for _ in late), reverse=True)
    for core, arrive_frac, depart_frac in zip(late, ramps, drains):
        drafts.append(("arrive", core, arrive_frac, rng.choice(pool)))
        if depart_frac > arrive_frac and rng.random() < 0.8:
            drafts.append(("depart", core, depart_frac, None))
    return drafts


def _sparse(rng, n_cores, pool) -> list[_Draft]:
    """Under-committed machine: absent slots, fleeting visitors."""
    drafts: list[_Draft] = [("arrive", 0, None, rng.choice(pool))]
    for core in range(1, n_cores):
        fate = rng.random()
        if fate < 0.35:  # never arrives — dark slot from cycle 0
            continue
        if fate < 0.75:  # arrive-then-depart visitor
            arrive_frac = _frac(rng, 0.05, 0.55)
            stay = 0.005 + rng.random() * 0.12
            drafts.append(("arrive", core, arrive_frac, rng.choice(pool)))
            drafts.append(
                ("depart", core, min(arrive_frac + stay, 0.90), None)
            )
        else:  # resident from the start
            drafts.append(("arrive", core, None, rng.choice(pool)))
    return drafts


def _mixed(rng, n_cores, pool) -> list[_Draft]:
    """Per-core behaviour drawn independently from the whole space."""
    drafts: list[_Draft] = [("arrive", 0, None, rng.choice(pool))]
    cursor = 0.0
    for _ in range(rng.randrange(0, 3)):  # phases on the anchor core
        cursor += 0.02 + rng.random() * 0.30
        if cursor > 0.88:
            break
        drafts.append(("phase", 0, cursor, rng.choice(pool)))
    for core in range(1, n_cores):
        presence = rng.choice(("start", "late", "absent"))
        if presence == "absent":
            continue
        cursor = 0.0 if presence == "start" else _frac(rng, 0.02, 0.60)
        when = None if presence == "start" else cursor
        drafts.append(("arrive", core, when, rng.choice(pool)))
        for _ in range(rng.randrange(0, 3)):
            cursor += 0.02 + rng.random() * 0.25
            if cursor > 0.88:
                break
            if rng.random() < 0.35:
                drafts.append(("depart", core, cursor, None))
                break
            drafts.append(("phase", core, cursor, rng.choice(pool)))
    return drafts


_SHAPE_BUILDERS = {
    "storm": _storm,
    "consolidation": _consolidation,
    "churn": _churn,
    "diurnal": _diurnal,
    "sparse": _sparse,
    "mixed": _mixed,
}


def _materialise(
    drafts: list[_Draft], window_start: int, horizon: int
) -> list[ScenarioEvent]:
    """Scale fractional draft times onto ``[window_start, horizon]``.

    Per-core times are bumped to stay strictly increasing after
    integer rounding, which preserves the builders' causal order
    (arrival first, departure last) whatever the window size.
    """
    span = horizon - window_start
    last_cycle: dict[int, int] = {}
    events: list[ScenarioEvent] = []
    for kind, core, when, benchmark in drafts:
        if when is None:
            cycle = 0
        else:
            cycle = window_start + int(round(when * span))
            cycle = max(1, min(cycle, horizon))
            previous = last_cycle.get(core)
            if previous is not None and cycle <= previous:
                cycle = previous + 1
        last_cycle[core] = cycle
        if kind == "arrive":
            events.append(core_arrive(core, benchmark, cycle))
        elif kind == "phase":
            events.append(phase_change(core, benchmark, cycle))
        else:
            events.append(core_depart(core, cycle))
    return events


# ----------------------------------------------------------------------
# Window calibration (the probe behind the committed corpus)
# ----------------------------------------------------------------------
def corpus_config(n_cores: int):
    """The machine the corpus is calibrated for (and the suite runs)."""
    from repro.sim.config import scaled_four_core, scaled_two_core

    if n_cores not in CORPUS_REFS:
        raise ValueError(
            f"the corpus covers {CORPUS_CORE_COUNTS}-core machines, "
            f"got {n_cores}"
        )
    base = scaled_two_core if n_cores == 2 else scaled_four_core
    return dataclasses.replace(
        base(refs_per_core=CORPUS_REFS[n_cores]),
        epoch_cycles=CORPUS_EPOCH_CYCLES,
    )


def measurement_window(
    scenario: Scenario, n_cores: int, runner=None
) -> tuple[int, int]:
    """The observable cycle window of a scenario's arrival mix.

    Runs the mix statically (all arriving cores resident from cycle 0,
    unmanaged, no governor) on the corpus machine and reads off the
    first post-warmup timeline boundary and the end cycle.  Event
    times scaled into this window actually *fire inside the measured
    region*, whatever the mix's speed — the whole point of the
    fraction-based draw.
    """
    from repro.experiment import Experiment
    from repro.sim.runner import ExperimentRunner

    if runner is None:
        runner = ExperimentRunner()
    arrivals = scenario.arrival_benchmarks(n_cores)
    probe = Scenario(
        name="window-probe",
        events=tuple(
            core_arrive(core, benchmark, 0)
            for core, benchmark in enumerate(arrivals)
            if benchmark is not None
        ),
    )
    run = runner.run(
        Experiment.for_scenario(
            probe, system=corpus_config(n_cores), policy="unmanaged"
        )
    )
    start = run.timeline[0].cycle if run.timeline else 0
    return start, run.end_cycle


# ----------------------------------------------------------------------
# Corpus specs
# ----------------------------------------------------------------------
def scenario_spec(
    scenario: Scenario,
    *,
    shape: str,
    n_cores: int,
    seed: int,
    window_start_cycles: int,
    horizon_cycles: int,
) -> dict[str, Any]:
    """The schema-versioned corpus document for one generated scenario."""
    from repro.orchestration.serialize import scenario_to_dict

    return {
        "schema": CORPUS_SCHEMA,
        "name": scenario.name,
        "shape": shape,
        "n_cores": n_cores,
        "seed": seed,
        "window_start_cycles": window_start_cycles,
        "horizon_cycles": horizon_cycles,
        "scenario": scenario_to_dict(scenario),
    }


def render_spec(spec: dict[str, Any]) -> str:
    """Canonical byte representation of a corpus spec file."""
    return json_text(spec)


def pinned_corpus_names() -> list[str]:
    """Every pinned corpus scenario name, in generation order."""
    return [
        f"{shape}-{n_cores}c-s{seed:03d}"
        for shape in CORPUS_SHAPES
        for n_cores in CORPUS_CORE_COUNTS
        for seed in CORPUS_SEEDS
    ]


def corpus_specs(
    names: Sequence[str] | None = None, runner=None
) -> list[dict[str, Any]]:
    """The pinned corpus: 5 shapes × {2, 4} cores × 5 seeds.

    Each scenario's arrival mix is probed once to calibrate the event
    window (:func:`measurement_window`); ``names`` restricts the build
    (and its probes) to a subset.  Deterministic end to end: the same
    checkout regenerates byte-identical specs.
    """
    from repro.sim.runner import ExperimentRunner

    if runner is None:
        runner = ExperimentRunner()
    wanted = set(names) if names is not None else None
    specs = []
    for shape in CORPUS_SHAPES:
        for n_cores in CORPUS_CORE_COUNTS:
            for seed in CORPUS_SEEDS:
                name = f"{shape}-{n_cores}c-s{seed:03d}"
                if wanted is not None and name not in wanted:
                    continue
                draft = generate_scenario(seed, n_cores, shape)
                start, end = measurement_window(draft, n_cores, runner)
                scenario = generate_scenario(
                    seed,
                    n_cores,
                    shape,
                    horizon_cycles=end,
                    window_start_cycles=start,
                )
                specs.append(
                    scenario_spec(
                        scenario,
                        shape=shape,
                        n_cores=n_cores,
                        seed=seed,
                        window_start_cycles=start,
                        horizon_cycles=end,
                    )
                )
    return specs


def write_corpus(directory: str | Path | None = None, progress=print) -> list[Path]:
    """(Re)generate every corpus spec file; returns the written paths.

    Writing is deterministic: regenerating over a clean checkout is a
    byte-level no-op (pinned by ``tests/differential/test_corpus.py``).
    """
    if directory is None:
        directory = Path(__file__).parent / "corpus"
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for spec in corpus_specs():
        path = directory / f"{spec['name']}.json"
        path.write_text(render_spec(spec))
        written.append(path)
        if progress is not None:
            progress(f"wrote {path}")
    return written


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    import sys

    write_corpus(sys.argv[1] if len(sys.argv) > 1 else None)
