"""Declarative time-varying multiprogram schedules.

A :class:`Scenario` is a small, immutable description of *what runs
when* on the simulated CMP: a list of timed events over the machine's
core slots.  Three event kinds exist:

* ``core_arrive(core, benchmark, at_cycle)`` — the slot starts
  executing ``benchmark`` at ``at_cycle`` (cycle 0 = present from the
  start, exactly like the classic fixed-workload runs);
* ``core_depart(core, at_cycle)`` — the slot stops executing; its
  measurement window freezes and the partitioning policy is told the
  core went idle (cooperative partitioning flushes and power-gates the
  departing core's ways);
* ``phase_change(core, benchmark, at_cycle)`` — the slot switches its
  reference stream to a different benchmark's trace mid-run, modelling
  a program phase change coarser than the profile-level phases.

Semantics pinned down (see ``docs/scenarios.md`` for the full
contract):

* event times are absolute simulator cycles and are applied in
  timestamp order, interleaved with the policy's epoch boundaries;
* a slot with no arrival event is *never present*: the policy treats
  it as idle from cycle 0 (under cooperative partitioning its ways are
  gated before the run starts);
* the degenerate static scenario — every slot arrives at cycle 0 and
  nothing else happens — routes through exactly the same simulator
  code path as the historical fixed-trace runs and reproduces them
  bit-exactly (pinned by the golden-equivalence suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

#: event kinds, in canonical spelling
ARRIVE = "arrive"
DEPART = "depart"
PHASE = "phase"

_KINDS = (ARRIVE, DEPART, PHASE)


@dataclass(frozen=True)
class ScenarioEvent:
    """One timed schedule event on one core slot."""

    kind: str
    core: int
    at_cycle: int
    #: benchmark name for ``arrive``/``phase`` events; None for depart
    benchmark: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}; one of {_KINDS}")
        if self.core < 0:
            raise ValueError(f"core must be non-negative, got {self.core}")
        if self.at_cycle < 0:
            raise ValueError(f"at_cycle must be non-negative, got {self.at_cycle}")
        if self.kind == DEPART:
            if self.benchmark is not None:
                raise ValueError("depart events carry no benchmark")
        elif not self.benchmark:
            raise ValueError(f"{self.kind} events need a benchmark name")

    def describe(self) -> str:
        """Short human-readable label (used in timeline samples)."""
        if self.kind == DEPART:
            return f"depart:core{self.core}"
        return f"{self.kind}:core{self.core}={self.benchmark}"


def core_arrive(core: int, benchmark: str, at_cycle: int = 0) -> ScenarioEvent:
    """``core`` starts executing ``benchmark`` at ``at_cycle``."""
    return ScenarioEvent(ARRIVE, core, at_cycle, benchmark)


def core_depart(core: int, at_cycle: int) -> ScenarioEvent:
    """``core`` stops executing at ``at_cycle``."""
    return ScenarioEvent(DEPART, core, at_cycle)


def phase_change(core: int, benchmark: str, at_cycle: int) -> ScenarioEvent:
    """``core`` switches its reference stream to ``benchmark``."""
    return ScenarioEvent(PHASE, core, at_cycle, benchmark)


@dataclass(frozen=True)
class Scenario:
    """An immutable, hashable schedule of core arrival/departure/phase
    events, sorted by time (ties keep declaration order)."""

    name: str
    events: tuple[ScenarioEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: e.at_cycle)
        )
        object.__setattr__(self, "events", ordered)
        self._check_per_core_ordering()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _check_per_core_ordering(self) -> None:
        arrived: dict[int, int] = {}
        departed: dict[int, int] = {}
        for event in self.events:
            core = event.core
            if core in departed:
                raise ValueError(
                    f"{self.name}: core {core} has events after its departure"
                )
            if event.kind == ARRIVE:
                if core in arrived:
                    raise ValueError(
                        f"{self.name}: core {core} arrives more than once"
                    )
                arrived[core] = event.at_cycle
            else:
                if core not in arrived:
                    # Also catches events scheduled before the arrival:
                    # the cycle sort puts them first, so they hit this
                    # check with the core still unarrived.
                    raise ValueError(
                        f"{self.name}: core {core} must arrive before "
                        f"{event.kind} events"
                    )
                if event.kind == DEPART:
                    departed[core] = event.at_cycle
        if not arrived:
            raise ValueError(f"{self.name}: scenario has no arrivals")

    def validate(self, n_cores: int) -> None:
        """Check the scenario fits a machine with ``n_cores`` slots."""
        for event in self.events:
            if event.core >= n_cores:
                raise ValueError(
                    f"{self.name}: event {event.describe()} names core "
                    f"{event.core} on a {n_cores}-core machine"
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def arrival_of(self, core: int) -> ScenarioEvent | None:
        """The arrival event of ``core``, or None if it never arrives."""
        for event in self.events:
            if event.kind == ARRIVE and event.core == core:
                return event
        return None

    def arrival_benchmarks(self, n_cores: int) -> list[str | None]:
        """Per-slot benchmark at arrival (None for absent slots)."""
        names: list[str | None] = [None] * n_cores
        for event in self.events:
            if event.kind == ARRIVE:
                names[event.core] = event.benchmark
        return names

    def benchmarks_used(self) -> tuple[str, ...]:
        """Every benchmark any event references, in first-use order."""
        seen: list[str] = []
        for event in self.events:
            if event.benchmark and event.benchmark not in seen:
                seen.append(event.benchmark)
        return tuple(seen)

    def dynamic_events(self) -> tuple[ScenarioEvent, ...]:
        """Events the run loop must apply (everything but cycle-0 arrivals)."""
        return tuple(
            event
            for event in self.events
            if not (event.kind == ARRIVE and event.at_cycle == 0)
        )

    @property
    def is_static(self) -> bool:
        """True when every event is an arrival at cycle 0 (the classic
        fixed-workload run — must stay bit-identical to it)."""
        return all(
            event.kind == ARRIVE and event.at_cycle == 0 for event in self.events
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def static(
        cls, benchmarks: Sequence[str | None], name: str = "static"
    ) -> "Scenario":
        """The degenerate scenario: all cores arrive at 0, nothing else
        (a None slot stays empty)."""
        return cls(
            name=name,
            events=tuple(
                core_arrive(core, benchmark, 0)
                for core, benchmark in enumerate(benchmarks)
                if benchmark
            ),
        )


# ----------------------------------------------------------------------
# Schedule presets
# ----------------------------------------------------------------------
def consolidation_scenario(
    benchmarks: Sequence[str],
    depart_cores: Iterable[int],
    depart_cycle: int,
    name: str = "consolidation",
) -> Scenario:
    """All cores arrive at 0; ``depart_cores`` leave at ``depart_cycle``.

    The data-centre consolidation shape: load drains off some cores
    mid-run and a gating policy should turn their ways off.
    """
    events = [core_arrive(c, b, 0) for c, b in enumerate(benchmarks)]
    events.extend(core_depart(core, depart_cycle) for core in depart_cores)
    return Scenario(name=name, events=tuple(events))


def arrival_scenario(
    benchmarks: Sequence[str],
    late_core: int,
    arrive_cycle: int,
    name: str = "arrival",
) -> Scenario:
    """``late_core`` joins at ``arrive_cycle``; the rest start at 0.

    Before the arrival the late slot is idle, so a gating policy keeps
    its share powered off; the arrival must win ways back.
    """
    events = []
    for core, benchmark in enumerate(benchmarks):
        cycle = arrive_cycle if core == late_core else 0
        events.append(core_arrive(core, benchmark, cycle))
    return Scenario(name=name, events=tuple(events))


def phased_scenario(
    benchmarks: Sequence[str],
    core: int,
    phase_benchmarks: Sequence[str],
    phase_cycles: Sequence[int],
    name: str = "phased",
) -> Scenario:
    """All cores arrive at 0; ``core`` re-profiles at each phase cycle."""
    if len(phase_benchmarks) != len(phase_cycles):
        raise ValueError("need one cycle per phase benchmark")
    events = [core_arrive(c, b, 0) for c, b in enumerate(benchmarks)]
    events.extend(
        phase_change(core, benchmark, cycle)
        for benchmark, cycle in zip(phase_benchmarks, phase_cycles)
    )
    return Scenario(name=name, events=tuple(events))
