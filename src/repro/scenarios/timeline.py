"""Per-epoch timeline series recorded by scenario-aware runs.

The paper's most interesting cooperative-partitioning behaviours are
*timelines* (Figures 14-16): what happens while the workload mix
changes.  A scenario run records one :class:`TimelineSample` at the
end of warmup, at every partitioning epoch, at every schedule event
and at run end, so the figures' dynamic quantities — active cores, way
allocations, powered ways, integrated energy — can be plotted against
time directly.

Samples are observations only: recording them never mutates simulator
state, which is what lets the degenerate static scenario stay
bit-identical to the classic fixed-workload runs (those simply record
no samples unless asked to).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.render import Column, table


@dataclass(frozen=True)
class TimelineSample:
    """One observation of the machine state at a point in time."""

    #: simulator cycle of the observation
    cycle: int
    #: core slots currently executing
    active_cores: tuple[int, ...]
    #: per-slot way allocation (policy view: ways a core may fill)
    allocations: tuple[int, ...]
    #: ways currently drawing leakage power
    powered_ways: int
    #: static energy integrated up to this cycle (current window)
    static_energy_nj: float
    #: dynamic energy accumulated up to this cycle (current window)
    dynamic_energy_nj: float
    #: labels of schedule events applied at this cycle ("" = epoch tick)
    events: tuple[str, ...] = field(default_factory=tuple)
    #: per-slot core frequency in MHz (DVFS runs only; 0 = gated core,
    #: empty tuple = run without a governor)
    frequencies_mhz: tuple[int, ...] = field(default_factory=tuple)
    #: per-slot core voltage in mV (parallel to ``frequencies_mhz``)
    voltages_mv: tuple[int, ...] = field(default_factory=tuple)
    #: core dynamic + static energy integrated up to this cycle (DVFS
    #: runs only; 0.0 without a governor)
    core_energy_nj: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (lossless).

        The DVFS fields are emitted only when a governor produced
        them, so pre-DVFS artifacts and fixtures keep their exact
        historical shape.
        """
        payload = {
            "cycle": self.cycle,
            "active_cores": list(self.active_cores),
            "allocations": list(self.allocations),
            "powered_ways": self.powered_ways,
            "static_energy_nj": self.static_energy_nj,
            "dynamic_energy_nj": self.dynamic_energy_nj,
            "events": list(self.events),
        }
        if self.frequencies_mhz:
            payload["frequencies_mhz"] = list(self.frequencies_mhz)
            payload["voltages_mv"] = list(self.voltages_mv)
            payload["core_energy_nj"] = self.core_energy_nj
        return payload

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TimelineSample":
        """Rebuild a sample from :meth:`to_dict` output."""
        return cls(
            cycle=data["cycle"],
            active_cores=tuple(data["active_cores"]),
            allocations=tuple(data["allocations"]),
            powered_ways=data["powered_ways"],
            static_energy_nj=data["static_energy_nj"],
            dynamic_energy_nj=data["dynamic_energy_nj"],
            events=tuple(data["events"]),
            frequencies_mhz=tuple(data.get("frequencies_mhz", ())),
            voltages_mv=tuple(data.get("voltages_mv", ())),
            core_energy_nj=data.get("core_energy_nj", 0.0),
        )


# ----------------------------------------------------------------------
# Series helpers (consumed by benchmarks, the CLI and tests)
# ----------------------------------------------------------------------
def powered_ways_series(timeline: Sequence[TimelineSample]) -> list[tuple[int, int]]:
    """``(cycle, powered_ways)`` pairs in time order."""
    return [(sample.cycle, sample.powered_ways) for sample in timeline]


def min_powered_ways(timeline: Sequence[TimelineSample]) -> int:
    """Smallest powered-way count observed (0 for an empty timeline)."""
    if not timeline:
        return 0
    return min(sample.powered_ways for sample in timeline)


def powered_ways_dropped(timeline: Sequence[TimelineSample]) -> bool:
    """Whether the powered-way count ever fell below its first sample."""
    if not timeline:
        return False
    return min_powered_ways(timeline) < timeline[0].powered_ways


def samples_with_events(
    timeline: Sequence[TimelineSample],
) -> list[TimelineSample]:
    """Samples recorded because a schedule event fired."""
    return [sample for sample in timeline if sample.events]


def frequency_series(
    timeline: Sequence[TimelineSample],
) -> list[tuple[int, tuple[int, ...]]]:
    """``(cycle, per-core frequency MHz)`` pairs in time order (DVFS
    runs; empty for runs without a governor)."""
    return [
        (sample.cycle, sample.frequencies_mhz)
        for sample in timeline
        if sample.frequencies_mhz
    ]


def voltage_series(
    timeline: Sequence[TimelineSample],
) -> list[tuple[int, tuple[int, ...]]]:
    """``(cycle, per-core voltage mV)`` pairs in time order."""
    return [
        (sample.cycle, sample.voltages_mv)
        for sample in timeline
        if sample.voltages_mv
    ]


def static_energy_deltas(timeline: Sequence[TimelineSample]) -> list[float]:
    """Per-interval static energy between consecutive samples."""
    deltas: list[float] = []
    for previous, current in zip(timeline, timeline[1:]):
        deltas.append(current.static_energy_nj - previous.static_energy_nj)
    return deltas


def render_timeline(timeline: Sequence[TimelineSample], ways: int) -> str:
    """Fixed-width text table of a timeline (CLI / example output).

    A frequency column appears automatically when the run carried a
    DVFS governor (any sample with a recorded frequency series).
    """
    with_dvfs = any(sample.frequencies_mhz for sample in timeline)
    columns = [
        Column("cycle", ">12"), Column("active", "<14"), Column("allocs", "<20"),
        Column("powered", ">8"), Column("static nJ", ">12", ".1f"),
    ]
    if with_dvfs:
        columns += [Column("MHz", "<20"), Column("core nJ", ">12", ".1f")]
    # the events stand two spaces off the numbers, not one
    columns.append(Column(" events"))
    rows: list[list[Any]] = []
    for sample in timeline:
        row = [
            sample.cycle,
            ",".join(map(str, sample.active_cores)) or "-",
            "/".join(map(str, sample.allocations)),
            f"{sample.powered_ways:>5}/{ways:<2}",
            sample.static_energy_nj,
        ]
        if with_dvfs:
            mhz = "/".join(map(str, sample.frequencies_mhz)) or "-"
            row += [mhz, sample.core_energy_nj]
        rows.append([*row, " " + " ".join(sample.events)])
    return table(columns, rows, sep=" ")
