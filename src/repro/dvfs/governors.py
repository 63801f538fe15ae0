"""Pluggable DVFS governors, registered like partitioning policies.

A **governor** decides, once per partitioning epoch, which operating
point each core runs at next — the DVFS counterpart of a partitioning
policy's way allocation.  Governors register with the
:func:`register_governor` decorator and are addressed by a
:class:`GovernorSpec` — the same :mod:`repro.registry` machinery
behind policies and :class:`~repro.partitioning.registry.PolicySpec`::

    @dataclass(frozen=True)
    class MyGovernorParams:
        aggressiveness: float = 0.5

    @register_governor("my_governor", params=MyGovernorParams)
    class MyGovernor(BaseGovernor):
        name = "My Governor"

        def decide(self, telemetry):
            ...

Specs validate eagerly (unknown governor names list the registered
ones; unknown, mis-typed and out-of-range parameters are rejected at
construction, the last by the params dataclass's ``__post_init__``), are
frozen and hashable, and ride on :class:`~repro.experiment.Experiment`
as the optional ``governor=`` field — an absent spec means the
nominal-frequency machine and **bit-identical** legacy results.

Three governors ship built in:

* ``fixed`` — every core pinned at one operating point (``freq_mhz=``
  selects it; the default is nominal, which makes ``fixed`` the
  explicit spelling of the legacy machine);
* ``ondemand`` — the classic utilization governor: a core busy with
  core-clock work steps up, a core stalled on memory steps down;
* ``coordinated`` — QoS-constrained energy minimisation in the spirit
  of Nejat et al.: each epoch, *after* the partitioning decision, it
  picks the slowest (lowest-V, lowest-energy) frequency whose
  predicted slowdown against the nominal-frequency machine stays
  within the per-core ``qos_slowdown`` budget.  The cache partition
  feeds straight into the model: more ways mean fewer LLC misses,
  a smaller memory-stall term, and therefore deeper legal frequency
  scaling — the coordination the two papers exploit.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.dvfs.model import VFTable, default_vf_table
from repro.partitioning.registry import NoParams
from repro.registry import DisplayNames, Registered, Registry, Spec

#: iteration yields the built-ins in documentation order, then
#: third-party governors in registration order
_GOVERNORS: Registry[Registered] = Registry(
    "governor", "governors", builtins=("fixed", "ondemand", "coordinated")
)


def register_governor(
    name: str,
    *,
    params: type = NoParams,
    display_name: str | None = None,
) -> Callable[[type], type]:
    """Class decorator registering a DVFS governor under ``name``.

    ``params`` is a dataclass declaring the governor's spec-addressable
    parameters; ``display_name`` defaults to the class's ``name``
    attribute.  Registering a name twice raises — call
    :func:`unregister_governor` first (tests, notebook reloads).
    """
    return _GOVERNORS.class_decorator(
        name, params, lambda cls: Registered.of(name, cls, params, display_name)
    )


def unregister_governor(name: str) -> None:
    """Remove ``name`` from the governor registry."""
    _GOVERNORS.remove(name)


def registered_governors() -> tuple[str, ...]:
    """Short names of every registered governor (built-ins first)."""
    return _GOVERNORS.names()


def governor_info(name: str) -> Registered:
    """Registry entry for ``name``; unknown names fail with the list
    of registered governors."""
    return _GOVERNORS.info(name)


#: short name -> display name of every registered governor
GOVERNOR_NAMES = DisplayNames(_GOVERNORS)


class GovernorSpec(Spec[Registered]):
    """A registered governor plus a validated parameter binding — the
    DVFS half of an :class:`~repro.experiment.Experiment`."""

    _registry = _GOVERNORS


def build_governor(
    spec: "GovernorSpec | str", table: VFTable, n_cores: int
) -> "BaseGovernor":
    """Instantiate the governor a spec names on a given V/f table."""
    if isinstance(spec, str):
        spec = GovernorSpec(spec)
    return spec.info.cls(table, n_cores, **dict(spec.params))


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class CoreTelemetry:
    """What one core did over the epoch a governor is deciding after.

    ``wall_cycles`` are nominal (global-clock) cycles; ``stall_cycles``
    is the slice of them spent waiting on the LLC and memory, which
    does **not** scale with the core clock.  The remainder —
    ``wall_cycles - stall_cycles`` — is core-clock work that stretches
    proportionally to the cycle time, so a governor can predict the
    wall time at any other level analytically (see
    :meth:`CoordinatedGovernor.decide`).
    """

    core: int
    active: bool
    level: int
    instructions: int
    wall_cycles: int
    stall_cycles: int
    #: LLC ways the partitioning policy currently grants this core
    allocation: int
    #: whether the core's measured window has closed (the application
    #: finished its target work and only executes wrap-around
    #: contention traffic from here on)
    finished: bool = False


class BaseGovernor:
    """Common state every governor keeps: the table and per-core levels.

    Subclasses implement :meth:`decide`; the simulator applies the
    returned levels at the epoch boundary.  An arriving core starts at
    :meth:`arrival_level` ("the governor-chosen frequency"), a
    departing core is gated by the DVFS state itself — governors only
    ever see active cores.
    """

    name = "base"

    def __init__(self, table: VFTable, n_cores: int) -> None:
        self.table = table
        self.n_cores = n_cores
        #: the governor's current target level per core slot
        self.levels = [self.initial_level(core) for core in range(n_cores)]

    def initial_level(self, core: int) -> int:
        """Level a core starts the run at (default: nominal)."""
        return 0

    def arrival_level(self, core: int, now: int) -> int:
        """Level a scenario arrival starts executing at."""
        return self.levels[core]

    def decide(self, telemetry: list[CoreTelemetry]) -> list[int]:
        """New per-core levels for the next epoch (entries for inactive
        cores are ignored — the DVFS state keeps them gated)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Built-in governors
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class FixedParams:
    """Parameters of the ``fixed`` governor."""

    #: operating-point frequency to pin every core at (None = nominal)
    freq_mhz: int | None = None

    def __post_init__(self) -> None:
        # Every run's DVFS state is built on the default table.
        if self.freq_mhz is not None:
            default_vf_table().level_of(self.freq_mhz)


@register_governor("fixed", params=FixedParams)
class FixedGovernor(BaseGovernor):
    """Every core pinned at one operating point for the whole run."""

    name = "Fixed"

    def __init__(
        self, table: VFTable, n_cores: int, freq_mhz: int | None = None
    ) -> None:
        FixedParams(freq_mhz)
        self._level = 0 if freq_mhz is None else table.level_of(freq_mhz)
        super().__init__(table, n_cores)

    def initial_level(self, core: int) -> int:
        return self._level

    def decide(self, telemetry: list[CoreTelemetry]) -> list[int]:
        return self.levels


@dataclasses.dataclass(frozen=True)
class OndemandParams:
    """Parameters of the ``ondemand`` governor."""

    #: core-clock busy fraction above which the core steps up a level
    up_threshold: float = 0.75
    #: busy fraction below which the core steps down a level
    down_threshold: float = 0.35

    def __post_init__(self) -> None:
        if not 0.0 <= self.down_threshold < self.up_threshold <= 1.0:
            raise ValueError(
                f"need 0 <= down_threshold < up_threshold <= 1, got "
                f"down={self.down_threshold} up={self.up_threshold}"
            )


@register_governor("ondemand", params=OndemandParams)
class OndemandGovernor(BaseGovernor):
    """Utilization-driven stepping, one level per epoch per core.

    Utilization here is the fraction of wall time spent in core-clock
    work (compute + L1 hits) rather than stalled on the LLC/memory: a
    compute-bound core wants its cycles back (step up), a memory-bound
    core barely notices a slower clock (step down).
    """

    name = "Ondemand"

    def __init__(
        self,
        table: VFTable,
        n_cores: int,
        up_threshold: float = 0.75,
        down_threshold: float = 0.35,
    ) -> None:
        OndemandParams(up_threshold, down_threshold)
        super().__init__(table, n_cores)
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold

    def decide(self, telemetry: list[CoreTelemetry]) -> list[int]:
        slowest = len(self.table) - 1
        for sample in telemetry:
            if not sample.active or sample.wall_cycles <= 0:
                continue
            level = self.levels[sample.core]
            busy = 1.0 - sample.stall_cycles / sample.wall_cycles
            if busy >= self.up_threshold and level > 0:
                self.levels[sample.core] = level - 1
            elif busy <= self.down_threshold and level < slowest:
                self.levels[sample.core] = level + 1
        return self.levels


@dataclasses.dataclass(frozen=True)
class CoordinatedParams:
    """Parameters of the ``coordinated`` governor."""

    #: per-core slowdown budget against the nominal-frequency machine
    #: (0.1 = "at most 10% slower than running flat out")
    qos_slowdown: float = 0.10

    def __post_init__(self) -> None:
        if self.qos_slowdown < 0.0:
            raise ValueError(
                f"qos_slowdown must be non-negative, got {self.qos_slowdown}"
            )


@register_governor("coordinated", params=CoordinatedParams)
class CoordinatedGovernor(BaseGovernor):
    """QoS-constrained energy minimisation, coordinated with the
    partition (Nejat et al.'s control structure on this simulator).

    Each epoch decomposes a core's wall time into core-clock work
    ``C`` (compute + L1 hits, measured at the current cycle-time
    multiplier ``m``) and clock-independent stall time ``M`` (LLC +
    memory latency).  Running the same work at multiplier ``m'`` would
    take ``C·m' + M``, so the predicted slowdown against nominal is::

        S(m') = (C·m' + M) / (C + M)

    The governor picks the **slowest** level with ``S ≤ 1 +
    qos_slowdown`` — slower means lower voltage means quadratically
    less dynamic energy, so under a monotone V/f ladder the slowest
    compliant point is the cheapest.  It runs *after* the partitioning
    epoch: an allocation that just granted a core more ways shrinks
    its measured ``M`` the following epoch and unlocks deeper scaling,
    while a starved core's grown ``M`` forces the clock back up —
    the two controllers cooperate through the model term instead of
    fighting over the same slack.

    A **finished** core (its measured window closed; it only executes
    wrap-around contention traffic) has no QoS constraint left, so it
    drops straight to the slowest point: paying nominal V² for work
    nobody is waiting on is pure waste, and bottoming it out is what
    keeps total energy monotone in the slack budget.
    """

    name = "Coordinated"

    def __init__(
        self, table: VFTable, n_cores: int, qos_slowdown: float = 0.10
    ) -> None:
        CoordinatedParams(qos_slowdown)
        super().__init__(table, n_cores)
        self.qos_slowdown = qos_slowdown

    def decide(self, telemetry: list[CoreTelemetry]) -> list[int]:
        table = self.table
        budget = 1.0 + self.qos_slowdown
        nominal_mhz = table.nominal.freq_mhz
        for sample in telemetry:
            if not sample.active:
                continue
            if sample.finished:
                self.levels[sample.core] = len(table) - 1
                continue
            if sample.wall_cycles <= 0:
                continue
            num, den = table.period_ratio(sample.level)
            multiplier = num / den
            stall = float(sample.stall_cycles)
            compute = max(0.0, sample.wall_cycles - stall) / multiplier
            nominal_time = compute + stall
            if nominal_time <= 0.0:
                continue
            chosen = 0
            for level in range(len(table) - 1, 0, -1):
                candidate = nominal_mhz / table[level].freq_mhz
                slowdown = (compute * candidate + stall) / nominal_time
                if slowdown <= budget:
                    chosen = level
                    break
            self.levels[sample.core] = chosen
        return self.levels
