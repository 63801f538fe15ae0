"""Per-run DVFS state: the coupling between governor and simulator.

:class:`DvfsState` owns everything frequency-dependent a run needs:

* the per-core **timing entries** the simulator's inner loop indexes —
  ``(num, den, l1_hit_cost, miss_base)`` per core, where core-clock
  work (issue gaps, L1 hits) is scaled by ``num/den`` while the LLC
  latency inside ``miss_base`` and the memory latency stay on the
  shared nominal clock;
* the per-core **stall accumulators** the miss path feeds (nominal-
  domain LLC + memory cycles), which the governors' analytic slowdown
  model consumes;
* the **interval energy integration**: at every monotone boundary
  (epoch, schedule event, run end) the instructions retired and wall
  cycles elapsed since the previous boundary are charged into
  :class:`~repro.energy.accounting.EnergyAccounting` at the V/f the
  interval actually ran at — a gated (departed) core charges exactly
  zero from its departure boundary onward.

The state is only ever constructed when an experiment names a
governor; a run without one never allocates it and executes the
historical arithmetic bit-for-bit.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

from repro.dvfs.governors import (
    BaseGovernor,
    CoreTelemetry,
    GovernorSpec,
    build_governor,
)
from repro.dvfs.model import (
    GATED_LEVEL,
    CoreEnergyModel,
    VFTable,
    default_vf_table,
)

if TYPE_CHECKING:
    from repro.energy.accounting import EnergyAccounting
    from repro.sim.config import SystemConfig
    from repro.sim.cpu import CoreState


class DvfsState:
    """Mutable per-run DVFS machinery (levels, timing tables, energy)."""

    def __init__(
        self,
        spec: "GovernorSpec | str",
        config: "SystemConfig",
        table: VFTable | None = None,
    ) -> None:
        if isinstance(spec, str):
            spec = GovernorSpec(spec)
        self.spec = spec
        self.table = table if table is not None else default_vf_table()
        self.energy_model = CoreEnergyModel(self.table)
        self.governor: BaseGovernor = build_governor(
            spec, self.table, config.n_cores
        )
        self.n_cores = config.n_cores
        self._l1_latency = config.l1_latency
        self._l2_latency = config.l2_latency
        #: per-core current level (GATED_LEVEL for idle/departed slots)
        self.levels: list[int] = list(self.governor.levels)
        #: per-core (num, den, scaled_l1_hit, scaled_l1 + l2) timing
        #: rows, indexed by the inner loop; gated cores keep their last
        #: row (they are never scheduled, so it is never read)
        self.entries: list[tuple[int, int, int, int]] = [
            self._entry(level if level != GATED_LEVEL else 0)
            for level in self.levels
        ]
        #: nominal-domain LLC + memory stall cycles, accumulated by the
        #: miss paths; monotone within a run
        self.stall = array("q", [0]) * config.n_cores
        # Energy-interval snapshots (advanced at every boundary).
        self._e_stamp = 0
        self._e_instr = [0] * config.n_cores
        # Governor-interval snapshots (advanced at every epoch; the
        # stamp is per core so a mid-epoch arrival's first telemetry
        # window starts at its arrival, not at the epoch start).
        self._g_stamp = [0] * config.n_cores
        self._g_instr = [0] * config.n_cores
        self._g_stall = [0] * config.n_cores

    def _entry(self, level: int) -> tuple[int, int, int, int]:
        num, den = self.table.period_ratio(level)
        scaled_l1 = self._l1_latency * num // den
        return (num, den, scaled_l1, scaled_l1 + self._l2_latency)

    # ------------------------------------------------------------------
    # Level changes
    # ------------------------------------------------------------------
    def set_level(self, core: int, level: int) -> None:
        """Move ``core`` to ``level`` (takes effect on its next access)."""
        self.levels[core] = level
        if level != GATED_LEVEL:
            self.entries[core] = self._entry(level)

    def gate_core(self, core: int) -> None:
        """Power-gate a departed/absent core: f = 0, zero energy on."""
        self.levels[core] = GATED_LEVEL

    def activate_core(self, core: int, now: int, instructions: int) -> None:
        """A scenario arrival: start at the governor-chosen level.

        ``instructions`` re-bases the energy/governor snapshots so the
        new core's first interval only charges work it actually did.
        """
        self.set_level(core, self.governor.arrival_level(core, now))
        self._e_instr[core] = instructions
        self._g_stamp[core] = now
        self._g_instr[core] = instructions
        self._g_stall[core] = self.stall[core]

    # ------------------------------------------------------------------
    # Energy integration
    # ------------------------------------------------------------------
    def charge_to(
        self, stamp: int, cores: "list[CoreState]", energy: "EnergyAccounting"
    ) -> None:
        """Charge each core's energy for the interval ending at ``stamp``.

        Dynamic energy covers the instructions retired since the last
        boundary at the interval's voltage; static energy covers the
        wall cycles elapsed, per powered core.  Gated cores charge
        nothing.  Boundary stamps are monotone by construction; a
        repeated stamp charges only newly retired instructions.
        """
        wall = stamp - self._e_stamp
        if wall < 0:
            return
        model = self.energy_model
        levels = self.levels
        instr_base = self._e_instr
        for core in cores:
            level = levels[core.core_id]
            if level == GATED_LEVEL:
                instr_base[core.core_id] = core.instructions
                continue
            done = core.instructions - instr_base[core.core_id]
            if done:
                energy.core_dynamic_nj += (
                    model.dynamic_nj_per_instr[level] * done
                )
                instr_base[core.core_id] = core.instructions
            if wall:
                energy.core_static_nj += model.leakage_nj_per_cycle[level] * wall
        self._e_stamp = stamp

    def reset_window(self, now: int, cores: "list[CoreState]") -> None:
        """Re-base every interval snapshot at the measured window start
        (the accounting's counters were just zeroed)."""
        self._e_stamp = now
        for core in cores:
            self._e_instr[core.core_id] = core.instructions
            self._g_stamp[core.core_id] = now
            self._g_instr[core.core_id] = core.instructions
            self._g_stall[core.core_id] = self.stall[core.core_id]

    # ------------------------------------------------------------------
    # Epoch decision
    # ------------------------------------------------------------------
    def epoch(
        self, now: int, cores: "list[CoreState]", allocations: list[int]
    ) -> None:
        """Run the governor after the partitioning decision at ``now``."""
        telemetry = []
        for core in cores:
            core_id = core.core_id
            telemetry.append(
                CoreTelemetry(
                    core=core_id,
                    active=self.levels[core_id] != GATED_LEVEL and core.active,
                    level=max(0, self.levels[core_id]),
                    instructions=core.instructions - self._g_instr[core_id],
                    wall_cycles=max(0, now - self._g_stamp[core_id]),
                    stall_cycles=self.stall[core_id] - self._g_stall[core_id],
                    allocation=allocations[core_id],
                    finished=core.window_closed,
                )
            )
        chosen = self.governor.decide(telemetry)
        for core in cores:
            core_id = core.core_id
            if self.levels[core_id] != GATED_LEVEL:
                self.set_level(core_id, chosen[core_id])
            self._g_stamp[core_id] = now
            self._g_instr[core_id] = core.instructions
            self._g_stall[core_id] = self.stall[core_id]

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def frequencies_mhz(self) -> tuple[int, ...]:
        """Per-slot current frequency (0 for gated cores)."""
        return tuple(self.table[level].freq_mhz for level in self.levels)

    def voltages_mv(self) -> tuple[int, ...]:
        """Per-slot current voltage (0 for gated cores)."""
        return tuple(self.table[level].voltage_mv for level in self.levels)
