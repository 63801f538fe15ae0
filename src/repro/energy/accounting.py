"""Integrate dynamic and static LLC energy over a simulation.

Dynamic energy accumulates per event: every access is charged one tag
probe per way consulted (serial tag access, Section 2 of the paper),
plus a data-array read on a hit, a data-array write on a fill, and an
array read for every writeback or flush.  Schemes that include
monitoring hardware also pay a small per-access update cost.

Static energy integrates ``powered ways x cycles`` between way on/off
events so gated-Vdd savings (unallocated ways turned off) appear
directly, plus the constant leakage of the Table 1 overhead bits.

Core energy (DVFS runs only).  When a run carries a governor, the
DVFS state charges per-interval **core** energy into the two
``core_*_nj`` accumulators: dynamic energy per instruction scaled by
V², leakage per wall cycle scaled by V (see
:class:`repro.dvfs.model.CoreEnergyModel`).  Runs without a governor
never touch them, so every legacy total is unchanged.
"""

from __future__ import annotations

from repro.energy.cacti import CactiEnergyModel


class EnergyAccounting:
    """Running dynamic/static energy totals for one simulation."""

    def __init__(self, model: CactiEnergyModel, charge_overheads: bool = True) -> None:
        self.model = model
        self.charge_overheads = charge_overheads
        # Dynamic event counters.
        self.tag_probes = 0
        self.data_reads = 0
        self.data_writes = 0
        self.writebacks = 0
        self.monitor_updates = 0
        # Core-side energy (charged by the DVFS state; stays 0.0 for
        # runs without a governor).
        self.core_dynamic_nj = 0.0
        self.core_static_nj = 0.0
        # Static integration state.
        self._active_ways = model.geometry.ways
        self._last_event_cycle = 0
        self._way_cycles = 0.0
        self._final_cycle = 0
        self._window_start = 0

    # ------------------------------------------------------------------
    # Dynamic events
    # ------------------------------------------------------------------
    def writeback(self, lines: int = 1) -> None:
        """Charge reading ``lines`` dirty lines out for write-back."""
        self.writebacks += lines

    # ------------------------------------------------------------------
    # Static integration
    # ------------------------------------------------------------------
    def set_active_ways(self, active_ways: int, now: int) -> None:
        """Record a change in the number of powered ways at cycle ``now``."""
        if active_ways < 0 or active_ways > self.model.geometry.ways:
            raise ValueError(
                f"active_ways={active_ways} outside 0..{self.model.geometry.ways}"
            )
        if now < self._last_event_cycle:
            # Cores execute at skewed local clocks (an access — or the
            # flush stall it charged — can overrun a boundary another
            # core has yet to reach), so a power event may be reported
            # with a stale timestamp.  Integration never rewinds: the
            # change takes effect at the frontier instead.
            now = self._last_event_cycle
        self._way_cycles += self._active_ways * (now - self._last_event_cycle)
        self._active_ways = active_ways
        self._last_event_cycle = now

    def finalize(self, end_cycle: int) -> None:
        """Close the static integration window at ``end_cycle``."""
        self.set_active_ways(self._active_ways, end_cycle)
        self._final_cycle = end_cycle

    def reset_window(self, now: int) -> None:
        """Discard everything accumulated so far (end of warmup).

        The current active-way count is kept — only the counters and
        the static integration window restart at ``now``.
        """
        self.tag_probes = 0
        self.data_reads = 0
        self.data_writes = 0
        self.writebacks = 0
        self.monitor_updates = 0
        self.core_dynamic_nj = 0.0
        self.core_static_nj = 0.0
        self._way_cycles = 0.0
        self._last_event_cycle = now
        self._final_cycle = now
        self._window_start = now

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------
    @property
    def dynamic_nj(self) -> float:
        """Total dynamic energy in nanojoules."""
        m = self.model
        total = (
            self.tag_probes * m.tag_probe_nj
            + self.data_reads * m.data_read_nj
            + self.data_writes * m.data_write_nj
            + self.writebacks * m.writeback_nj
        )
        if self.charge_overheads:
            total += self.monitor_updates * m.monitor_update_nj
        return total

    @property
    def static_nj(self) -> float:
        """Total static (leakage) energy in nanojoules."""
        total = self._way_cycles * self.model.leakage_nj_per_way_cycle
        if self.charge_overheads:
            window = self._final_cycle - self._window_start
            total += window * self.model.overhead_leakage_nj_per_cycle
        return total

    def static_nj_at(self, now: int) -> float:
        """Static energy integrated up to ``now`` without closing the
        window — the scenario timeline's per-interval observation.

        A ``now`` behind the last recorded way on/off event (possible
        when an access from a core running ahead completed a power
        transition past this boundary) reads the integration frontier
        instead — the reported series never decreases.
        """
        if now < self._last_event_cycle:
            now = self._last_event_cycle
        way_cycles = self._way_cycles + self._active_ways * (
            now - self._last_event_cycle
        )
        total = way_cycles * self.model.leakage_nj_per_way_cycle
        if self.charge_overheads:
            window = max(0, now - self._window_start)
            total += window * self.model.overhead_leakage_nj_per_cycle
        return total

    @property
    def last_event_cycle(self) -> int:
        """Cycle of the most recent way on/off event (or window reset).

        Accesses execute at core-local times that may overrun the next
        scheduler boundary; the boundary clock consults this to avoid
        stamping an event earlier than energy already integrated.
        """
        return self._last_event_cycle

    @property
    def core_energy_nj(self) -> float:
        """Total core-side energy (0.0 for runs without a governor)."""
        return self.core_dynamic_nj + self.core_static_nj

    @property
    def window_start(self) -> int:
        """First cycle of the current accounting window."""
        return self._window_start

    @property
    def average_active_ways(self) -> float:
        """Time-averaged number of powered ways."""
        window = self._final_cycle - self._window_start
        if window <= 0:
            return float(self._active_ways)
        return self._way_cycles / window
