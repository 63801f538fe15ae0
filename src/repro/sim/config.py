"""System configurations (paper Table 2) and scaled-down variants.

The paper simulates a 4-wide out-of-order x86 with private 32 kB L1s
and a shared L2 (2 MB/8-way for two cores, 4 MB/16-way for four),
8-bank DRAM at 400 cycles, and a 5M-cycle monitoring/partitioning
epoch.  ``paper_two_core()``/``paper_four_core()`` reproduce those
geometries exactly.

The figure runs use ``scaled_two_core()`` / ``scaled_four_core()``:
the LLC keeps its associativity (the quantity every partitioning
result is expressed in) while sets, trace length and epoch length
shrink together, and every reported result is normalised.  The
shorter length is a choice of cost, not a proof of fidelity: on a
2-vCPU VM a cold two-core sweep at 960k references per core took
3.86 s, and the normalised figures still move with length between
the 60k figure default and 960k (Cooperative Partitioning's dynamic
energy 0.919 → 0.841 of Fair Share; Fig. 15's speed advantage ≥6.8×
→ ≥1.6×).  ROADMAP.md item 12 holds the readings and the plan to
pick a converged length; README.md, "Scaling fidelity", sums it up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cache.geometry import CacheGeometry


@dataclass(frozen=True)
class SystemConfig:
    """Everything a simulation needs to know about the machine.

    ``flush_bucket_cycles`` sets the histogram resolution for the
    Figure 16 flush-bandwidth timeline; ``umon_interval`` is UMON's
    dynamic set-sampling stride; ``threshold`` is the paper's takeover
    threshold ``T`` (Section 5.1 selects 0.05).
    """

    n_cores: int
    l1: CacheGeometry
    l2: CacheGeometry
    l1_latency: int = 2
    l2_latency: int = 15
    mem_latency: int = 400
    mem_banks: int = 8
    mem_bank_busy: int = 40
    issue_width: int = 4
    epoch_cycles: int = 5_000_000
    umon_interval: int = 32
    umon_decay: float = 0.5
    threshold: float = 0.05
    refs_per_core: int = 120_000
    warmup_refs: int = 15_000
    flush_bucket_cycles: int = 250_000
    seed: int = 2012

    def __post_init__(self) -> None:
        # An epoch of 0 cycles fires epochs back to back and never ends
        # the run; a flush bucket of 0 cycles divides by zero.
        for name in ("epoch_cycles", "flush_bucket_cycles"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        # A negative latency or threshold runs to a wrong table or fails
        # an epoch later; zero (and -0.0) stays a valid setting.
        for name in ("l1_latency", "l2_latency", "mem_latency", "mem_bank_busy",
                     "threshold"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must not be negative, got {value!r}")
        # The simulator issues by a shift of log2(issue_width), so any
        # other width would silently run as the power of two below it.
        width = self.issue_width
        if width < 1 or width & (width - 1):
            raise ValueError(
                f"issue_width must be a positive power of two, got {width!r}"
            )
        if not 0.0 <= self.umon_decay < 1.0:
            raise ValueError(f"umon_decay must be in [0, 1), got {self.umon_decay!r}")

    def with_threshold(self, threshold: float) -> "SystemConfig":
        """Copy of this config with a different takeover threshold."""
        return replace(self, threshold=threshold)

    def alone(self) -> "SystemConfig":
        """Single-core variant used for IPC_alone / profiling runs.

        The takeover threshold is normalised away: alone runs always
        use the Unmanaged policy, which ignores it, and keeping it
        out of the alone-run identity stops threshold sweeps from
        re-profiling every benchmark once per ``T`` (one alone run
        per benchmark per geometry).
        """
        default_threshold = SystemConfig.__dataclass_fields__["threshold"].default
        return replace(self, n_cores=1, threshold=default_threshold)

    def describe(self) -> list[tuple[str, str]]:
        """Table 2-style (parameter, configuration) rows."""
        return [
            ("Processor", f"{self.issue_width}-wide, trace-driven, blocking misses"),
            ("L1 DCache", f"{self.l1.describe()}, {self.l1_latency} cycle lat"),
            (
                "Shared L2",
                f"{self.l2.describe()}, {self.l2_latency} cycle lat",
            ),
            (
                "Memory",
                f"{self.mem_banks} DRAM banks, {self.mem_latency} cycle lat",
            ),
            ("Epoch", f"{self.epoch_cycles} cycles"),
            ("UMON sampling", f"1 in {self.umon_interval} sets"),
            ("Takeover threshold", f"{self.threshold}"),
        ]


def paper_two_core() -> SystemConfig:
    """Exact Table 2 two-core system (slow in pure Python)."""
    return SystemConfig(
        n_cores=2,
        l1=CacheGeometry(32 * 1024, 64, 4),
        l2=CacheGeometry(2 * 1024 * 1024, 64, 8),
        l2_latency=15,
        epoch_cycles=5_000_000,
        refs_per_core=50_000_000,
        warmup_refs=1_000_000,
        flush_bucket_cycles=250_000,
    )


def paper_four_core() -> SystemConfig:
    """Exact Table 2 four-core system (slow in pure Python)."""
    return SystemConfig(
        n_cores=4,
        l1=CacheGeometry(32 * 1024, 64, 4),
        l2=CacheGeometry(4 * 1024 * 1024, 64, 16),
        l2_latency=20,
        epoch_cycles=5_000_000,
        refs_per_core=50_000_000,
        warmup_refs=1_000_000,
        flush_bucket_cycles=250_000,
    )


#: measured references per core of the Figs. 5–13 runs, by core
#: count: the default of ``repro sweep``/``repro report`` and of the
#: figure drivers in ``benchmarks/``, so both share task keys
FIGURE_REFS_PER_CORE = {2: 60_000, 4: 50_000}


def scaled_two_core(refs_per_core: int = 120_000) -> SystemConfig:
    """Laptop-scale two-core system used by the benchmark harness.

    The L2 keeps 8 ways but drops to 256 sets (128 kB); the epoch and
    trace shrink proportionally (an epoch covers roughly the same
    number of LLC accesses relative to the set count as the paper's
    5M-cycle interval, so takeover transitions span a comparable
    fraction of an epoch).  Ring footprints scale with the geometry,
    so partitioning pressure is preserved.
    """
    return SystemConfig(
        n_cores=2,
        l1=CacheGeometry(4 * 1024, 64, 4),
        l2=CacheGeometry(128 * 1024, 64, 8),
        l2_latency=15,
        epoch_cycles=350_000,
        umon_interval=4,
        refs_per_core=refs_per_core,
        warmup_refs=max(2_000, refs_per_core // 8),
        flush_bucket_cycles=20_000,
    )


def scaled_four_core(refs_per_core: int = 100_000) -> SystemConfig:
    """Laptop-scale four-core system (16-way, 256-set shared L2)."""
    return SystemConfig(
        n_cores=4,
        l1=CacheGeometry(4 * 1024, 64, 4),
        l2=CacheGeometry(256 * 1024, 64, 16),
        l2_latency=20,
        epoch_cycles=350_000,
        umon_interval=4,
        refs_per_core=refs_per_core,
        warmup_refs=max(2_000, refs_per_core // 8),
        flush_bucket_cycles=20_000,
    )
