"""Per-core execution state for the trace-driven timing model.

The paper simulates a 4-wide out-of-order core; for LLC-partitioning
studies what matters is how instruction throughput responds to LLC
hit/miss latency, so we use the standard trace-driven proxy: non-
memory instructions retire at the issue width, memory references pay
the L1/LLC/DRAM latency the simulator's access path returns
(:meth:`repro.sim.simulator.CMPSimulator._l1_miss` and its inline and
C copies) and block (misses are not overlapped — this
exaggerates memory sensitivity uniformly across schemes, preserving
every normalised comparison; see README.md, "Scaling fidelity").

A core whose trace is exhausted wraps around and keeps running — the
paper keeps finished applications executing "to keep contending for
cache resources" — but its performance counters freeze at the target
reference count.

The reference stream is held in ``array``-backed columns (``gaps``,
``addresses``, ``writes``) shared with or derived from the
:class:`~repro.workloads.trace.Trace`, so the simulator's inner loop
indexes flat machine-word arrays instead of lists of boxed objects.
"""

from __future__ import annotations

from array import array

from repro.cache.set_associative import SetAssociativeCache
from repro.workloads.trace import Trace

#: address-space offset between cores (line-address bits)
CORE_ADDRESS_SPACE_BITS = 40


class CoreState:
    """Mutable execution state of one simulated core."""

    __slots__ = (
        "core_id",
        "benchmark",
        "gaps",
        "addresses",
        "writes",
        "warm_lines",
        "length",
        "position",
        "time",
        "instructions",
        "refs_done",
        "instr_base",
        "cycle_base",
        "frozen_instructions",
        "frozen_cycles",
        "window_closed",
        "window_open",
        "active",
        "departed",
        "l1",
        "l1_tag_rows",
        "l1_stamp_rows",
    )

    def __init__(self, core_id: int, trace: Trace | None) -> None:
        self.core_id = core_id
        self.position = 0
        self.time = 0
        self.instructions = 0
        self.refs_done = 0
        self.instr_base = 0
        self.cycle_base = 0
        self.frozen_instructions = 0
        self.frozen_cycles = 0
        self.window_closed = False
        #: whether the measurement window has opened (end of this
        #: core's warmup) — per core so late arrivals measure too
        self.window_open = False
        #: whether the core is currently executing (scenario engine)
        self.active = True
        #: whether the core has departed for good
        self.departed = False
        #: the core's private L1, bound by the simulator so the inner
        #: loop reaches its line columns without a list lookup
        self.l1: SetAssociativeCache | None = None
        #: per-set views of the L1's ``tags`` and ``stamp`` columns
        #: (same binding): the python tier's probe and LRU scans
        self.l1_tag_rows: list[memoryview] | None = None
        self.l1_stamp_rows: list[memoryview] | None = None
        if trace is None:
            # An absent slot (scenario engine): never executes, but
            # keeps CoreResult/RunResult shapes uniform.
            self.benchmark = "(absent)"
            self.gaps = array("q")
            self.addresses = array("q")
            self.writes = array("b")
            self.warm_lines = array("q")
            self.length = 0
            self.active = False
        else:
            self.load_trace(trace)

    def load_trace(self, trace: Trace) -> None:
        """Bind (or rebind, on a phase change) the reference stream.

        Applies the core's private address-space offset and restarts
        the stream at position 0; execution counters keep running.
        """
        offset = (self.core_id + 1) << CORE_ADDRESS_SPACE_BITS
        self.benchmark = trace.name
        self.gaps = trace.gaps
        self.addresses, self.warm_lines = trace.for_core(offset)
        self.writes = trace.writes
        self.length = len(trace.line_addresses)
        self.position = 0

    @property
    def finished(self) -> bool:
        """Whether the measurement window for this core has closed."""
        return self.window_closed

    def start_measurement(self) -> None:
        """Reset the measured window (end of this core's warmup)."""
        self.instr_base = self.instructions
        self.cycle_base = self.time
        self.window_open = True

    def freeze(self) -> None:
        """Capture the measured window at the target reference count."""
        self.frozen_instructions = self.instructions - self.instr_base
        self.frozen_cycles = self.time - self.cycle_base
        self.window_closed = True
