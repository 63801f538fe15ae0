"""Per-core execution state for the trace-driven timing model.

The paper simulates a 4-wide out-of-order core; for LLC-partitioning
studies what matters is how instruction throughput responds to LLC
hit/miss latency, so we use the standard trace-driven proxy: non-
memory instructions retire at the issue width, memory references pay
the L1/LLC/DRAM latency the simulator's access path returns
(:meth:`repro.sim.simulator.CMPSimulator._l1_access` and its C copy)
and block (misses are not overlapped — this
exaggerates memory sensitivity uniformly across schemes, preserving
every normalised comparison; see README.md, "Scaling fidelity").

A core whose trace is exhausted wraps around and keeps running — the
paper keeps finished applications executing "to keep contending for
cache resources" — but its performance counters freeze at the target
reference count.

The reference stream is the :class:`~repro.workloads.trace.Trace`'s
own ``array``-backed columns (``gaps``, ``addresses``, ``writes``,
``warm_lines``), so the simulator's inner loop indexes flat
machine-word arrays instead of lists of boxed objects.  Cores that run
the same benchmark share one copy of its trace: each application's
private address space is the core's ``offset``, added wherever an
address is read (the reference step, the warming step and the C
kernel), never stored.

Every scalar of a core's execution state lives in a per-simulator
:class:`CoreColumns` column at index ``core_id``, next to the buffer
addresses of its reference stream.  The columns are named after the
fields of ``engine/kernel.c``'s context that point at them, so the C
kernel reads and advances the very same memory: a compiled span copies
no per-core state in or out.  :class:`CoreState` is a view of one
core's row (plus the Python-only bindings: the trace arrays, the L1).
"""

from __future__ import annotations

from array import array
from operator import attrgetter

from repro.cache.set_associative import SetAssociativeCache
from repro.workloads.trace import Trace

#: address-space offset between cores (line-address bits)
CORE_ADDRESS_SPACE_BITS = 40


class CoreColumns:
    """Per-core execution state in int64 columns, one entry per core.

    Flags are stored as 0/1.  ``trace_*`` and ``warm_lines`` hold the
    buffer addresses of each core's reference stream and warming lines
    (written by :meth:`CoreState.load_trace`), ``warm_len`` the number
    of warming lines.  Each column is allocated at its exact size
    (``array * n``; a grown buffer over-allocates), so an out-of-bounds
    kernel write lands in a sanitizer's redzone.
    """

    __slots__ = (
        "core_time", "core_position", "core_instructions", "core_refs_done",
        "core_window_open", "core_window_closed", "core_instr_base",
        "core_cycle_base", "core_frozen_instr", "core_frozen_cycles",
        "core_active", "core_length",
        "trace_gaps", "trace_addr", "trace_writes", "warm_lines", "warm_len",
    )

    def __init__(self, n_cores: int) -> None:
        for name in self.__slots__:
            setattr(self, name, array("q", [0]) * n_cores)


def _field(column: str, flag: bool = False) -> property:
    """A :class:`CoreState` attribute stored at ``column[core_id]``."""
    read = attrgetter(column)

    def get(self: "CoreState") -> int | bool:
        value = read(self.columns)[self.core_id]
        return value != 0 if flag else value

    def put(self: "CoreState", value: int) -> None:
        read(self.columns)[self.core_id] = value

    return property(get, put)


class CoreState:
    """Mutable execution state of one simulated core."""

    __slots__ = (
        "core_id",
        "columns",
        "offset",
        "benchmark",
        "gaps",
        "addresses",
        "writes",
        "warm_lines",
        "departed",
        "l1",
    )

    time = _field("core_time")
    position = _field("core_position")
    instructions = _field("core_instructions")
    refs_done = _field("core_refs_done")
    instr_base = _field("core_instr_base")
    cycle_base = _field("core_cycle_base")
    frozen_instructions = _field("core_frozen_instr")
    frozen_cycles = _field("core_frozen_cycles")
    length = _field("core_length")
    window_closed = _field("core_window_closed", flag=True)
    #: whether the measurement window has opened (end of this core's
    #: warmup) — per core so late arrivals measure too
    window_open = _field("core_window_open", flag=True)
    #: whether the core is currently executing (scenario engine)
    active = _field("core_active", flag=True)

    def __init__(
        self, core_id: int, trace: Trace | None, columns: CoreColumns
    ) -> None:
        self.core_id = core_id
        self.columns = columns
        #: added to every trace line this core reads, keeping the
        #: multiprogrammed address spaces disjoint
        self.offset = (core_id + 1) << CORE_ADDRESS_SPACE_BITS
        self.active = True
        #: whether the core has departed for good
        self.departed = False
        #: the core's private L1, bound by the simulator
        self.l1: SetAssociativeCache | None = None
        if trace is None:
            # An absent slot (scenario engine): never executes, but
            # keeps CoreResult/RunResult shapes uniform.
            self.benchmark = "(absent)"
            self._bind(array("i"), array("q"), array("b"), array("q"))
            self.active = False
        else:
            self.load_trace(trace)

    def load_trace(self, trace: Trace) -> None:
        """Bind (or rebind, on a phase change) the reference stream.

        Binds the trace's own columns (readers add :attr:`offset`) and
        restarts the stream at position 0; execution counters keep
        running.
        """
        self.benchmark = trace.name
        self._bind(trace.gaps, trace.line_addresses, trace.writes, trace.warm_lines)
        self.position = 0

    def _bind(
        self, gaps: array, addresses: array, writes: array, warm_lines: array
    ) -> None:
        """Hold the stream's arrays and publish their buffer addresses
        (the arrays never resize, so the addresses stay valid)."""
        self.gaps = gaps
        self.addresses = addresses
        self.writes = writes
        self.warm_lines = warm_lines
        columns = self.columns
        core_id = self.core_id
        columns.trace_gaps[core_id] = gaps.buffer_info()[0]
        columns.trace_addr[core_id] = addresses.buffer_info()[0]
        columns.trace_writes[core_id] = writes.buffer_info()[0]
        columns.warm_lines[core_id] = warm_lines.buffer_info()[0]
        columns.warm_len[core_id] = len(warm_lines)
        columns.core_length[core_id] = len(addresses)

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
