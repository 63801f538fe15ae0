"""Synthetic trace generation from benchmark profiles.

A trace is three parallel arrays: the number of non-memory
instructions preceding each reference (``gaps``), the referenced line
address, and whether the reference is a store.  Traces are generated
deterministically from ``(profile, geometry, seed)`` so every
partitioning scheme sees byte-identical input — the comparisons in
the paper's figures are paired.

Address-space layout (line addresses, stored as 32-bit ``'i'`` items):

* the hot (L1-resident) region lives at 0;
* each ring ``k`` lives at ``(k + 1) << RING_REGION_BITS``, below
  ``STREAM_BASE``;
* the streaming component walks upward from ``STREAM_BASE`` (``1 <<
  30``), one new line per stream reference, so a trace of at most
  ``2**30`` references stays within ``2**31 - 1``;
* each core adds its own offset (``CoreState.offset``, ``(core + 1) <<
  40``) to every line it reads, keeping the multiprogrammed address
  spaces disjoint, so every core that runs a benchmark reads the same
  copy of its trace.

:func:`generate_trace` refuses a trace whose rings or stream would not
fit these bounds before it allocates anything.

Generation is one loop over references, written twice: the C kernel's
``repro_trace_fill`` (steps CPython's Mersenne Twister itself) and
:func:`_fill_columns_python`, its line-for-line reference and the
fallback when no C compiler is available.  Both consume the same
``random.Random`` words in the same order, so the traces are
byte-identical whichever one runs.  :func:`_kernel` picks between
them and counts every fallback.
"""

from __future__ import annotations

import ctypes
import random
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain

from repro.cache.geometry import CacheGeometry
from repro.engine.build import ST_DONE, load_kernel
from repro.workloads.profiles import BenchmarkProfile, Phase
from repro.workloads.seeding import stable_rng

#: bits reserved for one ring's address region
RING_REGION_BITS = 24
#: line-address base of the streaming region
STREAM_BASE = 1 << 30
#: largest line address the 32-bit address column holds
MAX_LINE_ADDRESS = (1 << 31) - 1
#: each column's ``array`` typecode: the width the C kernel reads it at
COLUMN_TYPECODES = {
    "gaps": "i", "line_addresses": "i", "writes": "b", "warm_lines": "i",
}


@dataclass
class Trace:
    """One core's reference stream.

    ``instructions`` counts every instruction the trace represents:
    each reference contributes its gap plus the memory instruction
    itself.  ``warm_lines`` lists the resident working set (hot region
    and every ring line, not the stream): the simulator pre-touches it
    before measurement, mirroring the paper's explicit cache-warming
    phase after fast-forward, so short traces are not dominated by
    compulsory misses the paper's 1B-instruction runs amortise away.

    The three parallel columns are ``array``-backed (``'i'`` int32 for
    gaps and line addresses, ``'b'`` 0/1 flags for writes), 9 bytes
    per reference, so a 100k-reference trace is three flat buffers,
    not 300k boxed Python objects; the simulator indexes them directly
    in its inner loop.  ``warm_lines`` is ``'i'`` too.  The addresses
    are the benchmark's own; each core adds its offset as it reads.
    The columns are read-only to every consumer, so all the cores that
    run this trace, in any run, share them.
    """

    name: str
    gaps: "array[int]"
    line_addresses: "array[int]"
    writes: "array[int]"
    warm_lines: "array[int]"

    def __post_init__(self) -> None:
        # The compiled engine reads the columns in place, so a column of
        # another width would run to a wrong result, not fail.
        for field, code in COLUMN_TYPECODES.items():
            typecode = getattr(self, field).typecode
            if typecode != code:
                raise TypeError(
                    f"Trace.{field} must be an array({code!r}), "
                    f"got an array({typecode!r})"
                )

    def __len__(self) -> int:
        return len(self.line_addresses)

    @property
    def instructions(self) -> int:
        """Total instructions represented by the trace."""
        return sum(self.gaps) + len(self.gaps)


def _kernel() -> ctypes.CDLL | None:
    """The C kernel, or ``None`` when it cannot be built or loaded.

    Trace fill chooses between the kernel and its scalar loop here, so
    a fallback is counted in ``repro_kernel_fallbacks_total`` and never
    silent.
    """
    try:
        return load_kernel()
    except Exception as exc:  # noqa: BLE001 - any build/load failure
        from repro.obs.log import note_fallback  # lazy: repro.obs imports us

        reason = str(exc).partition("\n")[0] or type(exc).__name__
        note_fallback(
            "workloads.trace_gen",
            f"repro: C kernel unavailable ({reason}); generating traces in Python",
        )
        return None


def _spread_addresses(base: int, lines: int, num_sets: int) -> list[int]:
    """Line addresses for a region, spread evenly over all cache sets.

    A naive contiguous layout concentrates a small region (fewer lines
    than sets) onto the low-index sets, and stacks every region onto
    the same sets because region bases are set-aligned.  Real L2/L3
    caches avoid exactly this with index hashing, so we model it: full
    ``num_sets``-sized layers map one line per set, and the remainder
    layer is spaced evenly across the index range.
    """
    addresses: list[int] = []
    full_layers, remainder = divmod(lines, num_sets)
    for layer in range(full_layers):
        layer_base = base + layer * num_sets
        addresses.extend(range(layer_base, layer_base + num_sets))
    if remainder:
        layer_base = base + full_layers * num_sets
        addresses.extend(
            layer_base + (i * num_sets) // remainder for i in range(remainder)
        )
    return addresses


def generate_trace(
    profile: BenchmarkProfile,
    llc_geometry: CacheGeometry,
    l1_lines: int,
    n_refs: int,
    seed: int = 0,
) -> Trace:
    """Generate ``n_refs`` references for ``profile``.

    Ring footprints scale with ``llc_geometry`` (``ways_worth`` x
    number of sets) so the same profile exercises the same *relative*
    pressure on the paper-scale and scaled-down caches.  The hot
    region is sized to half the L1 so it filters into L1 hits after
    warmup.

    The C kernel fills the columns; the scalar loop runs only when it
    cannot be built or loaded (counted in
    ``repro_kernel_fallbacks_total``).  Both give the same bytes.
    """
    if n_refs <= 0:
        raise ValueError(f"n_refs must be positive, got {n_refs}")
    # Every bound is checked before anything is allocated.
    if STREAM_BASE + n_refs - 1 > MAX_LINE_ADDRESS:  # the stream's last line
        raise ValueError(
            f"{profile.name}: {n_refs} references could walk the stream "
            f"past line {MAX_LINE_ADDRESS} of the 32-bit address column"
        )
    mean_gap = 1000.0 / profile.apki - 1.0
    if 2 * mean_gap + 1 >= 1 << 31:  # the largest gap must fit in int32
        raise ValueError(
            f"{profile.name}: APKI {profile.apki} gives gaps too long for "
            f"a 32-bit gap column"
        )
    num_sets = llc_geometry.num_sets
    ring_lines = [max(1, round(ring.ways_worth * num_sets)) for ring in profile.rings]
    for index, lines in enumerate(ring_lines):
        # _spread_addresses stays inside whole layers of num_sets lines
        end = ((index + 1) << RING_REGION_BITS) + -(-lines // num_sets) * num_sets
        if end > STREAM_BASE:
            raise ValueError(
                f"{profile.name}: ring {index} ({lines} lines) reaches the "
                f"stream region at line {STREAM_BASE}"
            )
    hot_addresses = _spread_addresses(0, max(1, l1_lines // 2), num_sets)
    ring_addresses = [
        _spread_addresses((index + 1) << RING_REGION_BITS, lines, num_sets)
        for index, lines in enumerate(ring_lines)
    ]
    # Per category (0 = hot region, 1..n = rings, last = stream): the
    # address table, empty for the stream, and whether it is walked
    # cyclically instead of drawn from uniformly.
    tables = [hot_addresses, *ring_addresses, []]
    cyclic = [False, *(ring.pattern == "cyclic" for ring in profile.rings), False]
    kernel = _kernel()
    fill = _fill_columns_python if kernel is None else partial(_fill_columns_c, kernel)
    # crc32, not hash(): str hashing is salted per process, and trace
    # identity must hold across the sweep executor's worker processes
    # (and across sessions sharing one result store).
    gaps, addresses, writes = fill(
        stable_rng(profile.name, seed),
        _phase_tables(profile),
        tables,
        cyclic,
        mean_gap,
        profile.write_ratio,
        n_refs,
    )

    return Trace(
        name=profile.name,
        gaps=gaps,
        line_addresses=addresses,
        writes=writes,
        warm_lines=array("i", chain.from_iterable(tables)),
    )


Phases = list[tuple[int, list[float]]]


def _fill_columns_python(
    rng: random.Random,
    phases: Phases,
    tables: list[list[int]],
    cyclic: list[bool],
    mean_gap: float,
    write_ratio: float,
    n_refs: int,
) -> tuple["array[int]", "array[int]", "array[int]"]:
    """Scalar column fill: the reference ``repro_trace_fill`` mirrors.

    Each reference picks its category by smooth weighted round-robin
    over the phase's weights (hot region, each ring, stream).
    Deterministic interleaving keeps every component's rate exact and
    gives cyclic rings knife-edge reuse distances, which is what makes
    the UMON utility curves saturate sharply — the behaviour the
    paper's threshold lookahead relies on.  An iid category draw would
    smear each working-set knee over several ways (Poisson
    interleaving noise).  The address then comes from the category's
    cyclic cursor, a uniform ``randrange`` draw, or the stream cursor,
    and two ``random()`` calls give the gap and the write flag.
    """
    n_categories = len(tables)
    stream = n_categories - 1
    lines = [len(table) for table in tables]
    credits = [0.0] * n_categories
    cursors = [0] * n_categories
    category_range = range(1, n_categories)
    gaps: list[int] = []
    addresses: list[int] = []
    writes: list[bool] = []
    choose = rng.random
    randrange = rng.randrange
    phase_index = 0
    refs_left_in_phase = phases[0][0]
    for _ in range(n_refs):
        if refs_left_in_phase <= 0:
            phase_index = (phase_index + 1) % len(phases)
            refs_left_in_phase = phases[phase_index][0]
        refs_left_in_phase -= 1
        weights = phases[phase_index][1]

        best = 0
        best_credit = credits[0] + weights[0]
        credits[0] = best_credit
        for index in category_range:
            credit = credits[index] + weights[index]
            credits[index] = credit
            if credit > best_credit:
                best = index
                best_credit = credit
        credits[best] -= 1.0

        if best == stream:
            address = STREAM_BASE + cursors[best]
            cursors[best] += 1
        elif cyclic[best]:
            address = tables[best][cursors[best]]
            cursors[best] = (cursors[best] + 1) % lines[best]
        else:
            address = tables[best][randrange(lines[best])]
        # Uniform in [0, 2*mean]; rounding keeps the mean unbiased so
        # instructions-per-reference matches the profile's APKI.
        gaps.append(int(choose() * 2.0 * mean_gap + 0.5))
        addresses.append(address)
        writes.append(choose() < write_ratio)

    return array("i", gaps), array("i", addresses), array("b", writes)


def _fill_columns_c(
    kernel: ctypes.CDLL,
    rng: random.Random,
    phases: Phases,
    tables: list[list[int]],
    cyclic: list[bool],
    mean_gap: float,
    write_ratio: float,
    n_refs: int,
) -> tuple["array[int]", "array[int]", "array[int]"]:
    """:func:`_fill_columns_python` in the C kernel, byte for byte."""
    state = array("I", rng.getstate()[1])  # 624 words, then the index
    durations = array("q", [duration for duration, _weights in phases])
    weights = array("d", [weight for _duration, row in phases for weight in row])
    lines = array("q", map(len, tables))
    flags = array("q", cyclic)
    offsets = array("q", accumulate(lines[:-1], initial=0))
    flat = array("i", chain.from_iterable(tables))
    gaps = array("i", [0]) * n_refs
    addresses = array("i", [0]) * n_refs
    writes = array("b", [0]) * n_refs
    status = kernel.repro_trace_fill(
        _addr(state), n_refs,
        len(phases), _addr(durations), _addr(weights),
        len(tables), _addr(lines), _addr(flags), _addr(offsets), _addr(flat),
        mean_gap, write_ratio, STREAM_BASE,
        _addr(gaps), _addr(addresses), _addr(writes),
    )
    if status != ST_DONE:
        raise RuntimeError(f"repro_trace_fill returned status {status}")
    return gaps, addresses, writes


def _addr(values: array) -> int:
    return values.buffer_info()[0]


def _phase_tables(profile: BenchmarkProfile) -> Phases:
    """Per-phase ``(duration, [hot, ring..., stream] weights)``.

    Ring/stream weights are absolute fractions of all references; the
    mass not covered by rings+stream goes to the hot (L1-resident)
    region, so profiles control the absolute LLC access rate directly.
    A profile without phases is one phase that never ends.
    """
    steady = Phase(
        1 << 62, tuple(ring.weight for ring in profile.rings), profile.stream_weight
    )
    tables: Phases = []
    for phase in profile.phases or (steady,):
        if len(phase.ring_weights) != len(profile.rings):
            raise ValueError(
                f"{profile.name}: phase has {len(phase.ring_weights)} ring "
                f"weights for {len(profile.rings)} rings"
            )
        covered = sum(phase.ring_weights) + phase.stream_weight
        if covered > 1.0:
            raise ValueError(f"mixture weights sum to {covered:.3f} > 1")
        weights = [1.0 - covered, *phase.ring_weights, phase.stream_weight]
        tables.append((phase.duration_refs, weights))
    return tables
