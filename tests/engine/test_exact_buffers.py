"""Buffers the kernel writes are allocated at their exact size.

CPython over-allocates an ``array`` built from ``bytes`` or grown by
``extend``, so a kernel write a few items past the end lands in slack
the array owns, where a sanitized build sees nothing.  Built as
``array(code, [fill]) * n`` (or by concatenation), a buffer holds
exactly ``n`` items and an overflow hits the allocator's redzone.
"""

import sys
from array import array

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.memory import MainMemory
from repro.cache.set_associative import SetAssociativeCache
from repro.core.takeover import TakeoverVector
from repro.engine import COMPILED, available_engines
from repro.monitor.atd import AuxiliaryTagDirectory
from repro.monitor.sampling import SetSampler
from repro.monitor.umon import UtilityMonitor
from repro.partitioning.ucp import _Transition

GEOMETRY = CacheGeometry(256 * 16 * 64, 64, 16)  # 256 sets x 16 ways


def _slack(buffer: array) -> int:
    """Bytes allocated past the buffer's last item."""
    empty = sys.getsizeof(array(buffer.typecode))
    return sys.getsizeof(buffer) - empty - len(buffer) * buffer.itemsize


def _cache_buffers():
    cache = SetAssociativeCache(GEOMETRY)
    cache.ensure_cores(2)
    grown = SetAssociativeCache(GEOMETRY, track_copies=False)
    grown.ensure_cores(1)
    grown.ensure_cores(4)
    columns = ("tags", "owner", "dirty", "stamp", "mapped", "clock", "valid",
               "core_occupancy")
    buffers = {f"cache.{name}": getattr(cache, name) for name in columns}
    buffers["cache.core_occupancy(grown)"] = grown.core_occupancy
    return buffers


def _other_buffers():
    atd = AuxiliaryTagDirectory(16, list(range(0, 256, 32)))
    transition = _Transition(recipient=0, ways_gained=3, start_cycle=0,
                             num_sets=256)
    vector = TakeoverVector(256)
    reset = TakeoverVector(256)
    reset.mark(5)
    reset.reset()
    return {
        "memory._bank_free_at": MainMemory(n_banks=8)._bank_free_at,
        "atd.stacks": atd.stacks,
        "atd.lengths": atd.lengths,
        "atd.hits": atd.hits,
        "atd.counts": atd.counts,
        "ucp.gained_per_set": transition.gained_per_set,
        "ucp.complete_sets": transition.complete_sets,
        "takeover.bits": vector.bits,
        "takeover.bits(reset)": reset.bits,
    }


def _kernel_epoch_buffers():
    """The curve buffer of the kernel's epoch read-out and the
    lookahead's outputs (both bind kernel entry points)."""
    if COMPILED not in available_engines():
        return {}
    from repro.engine.build import load_kernel
    from repro.engine.compiled import KernelEpoch, KernelLookahead

    lib = load_kernel()
    monitors = [UtilityMonitor(16, SetSampler(256, 32)) for _ in range(4)]
    curves = KernelEpoch(lib, monitors).curves
    allocations, cores, blocks, mus = KernelLookahead(
        lib, curves, array("q", [0, 17, 34, 51]), array("q", [17]) * 4, 16
    ).outputs
    return {
        "epoch.curves": curves,
        "lookahead.allocations": allocations,
        "lookahead.cores": cores,
        "lookahead.blocks": blocks,
        "lookahead.mus": mus,
    }


_BUFFERS = {**_cache_buffers(), **_other_buffers(), **_kernel_epoch_buffers()}


@pytest.mark.parametrize("name", sorted(_BUFFERS))
def test_buffer_has_no_slack(name):
    buffer = _BUFFERS[name]
    assert len(buffer) > 0
    assert _slack(buffer) == 0


def test_slack_is_what_the_old_allocations_had():
    # The probe this file relies on: the old constructions leave slack.
    grown = array("q")
    grown.extend(array("q", bytes(8 * 4)))
    built = array("q", bytes(8 * 256))
    assert _slack(built) > 0 or _slack(grown) > 0
    assert _slack(array("q", [0]) * 256) == 0


def test_a_reset_keeps_the_takeover_buffer():
    vector = TakeoverVector(64)
    address = vector.bits.buffer_info()[0]
    vector.mark(3)
    vector.reset()
    assert vector.bits.buffer_info()[0] == address
    assert vector.bits.tolist() == [0] * 64
    assert vector.set_count == 0
