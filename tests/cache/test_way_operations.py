"""Property tests: the strided way-wide operations against a naive model.

``invalidate_way``, ``flush_ways`` and
``TakeoverEngine.force_complete`` walk the flat line columns with a
stride of ``ways``.  Each is checked here against a per-line reference
written out longhand: a dict per (set, way), visited set by set.  The
cache is first driven through a random sequence of installs (clean and
dirty, several owners, forced ways so stale ``mapped`` copies occur).
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.memory import MainMemory
from repro.cache.set_associative import NO_TAG, SetAssociativeCache
from repro.core.takeover import TakeoverEngine, WayTransition
from repro.energy.accounting import EnergyAccounting
from repro.energy.cacti import CactiEnergyModel
from repro.partitioning.base import PolicyStats

GEOMETRY = CacheGeometry(8 * 4 * 64, 64, 4)  # 8 sets x 4 ways
SETS = GEOMETRY.num_sets
WAYS = GEOMETRY.ways
CORES = 3

_install = st.tuples(
    st.integers(0, SETS - 1),
    st.integers(0, WAYS - 1),
    st.integers(0, 5),  # few tags per set: re-installs create duplicates
    st.integers(0, CORES - 1),
    st.booleans(),
)
_operations = st.lists(_install, max_size=80)


def _driven(operations, track_copies=True):
    cache = SetAssociativeCache(GEOMETRY, track_copies=track_copies)
    cache.ensure_cores(CORES)
    for set_index, way, tag, core, dirty in operations:
        cache.install(set_index, way, tag, core, dirty)
    return cache


def _model(cache):
    """Per-line snapshot: {(set, way): {tag, owner, dirty, mapped}}."""
    lines = {}
    for set_index in range(SETS):
        for way in range(WAYS):
            line = set_index * WAYS + way
            lines[set_index, way] = {
                "tag": cache.tags[line],
                "owner": cache.owner[line],
                "dirty": cache.dirty[line],
                "mapped": None if cache.mapped is None else cache.mapped[line],
            }
    return lines


def _observed(cache):
    """The same view of a cache after an operation, plus its counters."""
    model = _model(cache)
    occupancy = [0] * CORES
    valid = [0] * SETS
    for (set_index, _), entry in model.items():
        if entry["tag"] != NO_TAG:
            valid[set_index] += 1
            occupancy[entry["owner"]] += 1
    return model, occupancy, valid


def _check(cache, model):
    lines, occupancy, valid = _observed(cache)
    assert lines == model
    assert cache.core_occupancy.tolist() == occupancy
    assert cache.valid.tolist() == valid


def _naive_invalidate_way(model, way):
    flushed = []
    for set_index in range(SETS):
        entry = model[set_index, way]
        if entry["tag"] == NO_TAG:
            continue
        if entry["dirty"]:
            flushed.append(GEOMETRY.rebuild_line_address(entry["tag"], set_index))
        if entry["mapped"] is not None and entry["mapped"] == entry["tag"]:
            entry["mapped"] = NO_TAG
        entry.update(tag=NO_TAG, owner=-1, dirty=0)
    return flushed


def _naive_flush(model, set_index, way):
    entry = model[set_index, way]
    if entry["tag"] == NO_TAG or not entry["dirty"]:
        return None
    entry["dirty"] = 0
    return GEOMETRY.rebuild_line_address(entry["tag"], set_index)


@given(_operations, st.integers(0, WAYS - 1), st.booleans())
def test_invalidate_way_matches_the_per_line_model(operations, way, track_copies):
    cache = _driven(operations, track_copies)
    model = _model(cache)
    expected = _naive_invalidate_way(model, way)
    assert cache.invalidate_way(way) == expected
    _check(cache, model)


@given(_operations, st.integers(0, WAYS - 1))
def test_flush_ways_matches_the_per_line_model(operations, way):
    cache = _driven(operations)
    model = _model(cache)
    expected = [
        address
        for set_index in range(SETS)
        if (address := _naive_flush(model, set_index, way)) is not None
    ]
    assert cache.flush_ways((way,)) == expected
    _check(cache, model)


class _RecordingMemory(MainMemory):
    def __init__(self) -> None:
        super().__init__()
        self.flushed: list[int] = []

    def writeback(self, line_address: int, now: int) -> None:
        self.flushed.append(line_address)
        super().writeback(line_address, now)


@given(
    _operations,
    st.lists(st.integers(0, WAYS - 1), min_size=1, max_size=WAYS, unique=True),
)
def test_force_complete_matches_the_per_line_model(operations, ways):
    cache = _driven(operations)
    memory = _RecordingMemory()
    stats = PolicyStats(CORES)
    energy = EnergyAccounting(CactiEnergyModel(GEOMETRY, CORES))
    engine = TakeoverEngine(cache, memory, energy, stats)
    engine.begin([
        WayTransition(way=way, donor=0, recipient=1, start_cycle=0)
        for way in ways
    ])
    model = _model(cache)
    donating = engine.ways_of_donor(0)
    expected = []
    for set_index in range(SETS):
        for way in donating:
            address = _naive_flush(model, set_index, way)
            if address is not None:
                expected.append(address)
    moves = engine.force_complete(0, now=100)
    assert sorted(move.way for move in moves) == sorted(ways)
    assert memory.flushed == expected
    assert memory.writebacks == len(expected)
    assert stats.transfer_flushes == len(expected)
    _check(cache, model)
