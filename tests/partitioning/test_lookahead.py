"""Unit and property tests for the threshold-extended lookahead.

The Python :func:`lookahead_partition` is the reference.  The kernel's
copy (``repro_lookahead``, which a compiled run's UCP and Cooperative
decisions call) must give the same result on every input, and at
T = 0 on diminishing-returns curves both must reach the optimum that
:func:`optimal_allocation`, an exhaustive DP, finds.
"""

import itertools
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import COMPILED, available_engines
from repro.partitioning.lookahead import lookahead_partition

requires_kernel = pytest.mark.skipif(
    COMPILED not in available_engines(), reason="no C toolchain"
)


def _kernel_lookahead(curves, total_ways, threshold=0.0, min_ways=1):
    """The kernel's lookahead over ``curves`` packed end to end."""
    from repro.engine.build import load_kernel
    from repro.engine.compiled import KernelLookahead

    starts = list(itertools.accumulate((len(c) for c in curves), initial=0))
    lookahead = KernelLookahead(
        load_kernel(), array("q", [v for curve in curves for v in curve]),
        array("q", starts[:-1]), array("q", [len(c) for c in curves]),
        total_ways, min_ways,
    )
    return lookahead(threshold)


def _exact(result):
    """A result with each utility as its bits, so -0.0 != 0.0."""
    return (result.allocations, result.unallocated,
            [(core, blocks, mu.hex()) for core, blocks, mu in result.rounds])


def _lookaheads():
    """The implementations under test: Python, and the kernel's when
    it loads."""
    engines = [lookahead_partition]
    if COMPILED in available_engines():
        engines.append(_kernel_lookahead)
    return engines


def _curve(*deltas, base=10_000):
    """Build a miss curve from per-way miss reductions."""
    curve = [base]
    for delta in deltas:
        curve.append(curve[-1] - delta)
    return curve


class TestUCPSemantics:
    """T = 0 must reproduce plain UCP lookahead."""

    def test_all_ways_allocated(self):
        result = lookahead_partition(
            [_curve(100, 100, 0, 0), _curve(50, 0, 0, 0)], 4, threshold=0.0
        )
        assert sum(result.allocations) == 4
        assert result.unallocated == 0

    def test_utility_hungry_core_wins(self):
        hungry = _curve(1000, 900, 800, 700, 600, 500, 400, 300)
        modest = _curve(100, 0, 0, 0, 0, 0, 0, 0)
        result = lookahead_partition([hungry, modest], 8, threshold=0.0)
        assert result.allocations[0] >= 6
        assert result.allocations[1] >= 1  # the floor

    def test_lookahead_sees_through_plateaus(self):
        # Core 0 gains nothing for 2 ways then a large cliff at way 4
        # (its marginal utility is realised only by a 3-way jump).
        cliff = _curve(500, 0, 0, 3000, 0, 0, 0, 0)
        modest = _curve(400, 300, 200, 100, 50, 20, 10, 5)
        result = lookahead_partition([cliff, modest], 8, threshold=0.0)
        assert result.allocations[0] >= 4

    def test_symmetric_cores_split_evenly(self):
        curve = _curve(500, 400, 300, 200)
        result = lookahead_partition([list(curve), list(curve)], 4, threshold=0.0)
        assert result.allocations == [2, 2]


class TestThreshold:
    def test_weak_tail_left_unallocated(self):
        strong = _curve(1000, 800, 10, 5, 2, 1, 0, 0)
        weak = _curve(900, 5, 2, 0, 0, 0, 0, 0)
        result = lookahead_partition([strong, weak], 8, threshold=0.05)
        assert result.unallocated >= 3

    def test_zero_utility_not_allocated_with_threshold(self):
        flat = _curve(0, 0, 0, 0)
        result = lookahead_partition([list(flat), list(flat)], 4, threshold=0.05)
        assert result.allocations == [1, 1]
        assert result.unallocated == 2

    def test_threshold_one_allocates_only_floor(self):
        declining = _curve(1000, 900, 800, 700)
        result = lookahead_partition([declining, _curve(10, 5, 2, 1)], 4, threshold=1.5)
        # Strictly declining utility can never stay >= 1.5x the peak.
        assert sum(result.allocations) <= 3

    def test_higher_threshold_never_allocates_more(self):
        curves = [
            _curve(1000, 600, 300, 150, 80, 40, 20, 10),
            _curve(500, 250, 120, 60, 30, 15, 8, 4),
        ]
        previous = 8
        for threshold in (0.0, 0.01, 0.05, 0.1, 0.2, 0.5):
            result = lookahead_partition(
                [list(c) for c in curves], 8, threshold=threshold
            )
            allocated = sum(result.allocations)
            assert allocated <= previous
            previous = allocated

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            lookahead_partition([_curve(1, 1)], 2, threshold=-0.1)


class TestValidation:
    def test_no_cores_rejected(self):
        with pytest.raises(ValueError):
            lookahead_partition([], 8)

    def test_too_few_ways_rejected(self):
        with pytest.raises(ValueError):
            lookahead_partition([_curve(1), _curve(1)], 1)


@given(
    data=st.data(),
    n_cores=st.integers(1, 4),
    threshold=st.sampled_from([0.0, 0.01, 0.05, 0.1, 0.2]),
)
def test_allocation_invariants(data, n_cores, threshold):
    """Allocations are positive, bounded, and sum to <= total ways;
    with T=0 they sum to exactly the total."""
    total_ways = 8
    curves = []
    for _ in range(n_cores):
        deltas = data.draw(
            st.lists(st.integers(0, 1000), min_size=total_ways, max_size=total_ways)
        )
        curves.append(_curve(*deltas))
    result = lookahead_partition(curves, total_ways, threshold=threshold)
    assert all(a >= 1 for a in result.allocations)
    assert sum(result.allocations) + result.unallocated == total_ways
    if threshold == 0.0:
        assert result.unallocated == 0


@given(data=st.data())
def test_rounds_are_consistent_with_allocations(data):
    deltas_a = data.draw(st.lists(st.integers(0, 500), min_size=8, max_size=8))
    deltas_b = data.draw(st.lists(st.integers(0, 500), min_size=8, max_size=8))
    result = lookahead_partition(
        [_curve(*deltas_a), _curve(*deltas_b)], 8, threshold=0.05
    )
    from_rounds = [1, 1]  # the per-core floor
    for core, blocks, _ in result.rounds:
        from_rounds[core] += blocks
    assert from_rounds == result.allocations


# ----------------------------------------------------------------------
# The kept bids against the loop that re-bids every core every round
# ----------------------------------------------------------------------
def _reference_marginal_utility(curve, alloc, balance):
    max_mu = float("-inf")
    blocks_req = 1
    base_misses = curve[alloc]
    limit = min(balance, len(curve) - 1 - alloc)
    for j in range(1, limit + 1):
        mu = (base_misses - curve[alloc + j]) / j
        if mu > max_mu:
            max_mu = mu
            blocks_req = j
    if max_mu == float("-inf"):
        return 0.0, 0
    return max_mu, blocks_req


def _reference_lookahead(miss_curves, total_ways, threshold, min_ways):
    """Algorithm 1 as first written: every core re-bids every round."""
    n_cores = len(miss_curves)
    allocations = [min_ways] * n_cores
    balance = total_ways - n_cores * min_ways
    rounds = []
    mu_peak = None
    while balance > 0:
        winner = -1
        winner_mu = float("-inf")
        winner_blocks = 0
        for core in range(n_cores):
            mu, blocks = _reference_marginal_utility(
                miss_curves[core], allocations[core], balance
            )
            if blocks == 0:
                continue
            if mu > winner_mu or (
                mu == winner_mu and winner >= 0
                and allocations[core] < allocations[winner]
            ):
                winner, winner_mu, winner_blocks = core, mu, blocks
        if winner < 0:
            break
        if mu_peak is None:
            mu_peak = winner_mu
        if threshold > 0:
            if winner_mu <= 0 or winner_mu < threshold * mu_peak:
                break
        allocations[winner] += winner_blocks
        balance -= winner_blocks
        rounds.append((winner, winner_blocks, winner_mu))
    return allocations, balance, rounds


@st.composite
def _lookahead_inputs(draw):
    """Curves of any length from ``min_ways + 1`` (they cover the
    floor) to ``total_ways + 1``, from a few values so equal utilities
    (ties) are common; some cores share a curve; the curves may rise
    as well as fall."""
    total_ways = draw(st.sampled_from([2, 4, 8, 16]))
    n_cores = draw(st.integers(1, min(4, total_ways)))
    min_ways = draw(st.integers(0, total_ways // n_cores))
    curves = []
    for _ in range(n_cores):
        if curves and draw(st.booleans()):
            curves.append(list(draw(st.sampled_from(curves))))
            continue
        length = draw(st.integers(min_ways + 1, total_ways + 1))
        steps = draw(st.lists(st.sampled_from([0, 0, 1, 2, 4, 8, -1]),
                              min_size=length - 1, max_size=length - 1))
        curve = [draw(st.sampled_from([0, 8, 64]))]
        for step in steps:
            curve.append(curve[-1] - step)
        curves.append(curve)
    threshold = draw(st.sampled_from([0.0, 0.05, 0.25, 0.5, 1.0, 1.5]))
    return curves, total_ways, threshold, min_ways


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_lookahead_inputs())
def test_kept_bids_match_rebidding_every_round(inputs):
    curves, total_ways, threshold, min_ways = inputs
    expected = _reference_lookahead(curves, total_ways, threshold, min_ways)
    result = lookahead_partition(
        curves, total_ways, threshold=threshold, min_ways=min_ways
    )
    assert (result.allocations, result.unallocated, result.rounds) == expected


@requires_kernel
@settings(derandomize=True, max_examples=400, deadline=None)
@given(_lookahead_inputs())
def test_the_kernel_lookahead_matches_the_python_one(inputs):
    curves, total_ways, threshold, min_ways = inputs
    expected = lookahead_partition(
        curves, total_ways, threshold=threshold, min_ways=min_ways
    )
    result = _kernel_lookahead(curves, total_ways, threshold, min_ways)
    assert _exact(result) == _exact(expected)


@requires_kernel
@pytest.mark.parametrize("args", [
    ([], 8, 0.0, 1),
    ([_curve(1), _curve(1)], 1, 0.0, 1),
    ([_curve(1, 1)], 2, -0.1, 1),
    ([_curve(1, 1), _curve(1, 1)], 4, 0.0, 3),
], ids=["no-cores", "too-few-ways", "negative-threshold", "floor-too-high"])
def test_the_kernel_lookahead_refuses_what_the_python_one_refuses(args):
    with pytest.raises(ValueError) as python:
        lookahead_partition(*args)
    with pytest.raises(ValueError) as kernel:
        _kernel_lookahead(*args)
    assert str(kernel.value) == str(python.value)


# ----------------------------------------------------------------------
# The exhaustive optimum
# ----------------------------------------------------------------------
def optimal_allocation(curves, ways, min_ways):
    """An allocation of exactly ``ways`` ways, at least ``min_ways`` and
    at most ``len(curve) - 1`` per core, with the fewest total
    estimated misses; None when no allocation fits.

    A DP over the cores, O(cores x ways^2): ``best[used]`` holds the
    fewest misses of the cores so far between them holding ``used``
    ways, with the allocation that reaches it.
    """
    best = {0: (0, [])}
    for curve in curves:
        reached = {}
        for used, (misses, allocation) in best.items():
            for ways_here in range(min_ways, min(len(curve), ways - used + 1)):
                total = misses + curve[ways_here]
                key = used + ways_here
                if key not in reached or total < reached[key][0]:
                    reached[key] = (total, allocation + [ways_here])
        best = reached
    return best[ways][1] if ways in best else None


def _misses(curves, allocations):
    return sum(curve[ways] for curve, ways in zip(curves, allocations))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_lookahead_inputs())
def test_the_optimum_is_the_brute_force_minimum(inputs):
    curves, total_ways, _, min_ways = inputs
    fits = [
        allocation
        for allocation in itertools.product(*(range(len(c)) for c in curves))
        if sum(allocation) == total_ways and min(allocation) >= min_ways
    ]
    optimum = optimal_allocation(curves, total_ways, min_ways)
    if not fits:
        assert optimum is None
        return
    assert sum(optimum) == total_ways and min(optimum) >= min_ways
    assert _misses(curves, optimum) == min(_misses(curves, a) for a in fits)


@st.composite
def _diminishing_inputs(draw):
    """Full-length curves whose per-way miss reductions never grow
    (plateaus included), so each extra way is worth at most the last."""
    total_ways = draw(st.sampled_from([2, 4, 8, 16]))
    n_cores = draw(st.integers(1, min(4, total_ways)))
    min_ways = draw(st.integers(0, total_ways // n_cores))
    curves = []
    for _ in range(n_cores):
        deltas = sorted(draw(st.lists(st.integers(0, 1000), min_size=total_ways,
                                      max_size=total_ways)), reverse=True)
        curves.append(_curve(*deltas, base=draw(st.integers(16_000, 20_000))))
    return curves, total_ways, min_ways


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_diminishing_inputs())
def test_the_lookahead_at_t0_is_optimal_on_diminishing_returns(inputs):
    curves, total_ways, min_ways = inputs
    optimum = optimal_allocation(curves, total_ways, min_ways)
    for lookahead in _lookaheads():
        result = lookahead(curves, total_ways, 0.0, min_ways)
        assert result.unallocated == 0
        assert _misses(curves, result.allocations) == _misses(curves, optimum)
