"""Unit and property tests for the utility monitor and set sampler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor.sampling import SetSampler
from repro.monitor.umon import UtilityMonitor


class TestSetSampler:
    def test_every_fourth_set(self):
        sampler = SetSampler(64, 4)
        assert sampler.sampled_count == 16
        assert sampler.is_sampled(0)
        assert not sampler.is_sampled(1)
        assert sampler.is_sampled(4)
        assert sampler.sampled_sets()[:3] == [0, 4, 8]

    def test_offset(self):
        sampler = SetSampler(64, 4, offset=2)
        assert not sampler.is_sampled(0)
        assert sampler.is_sampled(2)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            SetSampler(64, 3)

    def test_rejects_bad_offset(self):
        with pytest.raises(ValueError):
            SetSampler(64, 4, offset=4)

    def test_scale_factor(self):
        assert SetSampler(64, 8).scale_factor == 8


class TestMissCurve:
    def test_empty_monitor_gives_zero_curve(self):
        monitor = UtilityMonitor(4, SetSampler(16, 1))
        assert monitor.miss_curve() == [0, 0, 0, 0, 0]

    def test_curve_shape_for_small_working_set(self):
        monitor = UtilityMonitor(4, SetSampler(16, 1))
        # Two tags alternating in one set: hits land at position 1.
        for _ in range(10):
            monitor.atd.record(0, 1)
            monitor.atd.record(0, 2)
        curve = monitor.miss_curve()
        assert curve[0] == 20  # no cache, everything misses
        assert curve[1] == 20 - 0  # one way: alternating tags never hit
        assert curve[2] == 2  # two ways: all but compulsory hit
        assert curve[2] == curve[3] == curve[4]

    def test_sampling_scales_estimates(self):
        monitor = UtilityMonitor(4, SetSampler(16, 4))
        monitor.atd.record(0, 1)
        monitor.atd.record(0, 1)
        curve = monitor.miss_curve()
        assert curve[0] == 8  # 2 accesses x scale 4

    def test_end_epoch_decays(self):
        monitor = UtilityMonitor(4, SetSampler(16, 1), decay=0.5)
        for _ in range(8):
            monitor.atd.record(0, 1)
        monitor.end_epoch()
        assert monitor.atd.accesses == 4


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 20)), min_size=1, max_size=400))
def test_miss_curve_is_monotone_non_increasing(accesses):
    monitor = UtilityMonitor(8, SetSampler(4, 1))
    for set_index, tag in accesses:
        monitor.atd.record(set_index, tag)
    curve = monitor.miss_curve()
    assert len(curve) == 9
    for a, b in zip(curve, curve[1:]):
        assert a >= b
    assert curve[0] == len(accesses)


# ----------------------------------------------------------------------
# The kernel's read-out and ageing against miss_curve() and end_epoch()
# ----------------------------------------------------------------------
def _kernel_or_skip():
    from repro.engine import COMPILED, available_engines

    if COMPILED not in available_engines():
        pytest.skip("no C toolchain")
    from repro.engine.build import load_kernel

    return load_kernel()


def _monitors(counters, ways, interval, decay):
    """One monitor per ``(hits, misses, accesses)`` triple."""
    monitors = []
    for hits, misses, accesses in counters:
        monitor = UtilityMonitor(ways, SetSampler(64, interval), decay=decay)
        monitor.atd.position_hits = hits
        monitor.atd.misses = misses
        monitor.atd.accesses = accesses
        monitors.append(monitor)
    return monitors


def _counters(monitor):
    return monitor.atd.position_hits, monitor.atd.misses, monitor.atd.accesses


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    data=st.data(),
    ways=st.sampled_from([1, 4, 8, 16]),
    n_cores=st.integers(1, 4),
    interval=st.sampled_from([1, 8, 32]),
    decay=st.sampled_from([0.0, 0.5, 0.3]),
)
def test_kernel_readout_matches_miss_curve_then_end_epoch(
    data, ways, n_cores, interval, decay
):
    from repro.engine.compiled import KernelEpoch

    lib = _kernel_or_skip()
    value = st.integers(0, 2**40) | st.integers(0, 9)
    counters = [
        (data.draw(st.lists(value, min_size=ways, max_size=ways)),
         data.draw(value), data.draw(value))
        for _ in range(n_cores)
    ]
    reference = _monitors(counters, ways, interval, decay)
    monitors = _monitors(counters, ways, interval, decay)
    kernel = KernelEpoch(lib, monitors)
    for _ in range(3):  # read, age, and again from the aged counters
        assert kernel.miss_curves() == [m.miss_curve() for m in reference]
        kernel.age()
        for monitor in reference:
            monitor.end_epoch()
        assert [_counters(m) for m in monitors] == [
            _counters(m) for m in reference
        ]
