"""Per-core utility monitor: ATD plus miss-curve extraction.

``UtilityMonitor`` is what the partitioning policies consume: at each
epoch boundary they read a miss curve — estimated misses as a function
of allocated ways — computed from the ATD's stack-position hit
counters, scaled back up by the sampling factor.
"""

from __future__ import annotations

from itertools import accumulate

from repro.monitor.atd import AuxiliaryTagDirectory
from repro.monitor.sampling import SetSampler


class UtilityMonitor:
    """Tracks one core's standalone cache utility.

    Parameters
    ----------
    ways:
        LLC associativity (the maximum allocation to model).
    sampler:
        Which sets are monitored.  The monitor's estimates are scaled
        by the sampling interval so they approximate whole-cache
        counts.
    decay:
        Ageing factor applied to counters at each epoch boundary
        (0 = hard reset each epoch, 0.5 = exponential moving average).
    """

    def __init__(self, ways: int, sampler: SetSampler, decay: float = 0.5) -> None:
        self.ways = ways
        self.sampler = sampler
        self.decay_factor = decay
        self.atd = AuxiliaryTagDirectory(ways, sampler.sampled_sets())

    # ------------------------------------------------------------------
    # Epoch interface
    # ------------------------------------------------------------------
    def miss_curve(self) -> list[int]:
        """Estimated misses for allocations of 0..ways ways.

        ``curve[w]`` is the number of misses this core would suffer if
        given ``w`` ways.  ``curve[0]`` counts every access as a miss;
        the curve is non-increasing by the stack property.
        """
        scale = self.sampler.scale_factor
        total = self.atd.accesses * scale
        return [
            total - hits * scale for hits in accumulate(self.atd.hits, initial=0)
        ]

    def end_epoch(self) -> None:
        """Age the counters for the next epoch."""
        self.atd.decay(self.decay_factor)
