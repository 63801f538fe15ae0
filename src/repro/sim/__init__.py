"""Trace-driven CMP simulation engine.

``config`` holds the Table 2 system descriptions (paper-scale and the
scaled-down variants the benchmark harness uses), ``cpu`` the per-core
execution state, ``simulator`` the multi-core interleaved loop with
epoch-based partitioning, ``stats`` the result records, and ``runner``
the experiment driver (alone-run caching, the one run path,
normalisation) that the sweep executor, the benchmarks and the
examples build on.
"""

from repro.sim.config import SystemConfig
from repro.sim.runner import AloneResult, ExperimentRunner
from repro.sim.simulator import CMPSimulator
from repro.sim.stats import CoreResult, RunResult

__all__ = [
    "AloneResult",
    "CMPSimulator",
    "CoreResult",
    "ExperimentRunner",
    "RunResult",
    "SystemConfig",
]
