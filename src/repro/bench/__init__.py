"""Verification tooling for the simulation engine.

* :mod:`repro.bench.golden` — the golden-equivalence matrix: a fixed
  set of (scheme x cores x geometry) simulations whose bit-exact
  :class:`~repro.sim.stats.RunResult` serialisations are committed as
  fixtures, so any engine change that alters a single counter is
  caught by the test suite;
* :mod:`repro.bench.differential` — the scenario-corpus invariant
  suites behind ``repro scenario --suite``;
* :mod:`repro.bench.api_surface` — the committed public-API snapshot;
* :mod:`repro.bench.sweep_throughput` — the many-small-task threshold
  sweep that perfbench's ``threshold-grid`` workload times.

Performance is measured end to end by ``perfbench/`` (cold-store
figure sweeps, interleaved A/B against another tree; see
``docs/performance.md``), not here.
"""
