"""The public API surface stays importable, complete and compatible.

Two layers of guarantees:

* every exported name resolves and the headline symbols behave;
* the committed ``tests/api_surface.json`` snapshot pins the whole
  surface against accidental drift (regenerate deliberately via
  ``python -m repro.bench.api_surface``).
"""

import json
from pathlib import Path

import repro
from repro.bench.api_surface import compute_surface, diff_surface

#: anchored to this file so the test passes from any working directory
SURFACE_PATH = Path(__file__).parent / "api_surface.json"


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_headline_symbols(self):
        assert callable(repro.lookahead_partition)
        assert callable(repro.plan_transfers)
        assert callable(repro.weighted_speedup)
        assert callable(repro.register_policy)
        assert repro.POLICY_NAMES["cooperative"] == "Cooperative Partitioning"
        assert len(repro.TWO_CORE_GROUPS) == 14
        assert len(repro.FOUR_CORE_GROUPS) == 14
        assert len(repro.BENCHMARK_PROFILES) == 19

    def test_configs_construct(self):
        for factory in (
            repro.paper_two_core,
            repro.paper_four_core,
            repro.scaled_two_core,
            repro.scaled_four_core,
        ):
            config = factory()
            assert config.l2.ways in (8, 16)

    def test_table1_overheads_exposed(self):
        bits = repro.OverheadBits.for_system(2, repro.paper_two_core().l2)
        assert bits.total > 0

    def test_experiment_is_the_front_door(self):
        experiment = repro.Experiment.two_core("G2-8").with_policy(
            repro.PolicySpec("cooperative", threshold=0.1)
        )
        assert experiment.kind == "group"
        assert experiment.system.threshold == 0.1


class TestApiSurfaceSnapshot:
    """`tests/api_surface.json` is the committed public-API contract."""

    def test_snapshot_exists(self):
        assert Path(SURFACE_PATH).exists(), (
            "missing tests/api_surface.json; generate it with "
            "PYTHONPATH=src python -m repro.bench.api_surface"
        )

    def test_surface_matches_snapshot(self):
        committed = json.loads(Path(SURFACE_PATH).read_text())
        drift = diff_surface(committed, compute_surface())
        assert not drift, (
            "public API surface drifted; if intentional, regenerate via "
            "PYTHONPATH=src python -m repro.bench.api_surface\n  "
            + "\n  ".join(drift)
        )
