"""Unit tests for system configurations (Table 2)."""

import dataclasses

import pytest

from repro.sim.config import (
    SystemConfig,
    paper_four_core,
    paper_two_core,
    scaled_four_core,
    scaled_two_core,
)


class TestPaperConfigs:
    def test_two_core_matches_table2(self):
        config = paper_two_core()
        assert config.n_cores == 2
        assert config.l2.size_bytes == 2 * 1024 * 1024
        assert config.l2.ways == 8
        assert config.l2_latency == 15
        assert config.l1.size_bytes == 32 * 1024
        assert config.l1.ways == 4
        assert config.mem_latency == 400
        assert config.mem_banks == 8
        assert config.epoch_cycles == 5_000_000

    def test_four_core_matches_table2(self):
        config = paper_four_core()
        assert config.n_cores == 4
        assert config.l2.size_bytes == 4 * 1024 * 1024
        assert config.l2.ways == 16
        assert config.l2_latency == 20


class TestScaledConfigs:
    def test_scaled_preserves_associativity(self):
        assert scaled_two_core().l2.ways == paper_two_core().l2.ways
        assert scaled_four_core().l2.ways == paper_four_core().l2.ways

    def test_scaled_is_hashable_cache_key(self):
        assert hash(scaled_two_core()) == hash(scaled_two_core())
        assert scaled_two_core() == scaled_two_core()

    def test_refs_parameter(self):
        assert scaled_two_core(refs_per_core=5_000).refs_per_core == 5_000


class TestDerivedConfigs:
    def test_with_threshold(self):
        config = scaled_two_core().with_threshold(0.2)
        assert config.threshold == 0.2
        assert config.l2 == scaled_two_core().l2

    def test_alone_variant(self):
        alone = scaled_two_core().alone()
        assert alone.n_cores == 1
        assert alone.l2 == scaled_two_core().l2

    def test_describe_rows(self):
        rows = dict(paper_two_core().describe())
        assert "Shared L2" in rows
        assert "2MB" in rows["Shared L2"]


#: the fields that must not be negative; zero is a valid setting of each
NON_NEGATIVE = ("l1_latency", "l2_latency", "mem_latency", "mem_bank_busy", "threshold")


class TestValidation:
    @pytest.mark.parametrize("value", [0, -5])
    def test_epoch_cycles_must_be_positive(self, value):
        with pytest.raises(ValueError, match="epoch_cycles"):
            dataclasses.replace(scaled_two_core(), epoch_cycles=value)

    @pytest.mark.parametrize("value", [0, -5])
    def test_flush_bucket_cycles_must_be_positive(self, value):
        with pytest.raises(ValueError, match="flush_bucket_cycles"):
            dataclasses.replace(scaled_two_core(), flush_bucket_cycles=value)

    @pytest.mark.parametrize("value", [1.0, 1.5, -0.2])
    def test_umon_decay_must_be_below_one_and_not_negative(self, value):
        with pytest.raises(ValueError, match="umon_decay"):
            dataclasses.replace(scaled_two_core(), umon_decay=value)

    @pytest.mark.parametrize("field", ["epoch_cycles", "flush_bucket_cycles"])
    def test_one_cycle_is_accepted(self, field):
        config = dataclasses.replace(scaled_two_core(), **{field: 1})
        assert getattr(config, field) == 1

    @pytest.mark.parametrize("value", [0, 3, 6])
    def test_issue_width_must_be_a_positive_power_of_two(self, value):
        with pytest.raises(ValueError, match="issue_width"):
            dataclasses.replace(scaled_two_core(), issue_width=value)

    @pytest.mark.parametrize("value", [1, 2, 8])
    def test_power_of_two_issue_widths_are_accepted(self, value):
        assert dataclasses.replace(scaled_two_core(), issue_width=value).issue_width == value

    @pytest.mark.parametrize("field, value", [
        ("l1_latency", -1), ("l2_latency", -3), ("mem_latency", -1),
        ("mem_bank_busy", -1), ("threshold", -0.5),
    ])
    def test_must_not_be_negative(self, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(scaled_two_core(), **{field: value})

    @pytest.mark.parametrize("value", [1.0000001, 1.5, 2, float("nan")])
    def test_threshold_must_not_exceed_one(self, value):
        # T >= 1 already allocates nothing beyond the per-core minimum
        with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\]"):
            dataclasses.replace(scaled_two_core(), threshold=value)

    @pytest.mark.parametrize("value", [1, 1.0, True])
    def test_threshold_of_one_is_accepted(self, value):
        assert dataclasses.replace(scaled_two_core(), threshold=value).threshold == 1

    @pytest.mark.parametrize("field", NON_NEGATIVE)
    @pytest.mark.parametrize("value", [0, -0.0, False])
    def test_zero_is_accepted(self, field, value):
        config = dataclasses.replace(scaled_two_core(), **{field: value})
        assert getattr(config, field) == 0
