"""Tests for the system configuration (paper Table 1)."""

import pytest

from repro.config import (
    BackoffConfig,
    LatencyRange,
    SystemConfig,
    config_16,
    config_64,
    config_for_cores,
)


class TestLatencyRange:
    def test_interpolate_endpoints(self):
        rng = LatencyRange(28, 68)
        assert rng.interpolate(0, 6) == 28
        assert rng.interpolate(6, 6) == 68

    def test_interpolate_midpoint(self):
        rng = LatencyRange(0, 100)
        assert rng.interpolate(5, 10) == 50

    def test_interpolate_clamps_beyond_max(self):
        rng = LatencyRange(10, 20)
        assert rng.interpolate(99, 4) == 20

    def test_interpolate_zero_max_hops(self):
        rng = LatencyRange(10, 20)
        assert rng.interpolate(3, 0) == 10


class TestBackoffConfig:
    def test_counter_max_9_bits(self):
        assert BackoffConfig(9, 1, 16).counter_max == 511

    def test_counter_max_12_bits(self):
        assert BackoffConfig(12, 64, 64).counter_max == 4095

    def test_counter_max_is_a_valid_bit_mask(self):
        # The hardware wrap in repro.protocols.backoff uses `& counter_max`,
        # which is only correct for masks of the form 2^k - 1.
        for bits in (1, 5, 9, 12):
            mask = BackoffConfig(bits, 1, 16).counter_max
            assert mask & (mask + 1) == 0
            assert mask == 2**bits - 1

    def test_zero_counter_bits_rejected(self):
        with pytest.raises(ValueError, match="counter_bits"):
            BackoffConfig(0, 1, 16)

    def test_negative_counter_bits_rejected(self):
        with pytest.raises(ValueError, match="counter_bits"):
            BackoffConfig(-3, 1, 16)

    def test_non_integer_counter_bits_rejected(self):
        with pytest.raises(ValueError, match="counter_bits"):
            BackoffConfig(8.5, 1, 16)

    def test_zero_update_period_rejected(self):
        with pytest.raises(ValueError, match="update_period"):
            BackoffConfig(9, 1, 0)

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="default_increment"):
            BackoffConfig(9, -1, 16)


class TestTable1Presets:
    def test_16_core_parameters(self):
        config = config_16()
        assert config.num_cores == 16
        assert config.l2_banks == 16
        assert config.l2_hit_latency == LatencyRange(28, 68)
        assert config.remote_l1_latency == LatencyRange(37, 97)
        assert config.memory_latency == LatencyRange(197, 277)
        assert config.backoff == BackoffConfig(9, 1, 16)

    def test_64_core_parameters(self):
        config = config_64()
        assert config.num_cores == 64
        assert config.l2_banks == 64
        assert config.l2_hit_latency == LatencyRange(28, 140)
        assert config.remote_l1_latency == LatencyRange(37, 205)
        assert config.memory_latency == LatencyRange(197, 421)
        assert config.backoff == BackoffConfig(12, 64, 64)

    def test_common_parameters(self):
        for config in (config_16(), config_64()):
            assert config.line_bytes == 64
            assert config.word_bytes == 4
            assert config.l1_bytes == 32 * 1024
            assert config.l1_hit_latency == 1

    def test_derived_geometry_16(self):
        config = config_16()
        assert config.mesh_side == 4
        assert config.max_hops == 6
        assert config.words_per_line == 16
        assert config.l1_lines == 512
        assert config.l1_sets == 64

    def test_derived_geometry_64(self):
        config = config_64()
        assert config.mesh_side == 8
        assert config.max_hops == 14


class TestValidation:
    def test_non_square_core_count_rejected(self):
        with pytest.raises(ValueError, match="perfect square"):
            SystemConfig(num_cores=15)

    def test_line_must_be_word_multiple(self):
        with pytest.raises(ValueError, match="multiple"):
            SystemConfig(line_bytes=63)

    @pytest.mark.parametrize(
        "overrides,field",
        [
            # The mesh tables index banks as tiles: at most one per tile.
            (dict(l2_banks=17), "l2_banks"),
            (dict(l2_banks=64), "l2_banks"),
            (dict(l2_banks=0), "l2_banks"),
            (dict(l1_assoc=0), "l1_assoc"),
            (dict(word_bytes=0), "word_bytes"),
            (dict(line_bytes=0), "line_bytes"),
            (dict(line_bytes=-64), "line_bytes"),
            (dict(l1_bytes=0), "l1_bytes"),
        ],
    )
    def test_unrunnable_geometry_rejected(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            config_16(**overrides)

    def test_fewer_banks_than_tiles_accepted(self):
        assert config_16(l2_banks=1).l2_banks == 1
        assert config_16(l2_banks=16).l2_banks == 16

    def test_overrides(self):
        config = config_16(l1_bytes=16 * 1024)
        assert config.l1_bytes == 16 * 1024
        assert config.num_cores == 16


class TestConfigForCores:
    def test_known_sizes_delegate(self):
        assert config_for_cores(16) == config_16()
        assert config_for_cores(64) == config_64()

    def test_other_sizes_scale_backoff_period(self):
        config = config_for_cores(4)
        assert config.num_cores == 4
        assert config.backoff.update_period == 4

    def test_large_size_uses_64_core_latencies(self):
        config = config_for_cores(256)
        assert config.l2_hit_latency == config_64().l2_hit_latency
        assert config.backoff.update_period == 256

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            config_for_cores(10)
