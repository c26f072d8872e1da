"""Tests for repro.config (Table II parameters)."""

import pytest

from repro import ConfigError, GPUConfig
from repro.config import CacheConfig, QueueConfig


class TestCacheConfig:
    def test_derived_geometry(self):
        cache = CacheConfig("test", 4096, 64, 2)
        assert cache.num_lines == 64
        assert cache.num_sets == 32

    def test_rejects_non_multiple_size(self):
        with pytest.raises(ConfigError):
            CacheConfig("bad", 100, 64)

    def test_rejects_bad_associativity(self):
        with pytest.raises(ConfigError):
            CacheConfig("bad", 4096, 64, associativity=3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            CacheConfig("bad", 0, 64)


class TestQueueConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            QueueConfig("bad", 0, 8)


class TestGPUConfig:
    def test_paper_matches_table2(self):
        config = GPUConfig.paper()
        assert config.frequency_mhz == 400
        assert config.screen_width == 1196
        assert config.screen_height == 768
        assert config.tile_width == config.tile_height == 16
        assert config.fragment_processors == 4
        assert config.vertex_processors == 1
        assert config.frames == 60
        assert config.cache("l2").size_bytes == 256 * 1024
        assert config.cache("tile").associativity == 8
        assert config.queue("fragment").entries == 64

    def test_paper_tile_grid_includes_partial_tiles(self):
        config = GPUConfig.paper()
        # 1196/16 = 74.75 and 768/16 = 48: partial right-edge column.
        assert config.tiles_x == 75
        assert config.tiles_y == 48
        assert config.num_tiles == 75 * 48

    def test_default_divides_evenly(self):
        config = GPUConfig.default()
        assert config.screen_width % config.tile_width == 0
        assert config.screen_height % config.tile_height == 0
        assert config.num_tiles == 120

    def test_tiny(self):
        config = GPUConfig.tiny()
        assert config.num_tiles == 12
        assert config.tile_width * config.tile_height == 256

    def test_scaled_override(self):
        config = GPUConfig.default().scaled(frames=3)
        assert config.frames == 3
        assert config.screen_width == 192

    def test_unknown_cache_raises(self):
        with pytest.raises(ConfigError):
            GPUConfig.default().cache("nope")

    def test_unknown_queue_raises(self):
        with pytest.raises(ConfigError):
            GPUConfig.default().queue("nope")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"screen_width": 0},
            {"tile_width": -1},
            {"frequency_mhz": 0},
            {"frames": 0},
            {"fragment_processors": 0},
            {"dram_latency_min_cycles": 200},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ConfigError):
            GPUConfig.default().scaled(**overrides)

    def test_describe_keys(self):
        described = GPUConfig.paper().describe()
        assert described["screen"] == "1196x768"
        assert described["tile"] == "16x16"
        assert "dram_latency" in described

    def test_immutable(self):
        with pytest.raises(Exception):
            GPUConfig.default().frames = 99
