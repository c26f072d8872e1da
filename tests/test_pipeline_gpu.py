"""Tests for the GPU top level: modes, feature wiring, result plumbing."""

import numpy as np
import pytest

from repro import (
    ConfigError,
    GPU,
    GPUConfig,
    PipelineError,
    PipelineFeatures,
)
from repro.techniques import BASELINE, RE, EVR, EVR_REORDER_ONLY, ORACLE


class TestFeatures:
    def test_mode_presets(self):
        assert BASELINE.feature_set == PipelineFeatures()
        re = RE.feature_set
        assert re.rendering_elimination and not re.evr_hardware
        evr = EVR.feature_set
        assert evr.rendering_elimination
        assert evr.evr_hardware and evr.evr_reorder and evr.evr_signature_filter
        reorder_only = EVR_REORDER_ONLY.feature_set
        assert reorder_only.evr_reorder
        assert not reorder_only.rendering_elimination
        oracle = ORACLE.feature_set
        assert oracle.oracle_z and oracle.oracle_redundancy

    def test_dependency_validation(self):
        with pytest.raises(ConfigError):
            PipelineFeatures(evr_reorder=True)
        with pytest.raises(ConfigError):
            PipelineFeatures(evr_signature_filter=True, evr_hardware=True)
        with pytest.raises(ConfigError):
            PipelineFeatures(evr_signature_filter=True,
                             rendering_elimination=True)


class TestGPUWiring:
    def test_baseline_has_no_optional_structures(self, tiny_config):
        gpu = GPU(tiny_config, BASELINE)
        assert gpu.re is None
        assert gpu.predictor is None
        assert gpu.lgt is None
        assert gpu.comparator is None

    def test_evr_has_all_structures(self, tiny_config):
        gpu = GPU(tiny_config, EVR)
        assert gpu.re is not None
        assert gpu.re.filter_occluded
        assert gpu.predictor is not None
        assert gpu.lgt is not None

    def test_re_mode_has_no_evr_structures(self, tiny_config):
        gpu = GPU(tiny_config, RE)
        assert gpu.re is not None
        assert not gpu.re.filter_occluded
        assert gpu.predictor is None

    def test_accepts_features_directly(self, tiny_config):
        gpu = GPU(tiny_config, PipelineFeatures(rendering_elimination=True))
        assert gpu.re is not None


class TestRunResult:
    def test_render_stream_collects_all_frames(self, tiny_config,
                                               static_2d_stream):
        result = GPU(tiny_config, BASELINE).render_stream(
            static_2d_stream
        )
        assert len(result.frames) == tiny_config.frames
        assert [fr.index for fr in result.frames] == list(
            range(tiny_config.frames)
        )

    def test_image_shape(self, tiny_config, static_2d_stream):
        result = GPU(tiny_config, BASELINE).render_stream(
            static_2d_stream
        )
        assert result.frames[0].image.shape == (
            tiny_config.screen_height, tiny_config.screen_width, 4
        )

    def test_warmup_excluded_from_totals(self, tiny_config,
                                         static_2d_stream):
        result = GPU(tiny_config, RE).render_stream(
            static_2d_stream
        )
        steady = result.total_stats(warmup=2)
        # Static scene: every steady frame skips all tiles.
        assert steady.tiles_skipped == steady.tiles_total
        all_frames = result.total_stats(warmup=0)
        assert all_frames.tiles_skipped < all_frames.tiles_total

    def test_warmup_larger_than_run_uses_all_frames(self, tiny_config,
                                                    static_2d_stream):
        result = GPU(tiny_config, BASELINE).render_stream(
            static_2d_stream
        )
        assert result.total_stats(warmup=99).tiles_total > 0

    def test_cycles_positive_and_split(self, tiny_config, static_2d_stream):
        result = GPU(tiny_config, BASELINE).render_stream(
            static_2d_stream
        )
        cycles = result.total_cycles()
        assert cycles.geometry > 0
        assert cycles.raster > 0
        assert cycles.total == cycles.geometry + cycles.raster

    def test_energy_positive(self, tiny_config, static_2d_stream):
        result = GPU(tiny_config, BASELINE).render_stream(
            static_2d_stream
        )
        assert result.total_energy().total > 0

    def test_merged_snapshot_sums(self, tiny_config, static_2d_stream):
        result = GPU(tiny_config, BASELINE).render_stream(
            static_2d_stream
        )
        frame = result.frames[0]
        merged = frame.merged_snapshot()
        assert merged["dram"]["write_bytes"] == (
            frame.geometry.units["dram"]["write_bytes"]
            + frame.raster.units["dram"]["write_bytes"]
        )

    def test_redundant_tile_rate_baseline_zero(self, tiny_config,
                                               static_2d_stream):
        result = GPU(tiny_config, BASELINE).render_stream(
            static_2d_stream
        )
        assert result.redundant_tile_rate() == 0.0

    def test_redundant_tile_rate_oracle_uses_comparator(self, tiny_config,
                                                        static_2d_stream):
        result = GPU(tiny_config, ORACLE).render_stream(
            static_2d_stream
        )
        assert result.redundant_tile_rate() == 1.0


class TestFrameAccounting:
    def test_geometry_raster_snapshots_disjoint(self, tiny_config,
                                                static_2d_stream):
        result = GPU(tiny_config, BASELINE).render_stream(
            static_2d_stream
        )
        frame = result.frames[0]
        # Vertex traffic only in geometry phase; texture only in raster.
        assert frame.geometry.units["vertex"]["accesses"] > 0
        assert frame.raster.units["vertex"]["accesses"] == 0
        assert frame.geometry.units["texture0"]["accesses"] == 0
