"""Tests for the Raster Pipeline: Early-Z, shading, blending, skipping."""

import numpy as np
import pytest

from repro import (
    BlendMode,
    DrawCommand,
    Frame,
    GPU,
    GPUConfig,
    PipelineFeatures,
    RenderState,
    ShaderProfile,
)
from repro.geom import quad, screen_quad
from repro.math3d import Vec3, Vec4
from repro.techniques import BASELINE, RE, ORACLE

from tests.conftest import make_depth_frame, make_sprite_frame


class TestEarlyZ:
    def test_front_to_back_kills_back(self, tiny_config, ortho_screen):
        frame = make_depth_frame(
            tiny_config, ortho_screen, 0,
            [(0.5, Vec4(0, 1, 0, 1)), (-0.5, Vec4(1, 0, 0, 1))],  # near first
        )
        gpu = GPU(tiny_config, BASELINE)
        result = gpu.render_frame(frame)
        pixels = tiny_config.num_pixels
        assert result.stats.fragments_shaded == pixels
        assert result.stats.early_z_kills == pixels

    def test_back_to_front_shades_everything(self, tiny_config, ortho_screen):
        frame = make_depth_frame(
            tiny_config, ortho_screen, 0,
            [(-0.5, Vec4(1, 0, 0, 1)), (0.5, Vec4(0, 1, 0, 1))],  # far first
        )
        gpu = GPU(tiny_config, BASELINE)
        result = gpu.render_frame(frame)
        assert result.stats.fragments_shaded == 2 * tiny_config.num_pixels
        assert result.stats.early_z_kills == 0
        assert result.stats.overdrawn_fragments == tiny_config.num_pixels

    def test_early_z_disabled_shades_everything(self, tiny_config,
                                                ortho_screen):
        frame = make_depth_frame(
            tiny_config, ortho_screen, 0,
            [(0.5, Vec4(0, 1, 0, 1)), (-0.5, Vec4(1, 0, 0, 1))],
        )
        gpu = GPU(tiny_config, PipelineFeatures(early_z=False))
        result = gpu.render_frame(frame)
        assert result.stats.fragments_shaded == 2 * tiny_config.num_pixels

    def test_early_z_disabled_image_still_correct(self, tiny_config,
                                                  ortho_screen):
        frame = make_depth_frame(
            tiny_config, ortho_screen, 0,
            [(0.5, Vec4(0, 1, 0, 1)), (-0.5, Vec4(1, 0, 0, 1))],
        )
        with_z = GPU(tiny_config, BASELINE).render_frame(frame)
        without_z = GPU(
            tiny_config, PipelineFeatures(early_z=False)
        ).render_frame(frame)
        assert np.array_equal(with_z.image, without_z.image)
        # Near quad (green) wins in both.
        assert np.allclose(with_z.image[10, 10], [0, 1, 0, 1])


class TestSpritesAndBlending:
    def test_painters_order(self, tiny_config, ortho_screen):
        frame = make_sprite_frame(
            tiny_config, ortho_screen, 0,
            [
                (0, 0, 64, 48, Vec4(0, 0, 1, 1)),
                (8, 8, 16, 16, Vec4(1, 0, 0, 1)),   # drawn later, on top
            ],
        )
        result = GPU(tiny_config, BASELINE).render_frame(frame)
        assert np.allclose(result.image[12, 12], [1, 0, 0, 1])
        assert np.allclose(result.image[40, 40], [0, 0, 1, 1])

    def test_alpha_blending_result(self, tiny_config, ortho_screen):
        background = DrawCommand.from_mesh(
            screen_quad(0, 0, 64, 48, color=Vec4(0, 0, 0, 1)),
            state=RenderState.sprite_2d(),
        )
        translucent = DrawCommand.from_mesh(
            screen_quad(0, 0, 64, 48, color=Vec4(1, 1, 1, 0.5)),
            state=RenderState.sprite_2d(blend=BlendMode.ALPHA),
        )
        frame = Frame([background, translucent], projection=ortho_screen)
        result = GPU(tiny_config, BASELINE).render_frame(frame)
        assert np.allclose(result.image[10, 10, :3], [0.5, 0.5, 0.5])

    def test_sprites_skip_early_z(self, tiny_config, ortho_screen):
        frame = make_sprite_frame(
            tiny_config, ortho_screen, 0,
            [(0, 0, 64, 48, Vec4(0, 0, 1, 1))],
        )
        result = GPU(tiny_config, BASELINE).render_frame(frame)
        assert result.stats.early_z_tests == 0


class TestTextureTraffic:
    def test_texture_samples_counted(self, tiny_config, ortho_screen):
        shader = ShaderProfile(texture_fetches=2, texture_id=1)
        frame = Frame(
            [DrawCommand.from_mesh(
                screen_quad(0, 0, 16, 16),
                state=RenderState.sprite_2d(shader=shader))],
            projection=ortho_screen,
        )
        gpu = GPU(tiny_config, BASELINE)
        result = gpu.render_frame(frame)
        assert result.stats.texture_samples == 2 * result.stats.fragments_shaded
        texture_accesses = result.raster.units["texture1"]["accesses"]
        assert texture_accesses > 0


class TestTileSkipping:
    def test_skipped_tiles_reuse_previous_colors(self, tiny_config,
                                                 static_2d_stream):
        gpu = GPU(tiny_config, RE)
        results = [gpu.render_frame(f) for f in static_2d_stream]
        assert results[1].stats.tiles_skipped == tiny_config.num_tiles
        assert np.array_equal(results[1].image, results[0].image)

    def test_skipped_tiles_flush_nothing(self, tiny_config, static_2d_stream):
        gpu = GPU(tiny_config, RE)
        results = [gpu.render_frame(f) for f in static_2d_stream]
        assert results[1].stats.color_flush_bytes == 0
        assert results[1].stats.fragments_shaded == 0


class TestOracleZ:
    def test_oracle_shades_only_visible(self, tiny_config,
                                        back_to_front_stream):
        gpu = GPU(tiny_config, ORACLE)
        frames = list(back_to_front_stream)
        result = gpu.render_frame(frames[0])
        assert result.stats.fragments_shaded == tiny_config.num_pixels

    def test_oracle_image_matches_baseline(self, tiny_config,
                                           back_to_front_stream):
        frames = list(back_to_front_stream)
        base = GPU(tiny_config, BASELINE).render_frame(frames[0])
        oracle = GPU(tiny_config, ORACLE).render_frame(frames[0])
        assert np.array_equal(base.image, oracle.image)


class TestPartialTiles:
    def test_non_divisible_resolution(self):
        config = GPUConfig(screen_width=40, screen_height=24, frames=2)
        assert config.tiles_x == 3  # 40/16 -> partial last column
        from repro.math3d import orthographic
        proj = orthographic(0, 40, 24, 0, -1, 1)
        frame = Frame(
            [DrawCommand.from_mesh(screen_quad(0, 0, 40, 24),
                                   state=RenderState.sprite_2d())],
            projection=proj,
        )
        result = GPU(config, BASELINE).render_frame(frame)
        assert result.image.shape == (24, 40, 4)
        # Every on-screen pixel covered exactly once.
        assert result.stats.fragments_shaded == 40 * 24


class TestRangeMemory:
    def test_raster_phase_peak_is_bounded(self, monkeypatch):
        """Jobs cut at ``RANGE_ENTRIES`` keep the raster phase of a
        scaled 192x160 EVR frame under 48 MiB traced: about 30 MiB, most
        of it the memory-system drain, where one job for the whole frame
        peaks near 67 MiB."""
        import tracemalloc

        from repro.pipeline import raster
        from repro.scenes import scaled_world_stream

        config = GPUConfig(screen_width=192, screen_height=160, frames=1)
        (frame,) = scaled_world_stream(config, num_boxes=96)
        render = raster.RasterPipeline.render_frame
        peaks = []

        def traced(self, *args):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                render(self, *args)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(raster.RasterPipeline, "render_frame", traced)
        result = GPU(config, "evr", backend="numpy").render_frame(frame)
        assert result.stats.tiles_rendered == config.num_tiles
        assert peaks and peaks[0] < 48 * 2 ** 20
