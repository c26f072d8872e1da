"""Tests for the Geometry Pipeline: shading, assembly and binning."""

import numpy as np
import pytest

from repro import (
    DrawCommand,
    Frame,
    GPU,
    GPUConfig,
    PipelineFeatures,
    RenderState,
)
from repro.geom import box_mesh, quad, screen_quad
from repro.math3d import Mat4, Vec3, Vec4, look_at, orthographic, perspective
from repro.techniques import BASELINE, RE, EVR
from repro.timing import FrameStats

import math


def render_one(config, frame, mode=BASELINE):
    gpu = GPU(config, mode)
    return gpu, gpu.render_frame(frame)


class TestVertexProcessingCounters:
    def test_vertices_and_instructions(self, tiny_config, ortho_screen):
        frame = Frame(
            [DrawCommand.from_mesh(screen_quad(0, 0, 32, 32),
                                   state=RenderState.sprite_2d())],
            projection=ortho_screen,
        )
        _, result = render_one(tiny_config, frame)
        assert result.stats.vertices_fetched == 6
        assert result.stats.primitives_in == 2
        expected = 6 * RenderState.sprite_2d().shader.vertex_instructions
        assert result.stats.vertex_instructions == expected


class TestCulling:
    def test_offscreen_culled(self, tiny_config, ortho_screen):
        frame = Frame(
            [DrawCommand.from_mesh(screen_quad(-500, -500, 10, 10),
                                   state=RenderState.sprite_2d())],
            projection=ortho_screen,
        )
        _, result = render_one(tiny_config, frame)
        assert result.stats.primitives_culled == 2
        assert result.stats.primitives_binned == 0

    def test_backface_culling_on_boxes(self, tiny_config):
        view = look_at(Vec3(0, 0, 5), Vec3(0, 0, 0), Vec3(0, 1, 0))
        proj = perspective(math.radians(60), 4 / 3, 0.5, 50.0)
        frame = Frame(
            [DrawCommand.from_mesh(box_mesh(Vec3(0, 0, 0), Vec3(1, 1, 1)),
                                   state=RenderState.opaque_3d())],
            view=view, projection=proj,
        )
        _, result = render_one(tiny_config, frame)
        # A box has 12 triangles; at most half face the camera.
        assert result.stats.primitives_binned <= 6
        assert result.stats.primitives_binned >= 2

    def test_no_backface_culling_when_disabled(self, tiny_config):
        view = look_at(Vec3(0, 0, 5), Vec3(0, 0, 0), Vec3(0, 1, 0))
        proj = perspective(math.radians(60), 4 / 3, 0.5, 50.0)
        frame = Frame(
            [DrawCommand.from_mesh(
                box_mesh(Vec3(0, 0, 0), Vec3(1, 1, 1)),
                state=RenderState.opaque_3d(cull_backface=False))],
            view=view, projection=proj,
        )
        _, result = render_one(tiny_config, frame)
        assert result.stats.primitives_binned == 12

    def test_behind_camera_culled(self, tiny_config):
        view = look_at(Vec3(0, 0, 5), Vec3(0, 0, 0), Vec3(0, 1, 0))
        proj = perspective(math.radians(60), 4 / 3, 0.5, 50.0)
        frame = Frame(
            [DrawCommand.from_mesh(
                quad(Vec3(-1, -1, 20), Vec3(2, 0, 0), Vec3(0, 2, 0)),
                state=RenderState.opaque_3d(cull_backface=False))],
            view=view, projection=proj,
        )
        _, result = render_one(tiny_config, frame)
        assert result.stats.primitives_binned == 0


class TestBinning:
    def test_small_sprite_bins_to_one_tile(self, tiny_config, ortho_screen):
        frame = Frame(
            [DrawCommand.from_mesh(screen_quad(2, 2, 8, 8),
                                   state=RenderState.sprite_2d())],
            projection=ortho_screen,
        )
        _, result = render_one(tiny_config, frame)
        assert result.stats.primitive_tile_pairs == 2  # 2 triangles x 1 tile

    def test_fullscreen_bins_to_all_tiles(self, tiny_config, ortho_screen):
        frame = Frame(
            [DrawCommand.from_mesh(
                screen_quad(0, 0, tiny_config.screen_width,
                            tiny_config.screen_height),
                state=RenderState.sprite_2d())],
            projection=ortho_screen,
        )
        gpu, result = render_one(tiny_config, frame)
        # Each of the 2 triangles conservatively overlaps most tiles.
        assert result.stats.display_list_writes >= tiny_config.num_tiles
        assert len(gpu.parameter_buffer.lists.row) == \
            result.stats.display_list_writes

    def test_parameter_buffer_bytes_counted(self, tiny_config, ortho_screen):
        frame = Frame(
            [DrawCommand.from_mesh(screen_quad(2, 2, 8, 8),
                                   state=RenderState.sprite_2d())],
            projection=ortho_screen,
        )
        _, result = render_one(tiny_config, frame)
        assert result.stats.parameter_buffer_bytes == 2 * 144

    def test_layer_bytes_only_under_evr(self, tiny_config, ortho_screen):
        frame_builder = lambda: Frame(
            [DrawCommand.from_mesh(screen_quad(2, 2, 8, 8),
                                   state=RenderState.sprite_2d())],
            projection=ortho_screen,
        )
        _, base = render_one(tiny_config, frame_builder())
        _, evr = render_one(tiny_config, frame_builder(), EVR)
        assert base.stats.layer_id_bytes == 0
        assert evr.stats.layer_id_bytes == 2 * 2  # 2 pairs x 2 bytes
        assert evr.stats.lgt_accesses == 2
        assert evr.stats.fvp_lookups == 2


class TestSignatures:
    def _frame(self, config, projection, offset):
        return Frame(
            [DrawCommand.from_mesh(screen_quad(2 + offset, 2, 8, 8),
                                   state=RenderState.sprite_2d())],
            projection=projection,
        )

    def test_signature_changes_when_object_moves(self, tiny_config,
                                                 ortho_screen):
        gpu = GPU(tiny_config, RE)
        gpu.render_frame(self._frame(tiny_config, ortho_screen, 0))
        moved = self._frame(tiny_config, ortho_screen, 1)
        result = gpu.render_frame(moved)
        assert result.stats.tiles_skipped < tiny_config.num_tiles

    def test_signature_stable_for_static_object(self, tiny_config,
                                                ortho_screen):
        gpu = GPU(tiny_config, RE)
        gpu.render_frame(self._frame(tiny_config, ortho_screen, 0))
        result = gpu.render_frame(self._frame(tiny_config, ortho_screen, 0))
        assert result.stats.tiles_skipped == tiny_config.num_tiles

    def test_model_matrix_motion_changes_signature(self, tiny_config,
                                                   ortho_screen):
        """A static mesh moved via the model matrix must still break
        redundancy: signatures are over post-transform positions."""
        from repro.math3d import translate

        def frame_with_model(offset):
            return Frame(
                [DrawCommand.from_mesh(
                    screen_quad(2, 2, 8, 8),
                    model=translate(Vec3(offset, 0, 0)),
                    state=RenderState.sprite_2d())],
                projection=ortho_screen,
            )

        gpu = GPU(tiny_config, RE)
        gpu.render_frame(frame_with_model(0.0))
        result = gpu.render_frame(frame_with_model(3.0))
        assert result.stats.tiles_skipped < tiny_config.num_tiles
