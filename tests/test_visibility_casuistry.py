"""Table I's visibility casuistry, exercised end-to-end.

For a primitive P whose visibility transitions across frames, EVR-aided
Rendering Elimination must (a) never skip a tile whose colors changed, and
(b) actually skip the tiles baseline RE cannot when only hidden geometry
changes (scenario C — the case the optimization exists for).

Every scenario renders the same stream under BASELINE, RE and EVR and
asserts pixel-exact equality, which is the paper's correctness claim.
"""

import numpy as np
import pytest

from repro import (
    DrawCommand,
    Frame,
    FrameStream,
    GPU,
    GPUConfig,
    RenderState,
)
from repro.geom import quad
from repro.math3d import Vec3, Vec4, orthographic
from repro.techniques import BASELINE, RE, EVR

WIDTH, HEIGHT = 64, 48


@pytest.fixture
def config():
    return GPUConfig(screen_width=WIDTH, screen_height=HEIGHT, frames=5)


@pytest.fixture
def projection():
    return orthographic(0, WIDTH, HEIGHT, 0, -1.0, 1.0)


def woz_quad(x, y, w, h, world_z, color):
    """A depth-tested, depth-writing rectangle at depth ``world_z``
    (larger world-z is closer to the camera under this projection)."""
    mesh = quad(Vec3(x, y, world_z), Vec3(w, 0, 0), Vec3(0, h, 0), color)
    return DrawCommand.from_mesh(
        mesh, state=RenderState.opaque_3d(cull_backface=False)
    )


def render_all_modes(config, stream):
    outputs = {}
    for mode in (BASELINE, RE, EVR):
        gpu = GPU(config, mode)
        outputs[mode] = gpu.render_stream(stream)
    return outputs


def assert_images_identical(outputs):
    baseline_frames = outputs[BASELINE].frames
    for mode in (RE, EVR):
        for base_frame, frame in zip(baseline_frames, outputs[mode].frames):
            assert np.array_equal(base_frame.image, frame.image), (
                f"{mode} diverged at frame {frame.index}"
            )


class TestScenarioA:
    """Visible -> visible: EVR behaves exactly like RE."""

    def test_static_visible_scene_skips_everywhere(self, config, projection):
        def build(i):
            return Frame(
                [
                    woz_quad(0, 0, WIDTH, HEIGHT, -0.5, Vec4(0.2, 0.2, 0.2, 1)),
                    woz_quad(8, 8, 16, 16, 0.5, Vec4(1, 0, 0, 1)),  # P, near
                ],
                projection=projection, index=i,
            )

        stream = FrameStream(build, config.frames)
        outputs = render_all_modes(config, stream)
        assert_images_identical(outputs)
        re_skips = outputs[RE].total_stats().tiles_skipped
        evr_skips = outputs[EVR].total_stats().tiles_skipped
        steady = outputs[RE].total_stats().tiles_total
        assert re_skips == evr_skips == steady


class TestScenarioB:
    """Visible -> occluded: P stays in the signature for one frame (it
    was visible in frame i), then drops out; no errors either way."""

    def test_occluder_arrives(self, config, projection):
        def build(i):
            commands = [
                woz_quad(0, 0, WIDTH, HEIGHT, -0.5, Vec4(0.2, 0.2, 0.2, 1)),
                woz_quad(8, 8, 16, 16, 0.0, Vec4(1, 0, 0, 1)),  # P
            ]
            if i >= 2:  # occluder covers P from frame 2 on
                commands.append(
                    woz_quad(0, 0, WIDTH, HEIGHT, 0.5, Vec4(0, 0, 1, 1))
                )
            return Frame(commands, projection=projection, index=i)

        stream = FrameStream(build, config.frames)
        outputs = render_all_modes(config, stream)
        assert_images_identical(outputs)


class TestScenarioC:
    """Occluded -> occluded with changing attributes: the EVR win case.

    Baseline RE re-renders every frame (P's color keeps changing); EVR
    excludes P from the signature and skips, with identical images.
    """

    def _stream(self, config, projection):
        def build(i):
            return Frame(
                [
                    woz_quad(0, 0, WIDTH, HEIGHT, -0.5,
                             Vec4(0.2, 0.2, 0.2, 1)),
                    # P: far, fully hidden, color changes every frame.
                    woz_quad(8, 8, 16, 16, 0.0,
                             Vec4(1, 0.1 * i, 0, 1)),
                    # Static occluder covering everything.
                    woz_quad(0, 0, WIDTH, HEIGHT, 0.5, Vec4(0, 0, 1, 1)),
                ],
                projection=projection, index=i,
            )

        return FrameStream(build, config.frames)

    def test_images_identical(self, config, projection):
        outputs = render_all_modes(config, self._stream(config, projection))
        assert_images_identical(outputs)

    def test_evr_skips_what_re_cannot(self, config, projection):
        outputs = render_all_modes(config, self._stream(config, projection))
        re_stats = outputs[RE].total_stats()
        evr_stats = outputs[EVR].total_stats()
        # RE skips only the tiles P never touches; EVR skips everything.
        assert re_stats.tiles_skipped < re_stats.tiles_total
        assert evr_stats.tiles_skipped == evr_stats.tiles_total

    def test_signature_updates_saved(self, config, projection):
        outputs = render_all_modes(config, self._stream(config, projection))
        evr_stats = outputs[EVR].total_stats()
        assert evr_stats.signature_skips > 0


class TestScenarioD:
    """Occluded -> visible: the tile MUST re-render.  Table I's two
    sub-cases: (i) P moves closer than the old FVP; (ii) the occluder
    moves away."""

    def test_primitive_moves_closer(self, config, projection):
        def build(i):
            p_depth = 0.9 if i >= 3 else 0.0  # jumps in front at frame 3
            return Frame(
                [
                    woz_quad(0, 0, WIDTH, HEIGHT, -0.5,
                             Vec4(0.2, 0.2, 0.2, 1)),
                    woz_quad(8, 8, 16, 16, p_depth, Vec4(1, 0, 0, 1)),
                    woz_quad(0, 0, WIDTH, HEIGHT, 0.5, Vec4(0, 0, 1, 1)),
                ],
                projection=projection, index=i,
            )

        stream = FrameStream(build, config.frames)
        outputs = render_all_modes(config, stream)
        assert_images_identical(outputs)
        # P is visible (red) at frame 3+ in all modes.
        final = outputs[EVR].frames[-1].image
        assert np.allclose(final[12, 12], [1, 0, 0, 1])

    def test_occluder_disappears(self, config, projection):
        def build(i):
            commands = [
                woz_quad(0, 0, WIDTH, HEIGHT, -0.5, Vec4(0.2, 0.2, 0.2, 1)),
                woz_quad(8, 8, 16, 16, 0.0, Vec4(1, 0, 0, 1)),
            ]
            if i < 3:  # occluder present only in frames 0-2
                commands.append(
                    woz_quad(0, 0, WIDTH, HEIGHT, 0.5, Vec4(0, 0, 1, 1))
                )
            return Frame(commands, projection=projection, index=i)

        stream = FrameStream(build, config.frames)
        outputs = render_all_modes(config, stream)
        assert_images_identical(outputs)
        final = outputs[EVR].frames[-1].image
        assert np.allclose(final[12, 12], [1, 0, 0, 1])

    def test_occluder_moves_aside(self, config, projection):
        def build(i):
            occluder_x = 0 if i < 3 else 32
            return Frame(
                [
                    woz_quad(0, 0, WIDTH, HEIGHT, -0.5,
                             Vec4(0.2, 0.2, 0.2, 1)),
                    woz_quad(8, 8, 16, 16, 0.0, Vec4(1, 0, 0, 1)),
                    woz_quad(occluder_x, 0, 32, HEIGHT, 0.5,
                             Vec4(0, 0, 1, 1)),
                ],
                projection=projection, index=i,
            )

        stream = FrameStream(build, config.frames)
        outputs = render_all_modes(config, stream)
        assert_images_identical(outputs)
