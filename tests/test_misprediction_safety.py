"""Regression test for the misprediction-poisoning correctness repair.

The paper's Table I safety argument implicitly assumes that a primitive
excluded from a tile's signature was truly occluded in the previous
frame.  A primitive that is *visible* but drifts farther every frame can
be mispredicted occluded two frames in a row: both signatures then
exclude it, they match, and the tile is wrongly skipped while the
primitive visibly moved.  (Found by the cross-mode image-equality
invariants on the *ata* benchmark.)

The repair: any predicted-occluded primitive contributing to a tile's
final image taints the tile, which poisons its signature so the next
frame cannot match.  These tests construct the minimal failing scene and
check both the safety (images identical to baseline) and the mechanism
(poison events fire; prediction was indeed wrong).
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
from repro.techniques import BASELINE, EVR

WIDTH, HEIGHT = 32, 16   # a 2x1-tile screen


@pytest.fixture
def config():
    return GPUConfig(screen_width=WIDTH, screen_height=HEIGHT, frames=6)


@pytest.fixture
def stream(config):
    """A full-screen WOZ quad that drifts away from the camera every
    frame while its color changes: it is always fully visible (it is the
    only geometry), yet ``Z_near(i+1) > Z_far(i)`` holds every frame, so
    EVR predicts it occluded and excludes it from every signature.
    Without the poisoning repair, the empty signatures match and the
    tile is skipped while the visible color keeps changing."""
    projection = orthographic(0, WIDTH, HEIGHT, 0, -1.0, 1.0)

    def build(index):
        state = RenderState.opaque_3d(cull_backface=False)
        drift_z = -0.5 - 0.04 * index       # farther every frame
        drifter = DrawCommand.from_mesh(
            quad(Vec3(0, 0, drift_z), Vec3(WIDTH, 0, 0), Vec3(0, HEIGHT, 0),
                 Vec4(1.0, 0.1 * index, 0.1, 1.0)),   # visibly changing
            state=state, label="drifter",
        )
        return Frame([drifter], projection=projection, index=index)

    return FrameStream(build, 6)


def test_prediction_is_actually_wrong(config, stream):
    """Sanity: the scene really does trigger occluded-predictions for a
    visible primitive (otherwise this regression test tests nothing)."""
    gpu = GPU(config, EVR)
    result = gpu.render_stream(stream)
    stats = result.total_stats(warmup=0)
    assert stats.predicted_occluded > 0
    assert stats.signature_poisons > 0


def test_images_match_baseline_despite_mispredictions(config, stream):
    baseline = GPU(config, BASELINE).render_stream(stream)
    evr = GPU(config, EVR).render_stream(stream)
    for index, (expected, actual) in enumerate(
        zip(baseline.frames, evr.frames)
    ):
        assert np.array_equal(expected.image, actual.image), (
            f"frame {index} diverged"
        )


def test_poisoned_tiles_rerender(config, stream):
    """Tiles with a visible mispredicted primitive must not be skipped."""
    gpu = GPU(config, EVR)
    for frame in stream:
        result = gpu.render_frame(frame)
        if result.stats.signature_poisons:
            # The drifter's tile was poisoned this frame; next frame it
            # cannot be skipped even if signatures would match.
            break
    else:
        pytest.fail("scene never poisoned a tile")


def test_poison_counters_exposed(config, stream):
    gpu = GPU(config, EVR)
    gpu.render_stream(stream)
    assert gpu.re is not None
    assert gpu.re.stats.tiles_poisoned > 0


def test_no_poisoning_without_mispredictions(config):
    """A fully static scene never poisons (exclusions are all correct)."""
    projection = orthographic(0, WIDTH, HEIGHT, 0, -1.0, 1.0)
    state = RenderState.opaque_3d(cull_backface=False)

    def build(index):
        far = DrawCommand.from_mesh(
            quad(Vec3(0, 0, -0.5), Vec3(WIDTH, 0, 0), Vec3(0, HEIGHT, 0),
                 Vec4(1, 0, 0, 1)),
            state=state,
        )
        near = DrawCommand.from_mesh(
            quad(Vec3(0, 0, 0.5), Vec3(WIDTH, 0, 0), Vec3(0, HEIGHT, 0),
                 Vec4(0, 1, 0, 1)),
            state=state,
        )
        return Frame([far, near], projection=projection, index=index)

    gpu = GPU(config, EVR)
    result = gpu.render_stream(FrameStream(build, 6))
    assert result.total_stats(warmup=0).signature_poisons == 0
    assert result.total_stats(warmup=0).predicted_occluded > 0
