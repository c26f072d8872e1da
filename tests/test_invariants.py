"""End-to-end invariants of the whole system (DESIGN.md Section 6).

1. Rendering correctness: BASELINE, RE, EVR and ORACLE produce pixel-
   identical images on every benchmark.
2. Shading ordering: Oracle <= EVR-reordered <= Baseline shaded
   fragments on opaque 3D scenes.
3. Prediction safety under perfect coherence: in a fully static scene a
   predicted-occluded primitive is truly invisible (removing it leaves
   the image unchanged).
4. EVR's redundant-tile detection dominates RE's in steady state.
"""

import numpy as np
import pytest

from repro import GPU, GPUConfig
from repro.scenes import benchmark_names, benchmark_stream
from repro.techniques import BASELINE, RE, EVR, EVR_REORDER_ONLY, ORACLE

CONFIG = GPUConfig.tiny(frames=5)
SPOT_CHECK = ["cde", "hay", "hop", "tib", "ata", "300", "wog"]


@pytest.mark.parametrize("alias", SPOT_CHECK)
def test_all_modes_render_identical_images(alias):
    stream = benchmark_stream(alias, CONFIG)
    reference = None
    for mode in (BASELINE, RE, EVR, ORACLE, EVR_REORDER_ONLY):
        result = GPU(CONFIG, mode).render_stream(stream)
        images = [frame.image for frame in result.frames]
        if reference is None:
            reference = images
            continue
        for index, (expected, actual) in enumerate(zip(reference, images)):
            assert np.array_equal(expected, actual), (
                f"{alias}/{mode.name} diverged at frame {index}"
            )


@pytest.mark.parametrize("alias", benchmark_names("3D"))
def test_shading_order_oracle_evr_baseline(alias):
    stream = benchmark_stream(alias, CONFIG)
    base = GPU(CONFIG, BASELINE).render_stream(stream)
    evr = GPU(CONFIG, EVR_REORDER_ONLY).render_stream(stream)
    oracle = GPU(CONFIG, ORACLE).render_stream(stream)
    base_shaded = base.total_stats().fragments_shaded
    evr_shaded = evr.total_stats().fragments_shaded
    oracle_shaded = oracle.total_stats().fragments_shaded
    assert oracle_shaded <= evr_shaded
    assert evr_shaded <= base_shaded


@pytest.mark.parametrize("alias", ["cde", "hay", "tib", "mto"])
def test_evr_detects_at_least_as_many_redundant_tiles(alias):
    stream = benchmark_stream(alias, CONFIG)
    re_run = GPU(CONFIG, RE).render_stream(stream)
    evr_run = GPU(CONFIG, EVR).render_stream(stream)
    assert (
        evr_run.total_stats().tiles_skipped
        >= re_run.total_stats().tiles_skipped
    )


def test_skip_rate_never_exceeds_oracle():
    for alias in ["cde", "hay", "tib"]:
        stream = benchmark_stream(alias, CONFIG)
        evr = GPU(CONFIG, EVR).render_stream(stream)
        oracle = GPU(CONFIG, ORACLE).render_stream(stream)
        # A sound skipper cannot beat pixel-exact equality detection.
        assert (
            evr.redundant_tile_rate()
            <= oracle.redundant_tile_rate() + 1e-9
        )


def test_static_scene_predictions_are_exact():
    """Perfect frame coherence: every predicted-occluded primitive really
    is occluded, so EVR skips every tile after warm-up and the image
    never changes."""
    from repro import DrawCommand, Frame, FrameStream, RenderState
    from repro.geom import quad
    from repro.math3d import Vec3, Vec4, orthographic

    config = GPUConfig.tiny(frames=5)
    projection = orthographic(0, config.screen_width, config.screen_height,
                              0, -1, 1)

    def build(index):
        far = quad(Vec3(0, 0, -0.5),
                   Vec3(config.screen_width, 0, 0),
                   Vec3(0, config.screen_height, 0), Vec4(1, 0, 0, 1))
        near = quad(Vec3(0, 0, 0.5),
                    Vec3(config.screen_width, 0, 0),
                    Vec3(0, config.screen_height, 0), Vec4(0, 1, 0, 1))
        state = RenderState.opaque_3d(cull_backface=False)
        return Frame(
            [DrawCommand.from_mesh(far, state=state),
             DrawCommand.from_mesh(near, state=state)],
            projection=projection, index=index,
        )

    stream = FrameStream(build, config.frames)
    result = GPU(config, EVR).render_stream(stream)
    steady = result.total_stats(warmup=2)
    assert steady.tiles_skipped == steady.tiles_total
    # Predictions fired: the far quad is predicted occluded everywhere
    # once the FVP is known.
    assert result.total_stats(warmup=0).predicted_occluded > 0
    first = result.frames[0].image
    for frame in result.frames[1:]:
        assert np.array_equal(first, frame.image)


def test_evr_strictly_better_where_hidden_motion_exists():
    """hay has motion under an opaque HUD: EVR must skip strictly more
    tiles than RE in steady state."""
    config = GPUConfig.default(frames=6)
    stream = benchmark_stream("hay", config)
    re_run = GPU(config, RE).render_stream(stream)
    evr_run = GPU(config, EVR).render_stream(stream)
    assert (
        evr_run.total_stats().tiles_skipped
        > re_run.total_stats().tiles_skipped
    )
