"""Randomized cross-mode correctness fuzzing.

Generates random animated scenes (mixed WOZ/NWOZ, random depths, motion,
blending, partial overlaps, HUD-like overlays) and checks the library's
strongest invariant: BASELINE, RE and EVR render pixel-identical frames.

This is the test class that originally exposed the misprediction-
poisoning hole (DESIGN.md §5b), generalized from the fixed benchmark
suite to hypothesis-driven scene generation.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    BlendMode,
    DrawCommand,
    Frame,
    FrameStream,
    GPU,
    GPUConfig,
    RenderState,
)
from repro.geom import quad
from repro.math3d import Vec3, Vec4, orthographic
from repro.techniques import BASELINE, RE, EVR, EVR_REORDER_ONLY, ORACLE

WIDTH, HEIGHT = 48, 32
CONFIG = GPUConfig(screen_width=WIDTH, screen_height=HEIGHT, frames=5)
PROJECTION = orthographic(0, WIDTH, HEIGHT, 0, -1.0, 1.0)


@st.composite
def rect_specs(draw):
    """One animated rectangle: geometry, depth, state and motion."""
    x = draw(st.floats(min_value=-10, max_value=WIDTH - 2))
    y = draw(st.floats(min_value=-10, max_value=HEIGHT - 2))
    w = draw(st.floats(min_value=2, max_value=WIDTH))
    h = draw(st.floats(min_value=2, max_value=HEIGHT))
    depth = draw(st.floats(min_value=-0.9, max_value=0.9))
    kind = draw(st.sampled_from(["woz", "sprite", "translucent"]))
    alpha = draw(st.sampled_from([0.4, 1.0]))
    dx = draw(st.floats(min_value=-4, max_value=4))
    dz = draw(st.floats(min_value=-0.05, max_value=0.05))
    color_seed = draw(st.integers(min_value=0, max_value=255))
    animate_color = draw(st.booleans())
    return (x, y, w, h, depth, kind, alpha, dx, dz, color_seed,
            animate_color)


def build_stream(specs):
    def build(index):
        commands = [
            DrawCommand.from_mesh(
                quad(Vec3(0, 0, -0.95), Vec3(WIDTH, 0, 0), Vec3(0, HEIGHT, 0),
                     Vec4(0.1, 0.1, 0.15, 1.0)),
                state=RenderState.sprite_2d(),
                label="background",
            )
        ]
        for spec_index, spec in enumerate(specs):
            (x, y, w, h, depth, kind, alpha, dx, dz, color_seed,
             animate_color) = spec
            frame_x = x + dx * index
            frame_depth = max(-0.95, min(0.95, depth + dz * index))
            green = ((color_seed + (17 * index if animate_color else 0))
                     % 256) / 255.0
            color = Vec4(0.8, green, 0.3, alpha if kind == "translucent"
                         else 1.0)
            mesh = quad(Vec3(frame_x, y, frame_depth),
                        Vec3(w, 0, 0), Vec3(0, h, 0), color)
            if kind == "woz":
                state = RenderState.opaque_3d(cull_backface=False)
            elif kind == "translucent":
                state = RenderState.sprite_2d(blend=BlendMode.ALPHA)
            else:
                state = RenderState.sprite_2d()
            commands.append(
                DrawCommand.from_mesh(mesh, state=state,
                                      label=f"rect{spec_index}")
            )
        return Frame(commands, projection=PROJECTION, index=index)

    return FrameStream(build, CONFIG.frames)


@given(st.lists(rect_specs(), min_size=1, max_size=7))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_all_modes_pixel_identical_on_random_scenes(specs):
    stream = build_stream(specs)
    reference = None
    for mode in (BASELINE, RE, EVR):
        result = GPU(CONFIG, mode).render_stream(stream)
        images = [frame.image for frame in result.frames]
        if reference is None:
            reference = images
            continue
        for index, (expected, actual) in enumerate(zip(reference, images)):
            np.testing.assert_array_equal(
                expected, actual,
                err_msg=f"{mode.name} frame {index} diverged",
            )


@given(st.lists(rect_specs(), min_size=1, max_size=6))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_reorder_only_never_changes_image(specs):
    stream = build_stream(specs)
    baseline = GPU(CONFIG, BASELINE).render_stream(stream)
    reorder = GPU(CONFIG, EVR_REORDER_ONLY).render_stream(stream)
    for expected, actual in zip(baseline.frames, reorder.frames):
        np.testing.assert_array_equal(expected.image, actual.image)


@given(st.lists(rect_specs(), min_size=1, max_size=6))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_skip_counts_within_oracle_bound(specs):
    """EVR may never skip more tiles than are pixel-identical."""
    stream = build_stream(specs)
    evr = GPU(CONFIG, EVR).render_stream(stream)
    oracle = GPU(CONFIG, ORACLE).render_stream(stream)
    # Per-frame: skipped tiles must be a subset of truly-equal tiles,
    # so the counts must satisfy skipped <= equal.
    evr_skipped = sum(f.stats.tiles_skipped for f in evr.frames)
    assert evr_skipped <= oracle.comparator.tiles_equal


# ---------------------------------------------------------------------------
# Corpus stress families as hypothesis strategies: the named adversarial
# workloads (repro.corpus) must satisfy the same contracts under *any*
# seed, not just the seeds the committed corpus pins.
# ---------------------------------------------------------------------------

from repro.corpus import family_names, family_stream  # noqa: E402
from repro.validate import validate_stream  # noqa: E402

STRESS_CONFIG = GPUConfig(screen_width=48, screen_height=32, frames=3)


@given(st.sampled_from(family_names()),
       st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_stress_families_satisfy_contracts_under_any_seed(family, seed):
    stream = family_stream(family, STRESS_CONFIG, seed=seed)
    report = validate_stream(stream, STRESS_CONFIG)
    assert report.passed, f"{family} seed={seed}\n{report.render()}"


@given(st.sampled_from(family_names()),
       st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_stress_families_differential_across_backends(family, seed):
    """Scalar and batched backends must stay bit-identical on the
    adversarial geometry (slivers, zero-area, deep stacks) too."""
    stream = family_stream(family, STRESS_CONFIG, seed=seed)
    report = validate_stream(stream, STRESS_CONFIG,
                             modes=(BASELINE, EVR),
                             backends=("python", "numpy"))
    assert report.passed, f"{family} seed={seed}\n{report.render()}"
