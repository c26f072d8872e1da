"""Shared fixtures: small configs and canonical test scenes."""

from __future__ import annotations

import pytest

from repro import (
    DrawCommand,
    Frame,
    FrameStream,
    GPUConfig,
    RenderState,
)
from repro.geom import quad, screen_quad
from repro.math3d import Mat4, Vec3, Vec4, orthographic


@pytest.fixture(autouse=True)
def _isolated_state_dirs(tmp_path, monkeypatch):
    """Point the run ledger and the run cache at per-test directories so
    CLI tests never append to (or read) a developer's real
    ``.repro_ledger/``, and never write run-cache pickles or resume
    journals into ``./.repro_cache/`` — or get cells from it."""
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "test_ledger"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "test_cache"))


@pytest.fixture
def tiny_config() -> GPUConfig:
    """64x48 screen -> 4x3 tiles, 4 frames."""
    return GPUConfig.tiny(frames=4)


@pytest.fixture
def ortho_screen(tiny_config):
    """Pixel-space orthographic projection for the tiny config."""
    return orthographic(
        0.0,
        float(tiny_config.screen_width),
        float(tiny_config.screen_height),
        0.0,
        -1.0,
        1.0,
    )


def make_sprite_frame(config, projection, index, sprites):
    """Build a frame of 2D sprites: (x, y, w, h, color) tuples."""
    commands = [
        DrawCommand.from_mesh(
            screen_quad(x, y, w, h, color=color),
            state=RenderState.sprite_2d(),
            label=f"sprite{i}",
        )
        for i, (x, y, w, h, color) in enumerate(sprites)
    ]
    return Frame(commands, view=Mat4.identity(), projection=projection,
                 index=index)


@pytest.fixture
def static_2d_stream(tiny_config, ortho_screen):
    """3 identical frames: background + one sprite (fully redundant)."""

    def build(index):
        return make_sprite_frame(
            tiny_config,
            ortho_screen,
            index,
            [
                (0, 0, tiny_config.screen_width, tiny_config.screen_height,
                 Vec4(0.1, 0.2, 0.3, 1.0)),
                (8, 8, 16, 16, Vec4(1.0, 0.0, 0.0, 1.0)),
            ],
        )

    return FrameStream(build, tiny_config.frames)


def make_depth_frame(config, projection, index, quads, writes_z=True,
                     color_shift=0.0):
    """Build a frame of depth-tested full-screen quads.

    ``quads`` is a list of (z, color) tuples drawn in order; z is world-z
    with larger values closer to the camera under the test projection.
    """
    commands = []
    for i, (z, color) in enumerate(quads):
        mesh = quad(
            Vec3(0.0, 0.0, z),
            Vec3(float(config.screen_width), 0.0, 0.0),
            Vec3(0.0, float(config.screen_height), 0.0),
            color,
        )
        state = (
            RenderState.opaque_3d(cull_backface=False)
            if writes_z
            else RenderState.sprite_2d()
        )
        commands.append(DrawCommand.from_mesh(mesh, state=state,
                                              label=f"quad{i}"))
    return Frame(commands, view=Mat4.identity(), projection=projection,
                 index=index)


@pytest.fixture
def back_to_front_stream(tiny_config, ortho_screen):
    """Two full-screen WOZ quads drawn back-to-front, colors animated so
    Rendering Elimination never skips (isolates the reordering effect)."""

    def build(index):
        return make_depth_frame(
            tiny_config,
            ortho_screen,
            index,
            [
                (-0.5, Vec4(1.0, 0.01 * index, 0.0, 1.0)),   # far
                (0.5, Vec4(0.0, 1.0, 0.01 * index, 1.0)),    # near
            ],
        )

    return FrameStream(build, tiny_config.frames)
