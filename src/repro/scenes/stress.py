"""Adversarial stress scenes for the robustness corpus.

The Table III benchmarks (:mod:`repro.scenes.benchmarks`) are
*well-behaved*: every sprite has positive area, cameras move smoothly,
and depth complexity stays in the range the paper reports.  The EVR
correctness contracts — pixel-identical frames across pipeline modes,
oracle-bounded skips, bit-identical kernel backends — must also hold on
the inputs nobody hand-codes: zero-area and sliver triangles that
stress rasterizer edge cases, particle storms that flood the binner,
camera churn that defeats Rendering Elimination everywhere, deep
depth-complexity stacks (the VR-Pipe workload class) and hidden-motion
adversaries tuned to maximize the EVR/RE disagreement surface.

Every builder here is a pure function of ``(config, seed, frame
index)``: layout randomness comes from ``random.Random(seed)`` and all
animation derives from the frame index, so the resulting
:class:`FrameStream` replays bit-exactly — the property the corpus
serializer (:mod:`repro.corpus.store`) and the differential replay gate
(:mod:`repro.corpus.gate`) both rely on.

Values fed into geometry are rounded to a few decimals (:func:`_r`) so
serialized traces stay compact without losing the sub-pixel placements
the families deliberately exercise.
"""

from __future__ import annotations

import random
from typing import List

import numpy as np

from ..commands import (
    BlendMode,
    DrawCommand,
    Frame,
    FrameStream,
    RenderState,
    ShaderProfile,
)
from ..config import GPUConfig
from ..geom import Mesh, grid_meshes, quads, screen_quad, sprite_quad
from ..math3d import Mat4, Vec2, Vec3, Vec4, orthographic
from .motion import JitterMotion, LinearOscillation
from .scene import HUDSpec, Layer2D, Scene2D, SpriteSpec
from .scene3d import BoxSpec, Scene3D, TranslucentSpec


def _r(value: float, places: int = 3) -> float:
    """Round scene coordinates for compact, diffable trace files."""
    return round(value, places)


def _color(rng: random.Random, alpha: float = 1.0) -> Vec4:
    return Vec4(
        _r(0.2 + 0.8 * rng.random()),
        _r(0.2 + 0.8 * rng.random()),
        _r(0.2 + 0.8 * rng.random()),
        alpha,
    )


def _screen_projection(config: GPUConfig) -> Mat4:
    return orthographic(
        0.0, float(config.screen_width), float(config.screen_height), 0.0,
        -1.0, 1.0,
    )


def _triangles(points, color: Vec4) -> Mesh:
    """Hand-made triangles at ``points`` (``(k, 3, 3)``: per triangle,
    three ``(x, y, z)``), every vertex ``color`` with normal ``(0, 0,
    1)`` and the uv ``(0, 0)``, ``(1, 0)``, ``(0, 1)`` in turn."""
    positions = np.array(points, dtype=np.float64).reshape(-1, 3, 3)
    attributes = np.empty((len(positions), 3, 9))
    attributes[:, :, :4] = tuple(color)
    attributes[:, :, 4:6] = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    attributes[:, :, 6:] = (0.0, 0.0, 1.0)
    return Mesh(positions, attributes)


def _sprites(rects, color) -> Mesh:
    """:func:`~repro.geom.sprite_quad` of every ``(center_x, center_y,
    width, height)`` row of ``rects`` at z = 0, in one array pass
    (``color``: one RGBA, or one per row)."""
    rects = np.array(rects, dtype=np.float64).reshape(-1, 4)
    center, size = rects[:, :2], rects[:, 2:]
    corner = np.zeros((len(rects), 3))
    corner[:, :2] = center - size / 2.0
    edge_u = np.zeros((len(rects), 3))
    edge_u[:, 0] = size[:, 0]
    edge_v = np.zeros((len(rects), 3))
    edge_v[:, 1] = size[:, 1]
    return quads(corner, edge_u, edge_v, color)


def _background_command(config: GPUConfig, color: Vec4) -> DrawCommand:
    mesh = screen_quad(0.0, 0.0, float(config.screen_width),
                       float(config.screen_height), color=color)
    return DrawCommand.from_mesh(
        mesh,
        state=RenderState.sprite_2d(
            shader=ShaderProfile(fragment_instructions=4,
                                 texture_fetches=1, texture_id=5)
        ),
        label="background",
    )


def _frame_2d(config: GPUConfig, commands: List[DrawCommand],
              index: int) -> Frame:
    return Frame(commands, view=Mat4.identity(),
                 projection=_screen_projection(config), index=index)


# ---------------------------------------------------------------------------
# Degenerate geometry: zero-area, collinear, point and off-screen prims
# ---------------------------------------------------------------------------

def degenerate_stream(config: GPUConfig, seed: int = 0) -> FrameStream:
    """Zero-area triangles, collinear slivers collapsed to lines, point
    primitives, quads far off-screen and sub-pixel quads that fall
    between sample points — every shape the rasterizer must reject
    identically under every mode and backend, mixed with a few honest
    moving sprites so frames stay visually nontrivial."""
    rng = random.Random(seed)
    width = float(config.screen_width)
    height = float(config.screen_height)
    state = RenderState.sprite_2d(
        shader=ShaderProfile(fragment_instructions=8, texture_fetches=1))
    anchors = [
        Vec2(_r(rng.uniform(0.1 * width, 0.9 * width)),
             _r(rng.uniform(0.1 * height, 0.9 * height)))
        for _ in range(6)
    ]
    colors = [_color(rng) for _ in range(8)]

    def build(index: int) -> Frame:
        a = anchors[0]
        p = anchors[1]
        # A sub-pixel quad drifting between pixel centers: coverage can
        # flip on/off frame to frame, but must flip the same way in
        # every mode.
        drift = _r(0.05 * (index % 8))
        mesh = Mesh().extend(
            # Collinear (zero signed area) and point-collapsed triangles.
            _triangles(((a.x, a.y, 0.0), (a.x + 10.0, a.y + 10.0, 0.0),
                        (a.x + 20.0, a.y + 20.0, 0.0)), colors[0]),
            _triangles(((p.x, p.y, 0.0),) * 3, colors[1]),
            # Zero-width and zero-height quads.
            screen_quad(anchors[2].x, anchors[2].y, 0.0, 12.0,
                        color=colors[2]),
            screen_quad(anchors[3].x, anchors[3].y, 12.0, 0.0,
                        color=colors[3]),
            # Entirely off-screen, far beyond the guard band.
            screen_quad(width * 4.0, height * 4.0, 9.0, 9.0,
                        color=colors[4]),
            screen_quad(-width * 3.0, -height * 3.0, 9.0, 9.0,
                        color=colors[5]),
            screen_quad(anchors[4].x + drift, anchors[4].y + 0.3, 0.4, 0.4,
                        color=colors[6]),
        )
        commands = [
            _background_command(config, Vec4(0.2, 0.22, 0.3, 1.0)),
            DrawCommand.from_mesh(mesh, state=state, label="degenerate"),
        ]
        # Honest motion so RE/EVR have something real to track.
        mover = sprite_quad(
            Vec2(anchors[5].x + _r(3.0 * (index % 5)), anchors[5].y),
            Vec2(10.0, 8.0), color=colors[7],
        )
        commands.append(DrawCommand.from_mesh(mover, state=state,
                                              label="mover"))
        return _frame_2d(config, commands, index)

    return FrameStream(build, config.frames)


# ---------------------------------------------------------------------------
# Slivers: long, thin, tile-crossing triangles
# ---------------------------------------------------------------------------

def sliver_stream(config: GPUConfig, seed: int = 0) -> FrameStream:
    """Sub-pixel-tall quads spanning the full screen width and long
    diagonal sliver triangles that cross many tiles while covering
    almost no samples — the conservative-coverage edge case where a
    batched rasterizer could disagree with the scalar reference."""
    rng = random.Random(seed)
    width = float(config.screen_width)
    height = float(config.screen_height)
    state = RenderState.sprite_2d(
        shader=ShaderProfile(fragment_instructions=6))
    bands = [_r(rng.uniform(0.1 * height, 0.9 * height)) for _ in range(5)]
    colors = [_color(rng) for _ in range(9)]

    def build(index: int) -> Frame:
        # Horizontal hairline bands, drifting by fractions of a pixel.
        hairlines = [
            screen_quad(0.0, band_y + _r(0.125 * ((index + band_index) % 8)),
                        width, 0.45, color=colors[band_index])
            for band_index, band_y in enumerate(bands)]
        # A vertical hairline sweeping one pixel column per frame.
        x = float((index * 7) % max(1, config.screen_width))
        mesh = Mesh().extend(
            *hairlines,
            # Diagonal slivers corner-to-corner: ~1px wide at one end,
            # vanishing at the other.
            _triangles(((0.0, 0.0, 0.0), (width, height - 1.2, 0.0),
                        (width, height, 0.0)), colors[5]),
            _triangles(((width, 0.0, 0.0), (0.0, height, 0.0),
                        (0.0, height - 1.0, 0.0)), colors[6]),
            screen_quad(x, 0.0, 0.5, height, color=colors[7]),
        )
        commands = [
            _background_command(config, Vec4(0.16, 0.2, 0.24, 1.0)),
            DrawCommand.from_mesh(mesh, state=state, label="slivers"),
        ]
        return _frame_2d(config, commands, index)

    return FrameStream(build, config.frames)


# ---------------------------------------------------------------------------
# Particle storm: many tiny quads, per-frame jitter, blended layer on top
# ---------------------------------------------------------------------------

def particle_storm_stream(config: GPUConfig, seed: int = 0) -> FrameStream:
    """Emitters spraying dozens of 1-3px quads whose positions jitter
    every frame (no two frames share a tile signature anywhere), capped
    by a translucent ember layer — the binning/blending flood case."""
    rng = random.Random(seed)
    width = float(config.screen_width)
    height = float(config.screen_height)
    # Particle count scales with the screen so the tiny preset stays
    # cheap and committed traces stay small.
    per_emitter = max(16, (config.screen_width * config.screen_height) // 256)
    emitters = [
        (Vec2(_r(rng.uniform(0.2 * width, 0.8 * width)),
              _r(rng.uniform(0.2 * height, 0.8 * height))),
         _color(rng))
        for _ in range(3)
    ]
    state = RenderState.sprite_2d(
        shader=ShaderProfile(fragment_instructions=5))
    blend_state = RenderState.sprite_2d(
        shader=ShaderProfile(fragment_instructions=5),
        blend=BlendMode.ALPHA,
    )

    def build(index: int) -> Frame:
        commands = [
            _background_command(config, Vec4(0.1, 0.1, 0.14, 1.0)),
        ]
        for emitter_index, (origin, color) in enumerate(emitters):
            burst = random.Random(
                (seed * 1009 + emitter_index) * 7919 + index)
            # Per particle its center, then its size.
            mesh = _sprites([
                (_r(origin.x + burst.uniform(-0.45, 0.45) * width),
                 _r(origin.y + burst.uniform(-0.45, 0.45) * height),
                 _r(burst.uniform(1.0, 3.0)), _r(burst.uniform(1.0, 3.0)))
                for _ in range(per_emitter)], color)
            commands.append(DrawCommand.from_mesh(
                mesh, state=state, label=f"emitter{emitter_index}"))
        ember_rng = random.Random(seed * 31 + index)
        embers = _sprites([
            (_r(ember_rng.uniform(0.0, width)),
             _r(ember_rng.uniform(0.0, height)),
             _r(ember_rng.uniform(2.0, 5.0)), _r(ember_rng.uniform(2.0, 5.0)))
            for _ in range(max(8, per_emitter // 4))],
            Vec4(1.0, 0.7, 0.3, 0.5))
        commands.append(DrawCommand.from_mesh(embers, state=blend_state,
                                              label="embers"))
        return _frame_2d(config, commands, index)

    return FrameStream(build, config.frames)


# ---------------------------------------------------------------------------
# Orbit churn: a fast camera that defeats RE everywhere but the HUD
# ---------------------------------------------------------------------------

def orbit_churn_stream(config: GPUConfig, seed: int = 0) -> FrameStream:
    """A 3D prop field under a camera orbiting a full revolution every
    few frames: every world tile's attributes change every frame, so RE
    should find nothing outside the HUD and EVR's gains collapse to the
    covered band — while images stay pixel-identical across modes."""
    rng = random.Random(seed)
    boxes = [
        BoxSpec(
            center=Vec3(_r(rng.uniform(-8.0, 8.0)),
                        _r(rng.uniform(1.0, 2.5)),
                        _r(rng.uniform(-8.0, 8.0))),
            size=Vec3(_r(rng.uniform(2.0, 4.0)),
                      _r(rng.uniform(2.0, 5.0)),
                      _r(rng.uniform(2.0, 4.0))),
            color=_color(rng),
            name=f"box{box_index}",
        )
        for box_index in range(8)
    ]
    translucents = [
        TranslucentSpec(
            center=Vec3(_r(rng.uniform(-6.0, 6.0)), 2.5,
                        _r(rng.uniform(-6.0, 6.0))),
            size=_r(rng.uniform(2.0, 3.5)),
            color=_color(rng, alpha=0.45),
        )
    ]
    width = float(config.screen_width)
    height = float(config.screen_height)
    band = _r(0.18 * height)
    scene = Scene3D(
        config.screen_width,
        config.screen_height,
        boxes=boxes,
        translucents=translucents,
        hud=HUDSpec(panels=((0.0, 0.0, width, band),
                            (0.0, height - band, width, band))),
        camera_eye=Vec3(0.0, 5.0, 12.0),
        # A full orbit every ~5 frames: adjacent frames see the world
        # from wildly different angles.
        camera_orbit_period=5.0,
        draw_order="back_to_front",
    )
    return scene.stream(config.frames)


# ---------------------------------------------------------------------------
# Stereo double-wide: the same scene submitted twice, side by side
# ---------------------------------------------------------------------------

def stereo_stream(config: GPUConfig, seed: int = 0) -> FrameStream:
    """A VR-style double-wide frame: every sprite is drawn once into the
    left half and again into the right half with a small horizontal
    parallax.  Tiles repeat near-identical content at a fixed offset —
    the redundancy pattern cross-eye reuse schemes chase, and a layout
    where any tile-indexing bug shows up as a left/right mismatch."""
    rng = random.Random(seed)
    width = float(config.screen_width)
    height = float(config.screen_height)
    half = width / 2.0
    parallax = 1.5
    sprites = []
    for sprite_index in range(10):
        sprites.append((
            Vec2(_r(rng.uniform(0.1 * half, 0.9 * half - parallax)),
                 _r(rng.uniform(0.1 * height, 0.9 * height))),
            Vec2(_r(rng.uniform(3.0, 0.22 * half)),
                 _r(rng.uniform(3.0, 0.22 * height))),
            _color(rng),
            _r(rng.uniform(0.05, 0.12) * half),   # motion amplitude
            8 + 2 * (sprite_index % 4),           # motion period
        ))
    state = RenderState.sprite_2d(
        shader=ShaderProfile(fragment_instructions=8, texture_fetches=1))

    def build(index: int) -> Frame:
        commands = [
            _background_command(config, Vec4(0.18, 0.2, 0.28, 1.0)),
        ]
        swings = []
        for center, size, color, amplitude, period in sprites:
            phase = 2.0 * (index % period) / period
            swings.append(_r(amplitude * (phase if phase <= 1.0
                                          else 2.0 - phase)))
        for eye_index, eye_offset in ((0, 0.0), (1, half + parallax)):
            mesh = _sprites(
                [(center.x + swing + eye_offset, center.y, size.x, size.y)
                 for (center, size, *_), swing in zip(sprites, swings)],
                [tuple(color) for _, _, color, _, _ in sprites])
            commands.append(DrawCommand.from_mesh(
                mesh, state=state, label=f"eye{eye_index}"))
        divider = screen_quad(half - 0.5, 0.0, 1.0, height,
                              color=Vec4(0.05, 0.05, 0.05, 1.0))
        commands.append(DrawCommand.from_mesh(divider, state=state,
                                              label="divider"))
        return _frame_2d(config, commands, index)

    return FrameStream(build, config.frames)


# ---------------------------------------------------------------------------
# Deep depth-complexity stacks (the VR-Pipe workload class)
# ---------------------------------------------------------------------------

def depth_stack_stream(config: GPUConfig, seed: int = 0) -> FrameStream:
    """A dozen full-screen depth-tested layers submitted back-to-front
    (the overshading worst case), one mid-stack mover, and a blended
    veil on top: depth complexity far beyond the Table III suite, where
    reordering gains are largest and any depth-precision disagreement
    between backends becomes a visible pixel diff."""
    rng = random.Random(seed)
    width = float(config.screen_width)
    height = float(config.screen_height)
    layers = 12
    state = RenderState.opaque_3d(
        shader=ShaderProfile(fragment_instructions=10), cull_backface=False)
    colors = [_color(rng) for _ in range(layers)]
    # Each layer is a grid slightly inset from the one below so every
    # layer still owns some visible border pixels.
    insets = [_r(1.5 * layer_index) for layer_index in range(layers)]
    mover_color = _color(rng)

    # Back-to-front: z from deep (0.9) toward near (0.1).  The stack is
    # static: its grids are built once, in one array pass.
    stack = grid_meshes(
        [(inset, inset, _r(0.9 - 0.8 * layer_index / (layers - 1)))
         for layer_index, inset in enumerate(insets)],
        [(width - 2.0 * inset, 0.0, 0.0) for inset in insets],
        [(0.0, height - 2.0 * inset, 0.0) for inset in insets],
        2, 2, [tuple(color) for color in colors])
    per_layer = len(stack) // layers
    stack_meshes = [stack[per_layer * layer_index:
                          per_layer * (layer_index + 1)]
                    for layer_index in range(layers)]

    def build(index: int) -> Frame:
        commands = [
            _background_command(config, Vec4(0.12, 0.12, 0.16, 1.0)),
        ]
        for layer_index, mesh in enumerate(stack_meshes):
            commands.append(DrawCommand.from_mesh(
                mesh, state=state, label=f"stack{layer_index}"))
        # A mover sandwiched mid-stack: occluded by the six layers above
        # it, occluding the six below.
        mover = screen_quad(
            _r(0.25 * width + 2.0 * (index % 6)), _r(0.4 * height),
            _r(0.2 * width), _r(0.2 * height), z=0.5, color=mover_color,
        )
        commands.append(DrawCommand.from_mesh(mover, state=state,
                                              label="mid-mover"))
        veil = screen_quad(0.0, _r(0.65 * height), width, _r(0.3 * height),
                           color=Vec4(0.9, 0.9, 1.0, 0.35))
        commands.append(DrawCommand.from_mesh(
            veil,
            state=RenderState.sprite_2d(
                shader=ShaderProfile(fragment_instructions=4),
                blend=BlendMode.ALPHA),
            label="veil"))
        return _frame_2d(config, commands, index)

    return FrameStream(build, config.frames)


# ---------------------------------------------------------------------------
# Hidden motion under cover: the EVR-vs-RE adversary
# ---------------------------------------------------------------------------

def hidden_motion_stream(config: GPUConfig, seed: int = 0) -> FrameStream:
    """Sprites jittering every frame underneath a full-width opaque
    cover, plus one mover straddling the cover's edge so part of its
    motion is visible: baseline RE sees changed signatures in all the
    covered tiles and re-renders them; EVR's visibility prediction must
    skip exactly the covered ones — and only those — in every frame."""
    rng = random.Random(seed)
    width = float(config.screen_width)
    height = float(config.screen_height)
    band = _r(0.3 * height)
    band_top = height - band
    layers = [
        Layer2D(
            name="backdrop",
            sprites=[SpriteSpec(center=Vec2(width / 2.0, height / 2.0),
                                size=Vec2(width, height),
                                color=Vec4(0.24, 0.28, 0.34, 1.0),
                                texture_id=5)],
            shader=ShaderProfile(fragment_instructions=4, texture_fetches=1,
                                 texture_id=5),
        ),
        Layer2D(
            name="statics",
            sprites=[
                SpriteSpec(
                    center=Vec2(_r(rng.uniform(0.1 * width, 0.9 * width)),
                                _r(rng.uniform(0.1 * height,
                                               0.8 * band_top))),
                    size=Vec2(_r(rng.uniform(4.0, 0.2 * width)),
                              _r(rng.uniform(4.0, 0.2 * height))),
                    color=_color(rng),
                )
                for _ in range(6)
            ],
            shader=ShaderProfile(fragment_instructions=8,
                                 texture_fetches=1),
        ),
        Layer2D(
            name="hidden-jitter",
            sprites=[
                SpriteSpec(
                    center=Vec2(_r(rng.uniform(0.1 * width, 0.9 * width)),
                                _r(band_top + band / 2.0)),
                    size=Vec2(_r(rng.uniform(4.0, 12.0)), _r(band * 0.5)),
                    color=_color(rng),
                    motion=JitterMotion(_r(0.1 * width),
                                        seed=seed * 613 + sprite_index),
                )
                for sprite_index in range(5)
            ],
        ),
        Layer2D(
            name="edge-straddler",
            sprites=[
                SpriteSpec(
                    center=Vec2(_r(0.5 * width), _r(band_top)),
                    size=Vec2(_r(0.12 * width), _r(0.6 * band)),
                    color=_color(rng),
                    motion=LinearOscillation(Vec3(_r(0.2 * width), 0.0, 0.0),
                                             period_frames=9),
                )
            ],
        ),
    ]
    scene = Scene2D(
        config.screen_width, config.screen_height, layers,
        hud=HUDSpec(panels=((0.0, band_top, width, band),)),
    )
    return scene.stream(config.frames)
