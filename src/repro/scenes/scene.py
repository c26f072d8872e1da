"""2D layered sprite scenes (the painter's-algorithm benchmarks).

A :class:`Scene2D` is an ordered stack of :class:`Layer2D` layers drawn
bottom-to-top, exactly as mobile 2D engines do: a full-screen background,
several gameplay layers, optional translucent effect layers, and an
optional opaque HUD on top.  Every layer maps to one draw command per
frame, so layers are the unit at which the Layer Generator Table counts
"commands" — matching the paper's NWOZ layer semantics.

World coordinates are screen pixels with (0, 0) at the top-left: the
scene installs an orthographic projection that, composed with the
pipeline's y-down viewport transform, maps world (x, y) straight onto
pixel (x, y).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..commands import BlendMode, DrawCommand, Frame, FrameStream, RenderState, ShaderProfile
from ..errors import SceneError
from ..geom import Mesh, grid_meshes
from ..math3d import Mat4, Vec2, Vec4, orthographic
from .motion import Motion, StaticMotion


@dataclass(frozen=True)
class SpriteSpec:
    """One sprite: a textured quad with optional motion.

    Attributes:
        center: position in screen pixels (top-left origin).
        size: width/height in pixels.
        color: base RGBA; alpha < 1 makes the sprite translucent when its
            layer blends.
        motion: displacement over time (default static).
        texture_id: texture sampled by the fragment shader cost model.
    """

    center: Vec2
    size: Vec2
    color: Vec4 = Vec4(1.0, 1.0, 1.0, 1.0)
    motion: Motion = StaticMotion()
    texture_id: int = 0


@dataclass
class Layer2D:
    """One draw command's worth of sprites.

    Attributes:
        name: label for traces.
        sprites: quads drawn by this layer, in order.
        blend: OPAQUE for solid layers, ALPHA for translucent ones.
        shader: fragment cost profile for the whole layer.
        subdivisions: tessellation of each sprite per axis.  Real 2D
            engines batch many small quads (9-slice panels, glyph runs,
            particle quads); subdividing keeps the simulator's per-frame
            vertex load representative of traced applications.
    """

    name: str
    sprites: List[SpriteSpec] = field(default_factory=list)
    blend: BlendMode = BlendMode.OPAQUE
    shader: ShaderProfile = ShaderProfile(vertex_instructions=24)
    subdivisions: int = 2

    def build_mesh(self, frame: int) -> Mesh:
        """Every sprite's grid at ``frame``, sprite by sprite, in one
        array pass: the sprite's corner is ``(center + offset) - size /
        2.0`` at z = 0, its edges ``(size.x, 0, 0)`` and ``(0, size.y,
        0)``."""
        if not self.sprites:
            return Mesh()
        rows = np.array([
            (sprite.center.x, sprite.center.y, *sprite.motion.offset(frame),
             sprite.size.x, sprite.size.y, *sprite.color)
            for sprite in self.sprites], dtype=np.float64)
        center, offset, size = rows[:, 0:2], rows[:, 2:4], rows[:, 5:7]
        corner = np.zeros((len(rows), 3))
        corner[:, :2] = (center + offset) - size / 2.0
        edge_u = np.zeros((len(rows), 3))
        edge_u[:, 0] = size[:, 0]
        edge_v = np.zeros((len(rows), 3))
        edge_v[:, 1] = size[:, 1]
        return grid_meshes(corner, edge_u, edge_v, self.subdivisions,
                           self.subdivisions, rows[:, 7:])

    @property
    def state(self) -> RenderState:
        return RenderState.sprite_2d(shader=self.shader, blend=self.blend)


@dataclass(frozen=True)
class HUDSpec:
    """A static opaque overlay drawn last (scoreboards, control pads).

    Attributes:
        panels: (x, y, width, height) rectangles in pixels.
        color: flat panel color.
    """

    panels: Sequence[tuple] = ()
    color: Vec4 = Vec4(0.15, 0.15, 0.2, 1.0)

    def build_layer(self) -> Layer2D:
        sprites = [
            SpriteSpec(
                center=Vec2(x + w / 2.0, y + h / 2.0),
                size=Vec2(w, h),
                color=self.color,
                texture_id=7,
            )
            for (x, y, w, h) in self.panels
        ]
        return Layer2D(name="hud", sprites=sprites,
                       shader=ShaderProfile(fragment_instructions=4,
                                            texture_fetches=1, texture_id=7))


class Scene2D:
    """An animated stack of 2D layers producing a :class:`FrameStream`."""

    def __init__(
        self,
        width: int,
        height: int,
        layers: Sequence[Layer2D],
        hud: Optional[HUDSpec] = None,
    ):
        if not layers:
            raise SceneError("a 2D scene needs at least one layer")
        self.width = width
        self.height = height
        self.layers = list(layers)
        if hud is not None and hud.panels:
            self.layers.append(hud.build_layer())
        self._projection = orthographic(0.0, float(width), float(height), 0.0,
                                        -1.0, 1.0)

    def build_frame(self, index: int) -> Frame:
        commands = []
        for layer in self.layers:
            mesh = layer.build_mesh(index)
            if not len(mesh):
                continue
            commands.append(
                DrawCommand.from_mesh(mesh, state=layer.state, label=layer.name)
            )
        if not commands:
            raise SceneError("scene produced an empty frame")
        return Frame(
            commands, view=Mat4.identity(), projection=self._projection,
            index=index,
        )

    def stream(self, num_frames: int) -> FrameStream:
        return FrameStream(self.build_frame, num_frames)
