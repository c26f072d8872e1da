"""Hybrid 3D scenes: WOZ geometry under NWOZ background/HUD layers.

A :class:`Scene3D` mimics the structure of the paper's 3D benchmarks
(Section III-C "Hybrid Scenes"):

1. a full-screen NWOZ background drawn first (skybox/backdrop, painter's
   algorithm);
2. depth-tested, depth-writing world geometry — a ground grid plus boxes,
   each its own draw command, optionally submitted back-to-front (the
   order that maximizes overshading and that EVR's reordering fixes);
3. translucent NWOZ effects, blended back-to-front;
4. a static opaque NWOZ HUD drawn last with a screen-space projection —
   the overlay under which moving world geometry hides, the exact case
   where EVR-aided RE beats baseline RE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..commands import (
    BlendMode,
    DrawCommand,
    Frame,
    FrameStream,
    RenderState,
    ShaderProfile,
)
from ..errors import SceneError
from ..geom import Mesh, box_mesh, box_meshes, grid_mesh, quad, screen_quad
from ..math3d import Mat4, Vec3, Vec4, look_at, orthographic, perspective
from .motion import Motion, StaticMotion
from .scene import HUDSpec


@dataclass(frozen=True)
class BoxSpec:
    """One WOZ prop: an axis-aligned box with optional motion."""

    center: Vec3
    size: Vec3
    color: Vec4 = Vec4(0.8, 0.8, 0.8, 1.0)
    motion: Motion = StaticMotion()
    texture_id: int = 1
    name: str = "box"


@dataclass(frozen=True)
class TranslucentSpec:
    """One NWOZ effect quad: a blended vertical billboard."""

    center: Vec3
    size: float
    color: Vec4 = Vec4(1.0, 0.8, 0.2, 0.5)
    motion: Motion = StaticMotion()


class Scene3D:
    """An animated hybrid 3D scene producing a :class:`FrameStream`."""

    def __init__(
        self,
        width: int,
        height: int,
        boxes: Sequence[BoxSpec],
        translucents: Sequence[TranslucentSpec] = (),
        hud: Optional[HUDSpec] = None,
        ground_size: float = 30.0,
        ground_divisions: int = 10,
        ground_color: Vec4 = Vec4(0.35, 0.4, 0.3, 1.0),
        background_color: Vec4 = Vec4(0.4, 0.6, 0.9, 1.0),
        camera_eye: Vec3 = Vec3(0.0, 8.0, 14.0),
        camera_target: Vec3 = Vec3(0.0, 0.0, 0.0),
        camera_orbit_period: float = 0.0,
        draw_order: str = "back_to_front",
        world_shader: ShaderProfile = ShaderProfile(
            vertex_instructions=16, fragment_instructions=18,
            texture_fetches=2, texture_id=1,
        ),
    ):
        """
        Args:
            width: screen width in pixels.
            height: screen height in pixels.
            boxes: WOZ props, each becoming one draw command.
            translucents: blended NWOZ effect quads.
            hud: optional static opaque overlay.
            ground_size: side length of the square ground grid (0: none).
            ground_divisions: grid subdivision per axis.
            ground_color: flat ground color.
            background_color: full-screen backdrop color.
            camera_eye: camera position (start of orbit when orbiting).
            camera_target: look-at point.
            camera_orbit_period: frames per full orbit around the target
                (0 = static camera; a moving camera defeats Rendering
                Elimination everywhere except under the HUD, as in the
                paper's *300*/*mst*).
            draw_order: submission order of the WOZ commands:
                ``"back_to_front"`` (worst case for Early-Z, the order
                many engines accidentally produce), ``"front_to_back"``
                (best case) or ``"submission"`` (as listed).
            world_shader: cost profile of the 3D geometry's shaders.
        """
        if draw_order not in ("back_to_front", "front_to_back", "submission"):
            raise SceneError(f"unknown draw order {draw_order!r}")
        self.width = width
        self.height = height
        self.boxes = list(boxes)
        self.translucents = list(translucents)
        self.hud = hud
        self.ground_size = ground_size
        self.ground_divisions = ground_divisions
        self.ground_color = ground_color
        self.background_color = background_color
        self.camera_eye = camera_eye
        self.camera_target = camera_target
        self.camera_orbit_period = camera_orbit_period
        self.draw_order = draw_order
        self.world_shader = world_shader

        # Static meshes, built on the first frame that draws them and
        # reused after: the backdrop, the ground grid and the HUD, each
        # keyed by what it is built from, and each StaticMotion box,
        # keyed by identity (the cache holds the spec, so the id stays
        # its own).
        self._static: Dict[str, Tuple[object, object]] = {}
        self._box_meshes: Dict[int, Tuple[BoxSpec, Mesh]] = {}

        self._screen_projection = orthographic(
            0.0, float(width), float(height), 0.0, -1.0, 1.0
        )
        self._projection = perspective(
            math.radians(60.0), width / height, 0.5, 200.0
        )

    # -- camera ------------------------------------------------------------

    def eye(self, frame: int) -> Vec3:
        """Camera position at ``frame`` (orbit or static)."""
        if self.camera_orbit_period <= 0.0:
            return self.camera_eye
        base = self.camera_eye - self.camera_target
        radius = math.hypot(base.x, base.z)
        start_angle = math.atan2(base.z, base.x)
        angle = start_angle + 2.0 * math.pi * frame / self.camera_orbit_period
        return Vec3(
            self.camera_target.x + radius * math.cos(angle),
            self.camera_eye.y,
            self.camera_target.z + radius * math.sin(angle),
        )

    # -- frame assembly -------------------------------------------------------

    def build_frame(self, index: int) -> Frame:
        eye = self.eye(index)
        view = look_at(eye, self.camera_target, Vec3(0.0, 1.0, 0.0))
        commands: List[DrawCommand] = [self._background_command()]
        commands.extend(self._world_commands(index, eye))
        commands.extend(self._translucent_commands(index, eye))
        hud_command = self._hud_command()
        if hud_command is not None:
            commands.append(hud_command)
        return Frame(commands, view=view, projection=self._projection,
                     index=index)

    def stream(self, num_frames: int) -> FrameStream:
        return FrameStream(self.build_frame, num_frames)

    # -- command builders -------------------------------------------------------

    def _cached(self, name: str, key: object,
                build: Callable[[], object]):
        """``build()``, built again only when ``key`` changes."""
        cached = self._static.get(name)
        if cached is None or cached[0] != key:
            cached = (key, build())
            self._static[name] = cached
        return cached[1]

    def _background_command(self) -> DrawCommand:
        mesh = self._cached(
            "background", (self.width, self.height, self.background_color),
            lambda: screen_quad(0, 0, self.width, self.height,
                                color=self.background_color))
        return DrawCommand.from_mesh(
            mesh,
            state=RenderState.sprite_2d(
                shader=ShaderProfile(fragment_instructions=3,
                                     texture_fetches=1, texture_id=6)
            ),
            label="background",
            view=Mat4.identity(),
            projection=self._screen_projection,
        )

    def _world_commands(self, index: int, eye: Vec3) -> List[DrawCommand]:
        state = RenderState.opaque_3d(shader=self.world_shader)
        entries: List[tuple] = []
        if self.ground_size > 0.0:
            key = (self.ground_size, self.ground_divisions,
                   self.ground_color)
            entries.append((Vec3(0.0, 0.0, 0.0),
                            self._cached("ground", key,
                                         lambda: _grid_ground(*key)),
                            "ground"))
        moving: List[Tuple[int, Vec3, BoxSpec]] = []
        for box in self.boxes:
            center = box.center + box.motion.offset(index)
            mesh = None
            if isinstance(box.motion, StaticMotion):
                cached = self._box_meshes.get(id(box))
                if cached is None:
                    cached = (box, box_mesh(center, box.size, box.color))
                    self._box_meshes[id(box)] = cached
                mesh = cached[1]
            else:
                moving.append((len(entries), center, box))
            entries.append((center, mesh, box.name))
        if moving:
            # Every moving box in one array pass, 12 triangles each.
            meshes = box_meshes([tuple(center) for _, center, _ in moving],
                                [tuple(box.size) for _, _, box in moving],
                                [tuple(box.color) for _, _, box in moving])
            for number, (slot, center, box) in enumerate(moving):
                entries[slot] = (center, meshes[12 * number:12 * number + 12],
                                 box.name)

        if self.draw_order == "back_to_front":
            entries.sort(key=lambda item: -_distance(item[0], eye))
        elif self.draw_order == "front_to_back":
            entries.sort(key=lambda item: _distance(item[0], eye))

        return [
            DrawCommand.from_mesh(mesh, state=state, label=name)
            for (_, mesh, name) in entries
        ]

    def _translucent_commands(self, index: int, eye: Vec3) -> List[DrawCommand]:
        if not self.translucents:
            return []
        state = RenderState.translucent_3d(
            shader=ShaderProfile(fragment_instructions=8,
                                 texture_fetches=1, texture_id=4)
        )
        placed = []
        for effect in self.translucents:
            center = effect.center + effect.motion.offset(index)
            placed.append((center, effect))
        placed.sort(key=lambda item: -_distance(item[0], eye))
        commands = []
        for center, effect in placed:
            half = effect.size / 2.0
            mesh = quad(
                Vec3(center.x - half, center.y - half, center.z),
                Vec3(effect.size, 0.0, 0.0),
                Vec3(0.0, effect.size, 0.0),
                effect.color,
            )
            commands.append(
                DrawCommand.from_mesh(mesh, state=state, label="effect")
            )
        return commands

    def _hud_command(self) -> Optional[DrawCommand]:
        if self.hud is None or not self.hud.panels:
            return None

        def build():
            layer = self.hud.build_layer()
            # HUDs are static by construction.
            return layer.build_mesh(0), layer.state

        mesh, state = self._cached("hud", self.hud, build)
        return DrawCommand.from_mesh(
            mesh,
            state=state,
            label="hud",
            view=Mat4.identity(),
            projection=self._screen_projection,
        )


def _distance(point: Vec3, eye: Vec3) -> float:
    return (point - eye).length()


def _grid_ground(size: float, divisions: int, color: Vec4) -> Mesh:
    """A y=0 plane grid with its normal up (+y), CCW when seen from above."""
    half = size / 2.0
    return grid_mesh(
        Vec3(-half, 0.0, -half),
        Vec3(0.0, 0.0, size),
        Vec3(size, 0.0, 0.0),
        divisions,
        divisions,
        color,
    )
