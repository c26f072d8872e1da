"""The benchmark's workloads: what each one renders and how it is sized.

Two kinds of workload exist.  A *stream* workload renders one seeded
frame stream on one GPU, frame after frame (a closed loop with a single
client).  The *sweep* workload runs every Table III app under several
techniques through :class:`repro.harness.runner.SuiteRunner` with a
process pool and a fresh disk cache, then reads every cell back from that
cache.

The program under test only ever sees the generated inputs: scenes are
built here from the public scene classes.  The seed paints the stream
workloads' scenes; it never changes the amount of simulated work, so
runs with different seeds measure the same work and differ only by
noise.  The sweep's inputs are the fixed Table III suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Tuple

from repro.commands import FrameStream, ShaderProfile
from repro.config import GPUConfig
from repro.math3d import Vec3, Vec4
from repro.scenes import benchmark_names
from repro.scenes.motion import CircularMotion, LinearOscillation, StaticMotion
from repro.scenes.scene import HUDSpec
from repro.scenes.scene3d import BoxSpec, Scene3D, TranslucentSpec
from repro.scenes.stress import depth_stack_stream


class _Lockstep:
    """Two generators fed the same calls: one draws the scene's layout
    and motion, the other its paint.  Seeded alike they are one
    generator, which is how seed 105 reproduces the legacy scene."""

    def __init__(self, layout_seed: int, paint_seed: int):
        self._layout = random.Random(layout_seed)
        self._paint = random.Random(paint_seed)

    def layout(self, low: float, high: float) -> float:
        self._paint.uniform(low, high)
        return self._layout.uniform(low, high)

    def paint(self, low: float, high: float) -> float:
        self._layout.uniform(low, high)
        return self._paint.uniform(low, high)

    def chance(self) -> float:
        self._paint.random()
        return self._layout.random()

    def color(self, alpha: float = 1.0) -> Vec4:
        return Vec4(*(0.2 + 0.8 * self.paint(0.0, 1.0) for _ in range(3)),
                    alpha)


#: The layout seed of the legacy ``scaled`` preset.
LEGACY_SCALED_SEED = 105


def scaled_world_stream(config: GPUConfig, seed: int,
                        num_boxes: int = 96) -> FrameStream:
    """The geometry-scaled 3D world of ``repro bench --preset scaled``.

    The Table III world-scene recipe (a wall with two hidden movers,
    ``num_boxes`` props of which about 30% oscillate, two orbiting
    translucent quads, a 20% HUD) with the legacy preset's layout and
    motion.  The seed draws the colors, so every seed does the same
    simulated work on different pixels; seed 105 renders exactly the
    legacy preset.
    """
    rng = _Lockstep(LEGACY_SCALED_SEED, seed)
    spread = 9.0
    boxes: List[BoxSpec] = [
        BoxSpec(center=Vec3(3.5, 2.2, 6.0), size=Vec3(8.0, 4.4, 0.8),
                color=Vec4(0.55, 0.5, 0.45, 1.0), name="wall"),
    ]
    for mover in range(2):
        boxes.append(BoxSpec(
            center=Vec3(3.5 + 1.1 * (mover % 3 - 1), 1.0,
                        2.8 - 0.7 * (mover // 3)),
            size=Vec3(1.0, 1.2, 1.0),
            color=rng.color(),
            motion=LinearOscillation(Vec3(0.9, 0.0, 0.4),
                                     period_frames=14 + 3 * mover,
                                     phase=rng.layout(0, 6.28)),
            name=f"hidden{mover}",
        ))
    for index in range(num_boxes):
        center = Vec3(rng.layout(-spread, spread), rng.layout(1.0, 2.6),
                      rng.layout(-spread, spread))
        size = Vec3(rng.layout(2.0, 4.5), rng.layout(2.0, 5.5),
                    rng.layout(2.0, 4.5))
        if rng.chance() < 0.3:
            motion = LinearOscillation(
                Vec3(rng.layout(1.0, 3.0), 0.0, rng.layout(-2.0, 2.0)),
                period_frames=20 + 4 * (index % 5),
                phase=rng.layout(0, 6.28),
            )
        else:
            motion = StaticMotion()
        boxes.append(BoxSpec(center=center, size=size, color=rng.color(),
                             motion=motion, name=f"box{index}"))
    translucents = [
        TranslucentSpec(
            center=Vec3(rng.layout(-spread, spread), 2.5,
                        rng.layout(-spread, spread)),
            size=rng.layout(2.0, 4.0),
            color=rng.color(alpha=0.45),
            motion=CircularMotion(1.5, period_frames=28 + 6 * effect),
        )
        for effect in range(2)
    ]
    width = float(config.screen_width)
    height = float(config.screen_height)
    band = 0.2 * height / 2.0
    scene = Scene3D(
        config.screen_width, config.screen_height,
        boxes=boxes, translucents=translucents,
        hud=HUDSpec(panels=((0.0, 0.0, width, band),
                            (0.0, height - band, width, band))),
        camera_eye=Vec3(0.0, 5.0, 13.0),
        world_shader=ShaderProfile(vertex_instructions=48,
                                   fragment_instructions=18,
                                   texture_fetches=2, texture_id=1),
    )
    return scene.stream(config.frames)


@dataclass(frozen=True)
class StreamWorkload:
    """One seeded frame stream under one technique.

    ``frames`` is the length of one pass over the stream.  A run renders
    passes back to back, each on a fresh GPU, so every pass repeats the
    same outputs.  ``counterpart`` is the technique the stream is
    compared against for the EVR/baseline ratios.
    """

    name: str
    technique: str
    counterpart: str
    why: str
    build: Callable[[GPUConfig, int], FrameStream]
    seed_role: str = "--seed draws the scene's colors"
    width: int = 192
    height: int = 160
    frames: int = 12

    kind = "stream"
    loop = "closed loop, 1 client: frames rendered back to back"

    def config(self) -> GPUConfig:
        return GPUConfig(screen_width=self.width, screen_height=self.height,
                         frames=self.frames)

    def stream(self, seed: int) -> FrameStream:
        return self.build(self.config(), seed)

    def scaled(self, width: int, height: int, frames: int) -> "StreamWorkload":
        return replace(self, width=width, height=height, frames=frames)


@dataclass(frozen=True)
class SweepWorkload:
    """Every Table III app under each of ``modes``."""

    name: str
    why: str
    apps_3d: int = 6
    apps_2d: int = 14
    modes: Tuple[str, ...] = ("baseline", "re", "evr")
    width: int = 96
    height: int = 80
    frames: int = 6
    jobs: int = 2

    kind = "sweep"
    seed_role = ("none: the inputs are the fixed Table III suite, so one "
                 "reference serves every seed")
    loop = ("closed loop: one cold pooled sweep at a time, each followed "
            "by a warm pass over the same cells")

    def config(self) -> GPUConfig:
        return GPUConfig(screen_width=self.width, screen_height=self.height,
                         frames=self.frames)

    def apps(self, seed: int) -> List[str]:
        """The first ``apps_3d`` 3D and ``apps_2d`` 2D apps of the suite,
        in suite order whatever the seed: the pool hands out cells in
        chunks, so another order would change the sweep's makespan."""
        return (list(benchmark_names("3D"))[:self.apps_3d]
                + list(benchmark_names("2D"))[:self.apps_2d])

    def cells(self, seed: int) -> List[Tuple[str, str]]:
        return [(app, mode) for app in self.apps(seed) for mode in self.modes]

    def scaled(self, width: int, height: int, frames: int,
               apps_3d: int, apps_2d: int) -> "SweepWorkload":
        return replace(self, width=width, height=height, frames=frames,
                       apps_3d=apps_3d, apps_2d=apps_2d)


WORKLOADS: Dict[str, object] = {
    workload.name: workload
    for workload in (
        StreamWorkload(
            name="scaled-evr", technique="evr", counterpart="baseline",
            why=("geometry plus the EVR/RE binning hooks take ~42% of frame "
                 "time and RE skips about half the tiles: exercises "
                 "geometry, the core/hw hooks and tile skipping"),
            build=scaled_world_stream,
            seed_role=("--seed draws the scene's colors; 105 renders the "
                       "legacy `repro bench --preset scaled` scene"),
        ),
        StreamWorkload(
            name="overdraw-baseline", technique="baseline",
            counterpart="evr",
            why=("12 full-screen depth layers back to front, nothing "
                 "skipped: raster execute, kernels and memsys dominate; the "
                 "bypass case for geometry and EVR-hook changes"),
            build=depth_stack_stream, frames=16,
        ),
        SweepWorkload(
            name="suite-sweep",
            why=("cold 2-worker SuiteRunner sweep then a warm pass: the only "
                 "workload where pool fan-out, pickling, metrics distillation "
                 "and the run cache work"),
        ),
    )
}
