#!/usr/bin/env python3
"""Build a custom scene with the public API and export rendered frames.

Shows the full authoring surface: meshes, render states, per-command
projections (3D world + screen-space HUD in one frame), an animated
camera and PPM export of the simulated framebuffer.

Usage::

    python examples/custom_scene.py [output_dir]
"""

import math
import os
import sys

from repro import (
    DrawCommand,
    Frame,
    FrameStream,
    GPU,
    GPUConfig,
    RenderState,
    ShaderProfile,
)
from repro.geom import box_mesh, grid_mesh, screen_quad
from repro.imageio import write_ppm
from repro.math3d import (
    Mat4,
    Vec3,
    Vec4,
    look_at,
    orthographic,
    perspective,
)
from repro.techniques import EVR


def build_frame(config, index):
    width, height = config.screen_width, config.screen_height
    screen_projection = orthographic(0, width, height, 0, -1, 1)
    projection = perspective(math.radians(60), width / height, 0.5, 100.0)
    angle = 2 * math.pi * index / 48.0
    eye = Vec3(10 * math.cos(angle), 6.0, 10 * math.sin(angle))
    view = look_at(eye, Vec3(0, 1, 0), Vec3(0, 1, 0))

    sky = DrawCommand.from_mesh(
        screen_quad(0, 0, width, height, color=Vec4(0.5, 0.7, 0.95, 1.0)),
        state=RenderState.sprite_2d(),
        label="sky",
        view=Mat4.identity(),
        projection=screen_projection,
    )
    ground = DrawCommand.from_mesh(
        grid_mesh(Vec3(-8, 0, -8), Vec3(0, 0, 16), Vec3(16, 0, 0), 4, 4,
                  Vec4(0.3, 0.5, 0.3, 1.0)),
        state=RenderState.opaque_3d(),
        label="ground",
    )
    tower = DrawCommand.from_mesh(
        box_mesh(Vec3(0, 2, 0), Vec3(2, 4, 2), Vec4(0.7, 0.6, 0.5, 1.0)),
        state=RenderState.opaque_3d(
            shader=ShaderProfile(fragment_instructions=20, texture_fetches=2)
        ),
        label="tower",
    )
    crate = DrawCommand.from_mesh(
        box_mesh(Vec3(3, 0.5, 2), Vec3(1, 1, 1), Vec4(0.8, 0.3, 0.2, 1.0)),
        state=RenderState.opaque_3d(),
        label="crate",
    )
    hud = DrawCommand.from_mesh(
        screen_quad(0, height - 16, width, 16, color=Vec4(0.1, 0.1, 0.15, 1)),
        state=RenderState.sprite_2d(),
        label="hud",
        view=Mat4.identity(),
        projection=screen_projection,
    )
    return Frame([sky, ground, tower, crate, hud],
                 view=view, projection=projection, index=index)


def main() -> None:
    output_dir = sys.argv[1] if len(sys.argv) > 1 else "out_frames"
    os.makedirs(output_dir, exist_ok=True)

    config = GPUConfig.default(frames=6)
    stream = FrameStream(lambda i: build_frame(config, i), config.frames)

    gpu = GPU(config, EVR)
    result = gpu.render_stream(stream)

    for frame_result in result.frames:
        path = os.path.join(output_dir, f"frame_{frame_result.index:03d}.ppm")
        write_ppm(path, frame_result.image)
        stats = frame_result.stats
        print(f"frame {frame_result.index}: "
              f"{stats.fragments_shaded} fragments shaded, "
              f"{stats.tiles_skipped}/{stats.tiles_total} tiles skipped "
              f"-> {path}")

    cycles = result.total_cycles()
    print(f"\nSteady-state cycles: geometry={cycles.geometry:.0f} "
          f"raster={cycles.raster:.0f}")
    print(f"Energy: {result.total_energy().total * 1e3:.3f} mJ")
    print(f"Frames written to {output_dir}/ (view with any PPM viewer)")


if __name__ == "__main__":
    main()
