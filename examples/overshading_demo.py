#!/usr/bin/env python3
"""Overshading reduction demo (the paper's Section IV-A / Figure 8).

Builds a deliberately bad scene — opaque boxes submitted back-to-front,
the worst case for the Early Depth Test — and shows how EVR's Algorithm-1
reordering recovers almost all of the oracle's (perfect Z-prepass)
fragment savings without any extra render pass.

Usage::

    python examples/overshading_demo.py [num_boxes] [frames]
"""

import sys

from repro import GPU, GPUConfig
from repro.harness import format_table
from repro.math3d import Vec3, Vec4
from repro.scenes import BoxSpec, LinearOscillation, Scene3D
from repro.techniques import BASELINE, EVR_REORDER_ONLY, ORACLE


def build_scene(config, num_boxes):
    """A column of boxes stacked along the view axis: each nearer box
    fully hides the one behind it, submitted farthest-first."""
    boxes = []
    for index in range(num_boxes):
        # Boxes shrink with distance so every one is fully occluded by
        # the next nearer one; slight motion defeats tile skipping.
        distance = 2.0 * index
        size = 5.0 - 2.5 * index / num_boxes
        boxes.append(
            BoxSpec(
                center=Vec3(0.0, 2.0, -distance),
                size=Vec3(size, size, 0.5),
                color=Vec4(1.0 - index / num_boxes, 0.2,
                           index / num_boxes, 1.0),
                motion=LinearOscillation(Vec3(0.2, 0.0, 0.0),
                                         period_frames=16,
                                         phase=index),
                name=f"slab{index}",
            )
        )
    return Scene3D(
        config.screen_width,
        config.screen_height,
        boxes=boxes,
        ground_size=0.0,            # no ground: isolate the slabs
        hud=None,
        translucents=(),
        camera_eye=Vec3(0.0, 2.0, 10.0),
        camera_target=Vec3(0.0, 2.0, 0.0),
        draw_order="back_to_front",  # worst case on purpose
    )


def main() -> None:
    num_boxes = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    frames = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    config = GPUConfig.default(frames=frames)
    scene = build_scene(config, num_boxes)
    stream = scene.stream(frames)

    rows = []
    for mode, label in (
        (BASELINE, "baseline (early-Z only)"),
        (EVR_REORDER_ONLY, "EVR reordering"),
        (ORACLE, "oracle (perfect Z prepass)"),
    ):
        result = GPU(config, mode).render_stream(stream)
        stats = result.total_stats()
        rows.append([
            label,
            result.shaded_fragments_per_pixel(),
            stats.early_z_kills,
            stats.fragments_shaded,
        ])

    print(format_table(
        ["configuration", "shaded frags/px", "early-Z kills",
         "fragments shaded"],
        rows,
        title=(f"{num_boxes} mutually-occluding slabs, submitted "
               "back-to-front"),
    ))
    baseline, evr, oracle = (row[1] for row in rows)
    gap = (baseline - evr) / (baseline - oracle) if baseline > oracle else 1.0
    print(f"\nEVR removed {(1 - evr / baseline) * 100:.1f}% of shaded "
          f"fragments — {gap * 100:.0f}% of what a perfect oracle could "
          "(paper: 20% average reduction, 'close to the oracle').")


if __name__ == "__main__":
    main()
