#!/usr/bin/env python3
"""Walkthrough of the paper's Figure 3: FVP computation in hybrid tiles.

Reconstructs both Figure 3 scenarios on the tile's buffers as the
raster jobs hold them — a Layer Buffer and a Z-buffer array and the ZR
register — written with the per-fragment ops of the scalar kernel
backend, and shows how the FVP-type and FVP depth are derived, then
demonstrates the Section III-C prediction rules against the stored FVP.

Usage::

    python examples/fvp_walkthrough.py
"""

import numpy as np

from repro.core import compute_fvp, predict_occluded
from repro.hw import FVPType
from repro.kernels import reference as ops


def banner(text: str) -> None:
    print(f"\n=== {text} ===")


def full():
    return np.ones((4, 4), dtype=bool)


def halves():
    left = np.zeros((4, 4), dtype=bool)
    left[:, :2] = True
    return left, ~left


def cleared_tile():
    """A cleared 4x4 tile: layer 0, ZR -1 and the far depth 1.0."""
    return np.zeros((4, 4), dtype=np.int32), -1, np.ones((4, 4))


def scenario_3a() -> None:
    """Four NWOZ layers; layers 3 and 4 are visible, so L_far = 3 and
    the FVP is a layer identifier."""
    banner("Figure 3a: NWOZ layers only")
    layers, zr_register, depth = cleared_tile()

    ops.layer_write(layers, full(), 1)
    print("layer 1 drawn (covers tile)   -> L_far =", layers.min())
    ops.layer_write(layers, full(), 2)
    print("layer 2 drawn (covers layer 1)-> L_far =", layers.min())
    left, right = halves()
    ops.layer_write(layers, left, 3)
    ops.layer_write(layers, right, 4)
    print("layers 3+4 drawn (split tile) -> L_far =", layers.min())

    entry = compute_fvp(layers, zr_register, depth)
    assert entry.fvp_type is FVPType.NWOZ
    print(f"FVP: type={entry.fvp_type.name}, value=L_far={entry.value}")

    print("\nNext-frame predictions against this FVP:")
    for layer in (1, 2, 3, 4):
        occluded = predict_occluded(entry, writes_z=False, z_near=0.0,
                                    layer=layer)
        print(f"  primitive with layer {layer}: "
              f"{'OCCLUDED' if occluded else 'visible'}")


def scenario_3b() -> None:
    """A WOZ batch with depths 0 / 0.5 / 0.9: the depth-0.9 geometry is
    fully hidden, the farthest *visible* point is WOZ geometry at depth
    0.5, so the FVP is Z_far = 0.5."""
    banner("Figure 3b: WOZ geometry (FVP is a Z value)")
    layers, zr_register, depth = cleared_tile()
    left, right = halves()

    def draw_woz(mask, z, zr_register):
        plane = np.full((4, 4), z)
        passing = ops.depth_test(depth, mask, plane)
        ops.depth_write(depth, passing, plane)
        # The ZR register holds the layer of the last visible WOZ
        # fragment.
        if ops.layer_write(layers, passing, 1):
            zr_register = 1
        print(f"  WOZ fragments at z={z}: {int(passing.sum())} visible")
        return zr_register

    print("drawing WOZ batch (all layer 1):")
    zr_register = draw_woz(full(), 0.9, zr_register)
    zr_register = draw_woz(right, 0.5, zr_register)
    zr_register = draw_woz(left, 0.0, zr_register)

    l_far = layers.min()
    print("Layer Buffer L_far =", l_far, "| ZR register =", zr_register,
          "-> FVP type is WOZ" if zr_register == l_far else "NWOZ")
    entry = compute_fvp(layers, zr_register, depth)
    assert entry.fvp_type is FVPType.WOZ
    print(f"FVP: type={entry.fvp_type.name}, value=Z_far={entry.value}")

    print("\nNext-frame predictions against this FVP:")
    for z_near in (0.25, 0.5, 0.75):
        occluded = predict_occluded(entry, writes_z=True, z_near=z_near,
                                    layer=1)
        print(f"  WOZ primitive with Z_near={z_near}: "
              f"{'OCCLUDED' if occluded else 'visible'}")
    print("  NWOZ primitive (any position): visible "
          "(a Z-type FVP never predicts NWOZ geometry occluded)")


def main() -> None:
    scenario_3a()
    scenario_3b()
    print("\nDone: these are exactly the decisions the Polygon List "
          "Builder makes per (primitive, tile) during binning.")


if __name__ == "__main__":
    main()
