"""Triangles in object space and in window (screen) space.

The geometry pipeline turns :class:`Triangle` (three object-space vertices)
into :class:`ScreenTriangle` (window-space positions, depth in [0, 1], and
the metadata the binner and rasterizer need: owning draw command, opacity
and whether the primitive writes the Z-buffer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from ..math3d import Vec2
from .vertex import Vertex, VertexAttributes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..commands.state import RenderState

#: Scalar attributes the rasterizer interpolates per primitive, for the
#: timing model (the paper's rasterizer processes 16 per cycle): 3
#: position scalars + 4 color + 2 uv + 3 normal.
INTERPOLATED_ATTRIBUTES = 12


@dataclass(frozen=True)
class Triangle:
    """An object-space triangle, counter-clockwise front-facing."""

    v0: Vertex
    v1: Vertex
    v2: Vertex

    @property
    def vertices(self) -> Tuple[Vertex, Vertex, Vertex]:
        return (self.v0, self.v1, self.v2)

    def pack(self) -> bytes:
        """Byte encoding of all object-space vertex data."""
        return self.v0.pack() + self.v1.pack() + self.v2.pack()


@dataclass(frozen=True)
class ScreenTriangle:
    """A window-space triangle ready for binning and rasterization.

    Attributes:
        xy: three window-space (x, y) positions in pixels.
        z: three window-space depths in [0, 1] (0 = near plane).
        attributes: the three vertices' interpolatable attributes.
        command_id: index of the draw command that produced the triangle.
        primitive_id: index of the triangle among the *surviving*
            (not culled) triangles of its draw command, restarting at 0
            for every command.
        state: the owning command's render state (travels with the
            primitive through the Parameter Buffer, as in hardware).
    """

    xy: Tuple[Vec2, Vec2, Vec2]
    z: Tuple[float, float, float]
    attributes: Tuple[VertexAttributes, VertexAttributes, VertexAttributes]
    command_id: int
    primitive_id: int
    state: "RenderState"

    @property
    def writes_z(self) -> bool:
        """True for WOZ primitives (depth-test + depth-write)."""
        return self.state.writes_z

    @property
    def opaque(self) -> bool:
        """True when fragments fully replace what is behind them."""
        return self.state.opaque

    @property
    def z_near(self) -> float:
        """Depth of the closest vertex — the paper's conservative bound.

        A WOZ primitive is predicted occluded in a tile only when even its
        closest point is farther than the tile's previous-frame FVP.
        """
        return min(self.z)

    @property
    def z_far(self) -> float:
        """Depth of the farthest vertex."""
        return max(self.z)

    @property
    def z_centroid(self) -> float:
        """Mean vertex depth (the aggressive prediction-point ablation)."""
        return sum(self.z) / 3.0

    def signed_area(self) -> float:
        """Twice the signed area; positive for counter-clockwise winding
        in a y-down window coordinate system.
        """
        a, b, c = self.xy
        return (b - a).cross(c - a)

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """(min_x, min_y, max_x, max_y) in window coordinates."""
        xs = (self.xy[0].x, self.xy[1].x, self.xy[2].x)
        ys = (self.xy[0].y, self.xy[1].y, self.xy[2].y)
        return (min(xs), min(ys), max(xs), max(ys))


def tile_span(
    bbox: Tuple[float, float, float, float],
    tile_w: int, tile_h: int, tiles_x: int, tiles_y: int,
) -> Tuple[int, int, int, int]:
    """``(first_tx, first_ty, last_tx, last_ty)`` of the tiles a window-
    space bounding box overlaps, clamped to the screen; the span is
    empty (``last < first`` on some axis) when the box is off screen.
    Binning by it is conservative, as in hardware: a listed tile the
    triangle misses rasterizes to zero fragments."""
    min_x, min_y, max_x, max_y = bbox
    return (
        max(0, int(min_x) // tile_w),
        max(0, int(min_y) // tile_h),
        min(tiles_x - 1, int(max_x) // tile_w),
        min(tiles_y - 1, int(max_y) // tile_h),
    )


def tile_spans(
    bboxes: np.ndarray,
    tile_w: int, tile_h: int, tiles_x: int, tiles_y: int,
) -> np.ndarray:
    """:func:`tile_span` of every row of an ``(n, 4)`` bounding-box
    array, as an ``(n, 4)`` int64 array.

    The boxes are clipped in float to one tile beyond the screen before
    the int64 cast: ``int()`` never wraps but int64 does, and a far
    off-screen coordinate must still truncate to an off-screen tile.
    Clipping there moves no span: every value below ``-tile`` already
    truncates to tile ``-1`` or less, every value above the last tile's
    edge to ``tiles`` or more.
    """
    lower = np.array([-tile_w, -tile_h, -tile_w, -tile_h], dtype=np.float64)
    upper = np.array([tiles_x * tile_w, tiles_y * tile_h,
                      tiles_x * tile_w, tiles_y * tile_h], dtype=np.float64)
    pixels = np.trunc(np.clip(bboxes, lower, upper)).astype(np.int64)
    spans = pixels // np.array([tile_w, tile_h, tile_w, tile_h])
    np.maximum(spans[:, :2], 0, out=spans[:, :2])
    np.minimum(spans[:, 2:], (tiles_x - 1, tiles_y - 1), out=spans[:, 2:])
    return spans
