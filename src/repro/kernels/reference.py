"""The scalar reference backend (``backend="python"``).

This is the historical per-triangle and per-entry hot path, moved here
verbatim from ``repro.pipeline.geometry`` (vertex transform and
Primitive Assembly), ``repro.pipeline.rasterizer`` and the per-tile
buffer classes when the kernel seam was introduced — it defines the
bit-exact semantics every other backend must reproduce.  The pipeline
calls these functions on a tile's buffer arrays, so there is exactly
one copy of each rule.

Everything here is a pure function: objects or arrays in, objects,
arrays (or counts) out.  The only state is the caller's buffers, mutated
in place exactly where the mask selects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..geom import ScreenTriangle, Triangle
from ..math3d import Mat4, Vec2, Vec4
from .api import (
    FLOAT32_OVERFLOW,
    W_EPSILON,
    Fragments,
    attribute_overflow,
    attribute_values,
    non_finite_vertex,
)
from .tile_geometry import pixel_centers

NAME = "python"


# ---------------------------------------------------------------------------
# Vertex transform and Primitive Assembly (one draw command at a time)
# ---------------------------------------------------------------------------

def assemble(command, command_id: int, mvp: Mat4,
             viewport: Mat4) -> List[ScreenTriangle]:
    """Transform, clip-test and cull one command's triangles, one
    ``Mat4 @ Vec4`` product per vertex; returns the survivors."""
    state = command.state
    survivors: List[ScreenTriangle] = []
    for tri_index, triangle in enumerate(command.iter_triangles()):
        clip = [mvp @ v.position.to_vec4(1.0) for v in triangle.vertices]
        if not all(math.isfinite(value) for c in clip for value in c):
            raise non_finite_vertex(command, command_id, tri_index)
        screen = _transform_triangle(clip, viewport, triangle, command_id,
                                     len(survivors), state)
        if screen is None or _should_cull(screen, state):
            continue
        if not all(math.isfinite(value)
                   for v in (*screen.xy, screen.z) for value in v):
            raise non_finite_vertex(command, command_id, tri_index, "window")
        if any(math.isfinite(value) and abs(value) >= FLOAT32_OVERFLOW
               for attributes in screen.attributes
               for value in attribute_values(attributes)):
            raise attribute_overflow(command, command_id, tri_index)
        survivors.append(screen)
    return survivors


def _transform_triangle(
    clip: List[Vec4],
    viewport: Mat4,
    triangle: Triangle,
    command_id: int,
    primitive_id: int,
    state,
) -> Optional[ScreenTriangle]:
    """Clip-test one triangle's clip-space vertices and transform them
    to window coordinates.

    Near-plane clipping is not implemented: triangles crossing the
    camera plane are dropped entirely (the scene generators keep
    geometry safely inside the frustum).
    """
    if any(c.w <= W_EPSILON for c in clip):
        return None
    # Frustum rejection: all vertices outside the same clip plane.
    for axis in ("x", "y", "z"):
        if all(getattr(c, axis) < -c.w for c in clip):
            return None
        if all(getattr(c, axis) > c.w for c in clip):
            return None

    window = [
        viewport @ c.perspective_divide().to_vec4(1.0)
        for c in clip
    ]
    xy = tuple(Vec2(w.x, w.y) for w in window)
    z = tuple(min(max(w.z, 0.0), 1.0) for w in window)
    attributes = tuple(v.attributes for v in triangle.vertices)

    return ScreenTriangle(
        xy=xy,  # type: ignore[arg-type]
        z=z,  # type: ignore[arg-type]
        attributes=attributes,  # type: ignore[arg-type]
        command_id=command_id,
        primitive_id=primitive_id,
        state=state,
    )


def _should_cull(screen: ScreenTriangle, state) -> bool:
    """Back-face and degeneracy culling in Primitive Assembly.

    Window coordinates are y-down, so a front-facing (counter-
    clockwise in NDC) triangle has *negative* signed area here.
    Back-face culling applies only when the command enables it;
    zero-area triangles are always dropped.
    """
    area = screen.signed_area()
    if area == 0.0:
        return True
    if state.cull_backface and area > 0.0:
        return True
    return False


# ---------------------------------------------------------------------------
# Rasterization (edge functions + barycentric interpolation)
# ---------------------------------------------------------------------------

@dataclass
class FragmentBatch:
    """All fragments a triangle produced inside one tile.

    Arrays are tile-shaped ``(tile_height, tile_width)``; ``mask`` selects
    the covered pixels and the other arrays are only meaningful there.
    """

    mask: np.ndarray        # bool     — coverage
    depth: np.ndarray       # float64  — interpolated window-space depth
    rgba: np.ndarray        # float64  — (h, w, 4) interpolated color
    u: np.ndarray           # float64  — texture coordinate
    v: np.ndarray           # float64  — texture coordinate


def _edge(ax: float, ay: float, bx: float, by: float,
          px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Edge function cross(b - a, p - a): positive on the interior side
    for a triangle with positive signed area and edges taken in order."""
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def _is_top_left(ax: float, ay: float, bx: float, by: float) -> bool:
    """Top-left fill rule for edge a->b of a clockwise (y-down) triangle."""
    return (ay == by and bx < ax) or (by < ay)


def rasterize_rows(window: Sequence, attributes: Sequence, tile_x0: int,
                   tile_y0: int, tile_width: int, tile_height: int
                   ) -> Optional[FragmentBatch]:
    """Rasterize one triangle restricted to one tile.

    Args:
        window: window-space ``(x, y, z)`` per vertex (a row of a tile
            job's columns, as Python floats).
        attributes: ``(r, g, b, a, u, v)`` per vertex.
        tile_x0: left pixel column of the tile.
        tile_y0: top pixel row of the tile.
        tile_width: tile width in pixels.
        tile_height: tile height in pixels.

    Returns:
        A :class:`FragmentBatch`, or None when no pixel center is covered
        (bounding-box binning is conservative, so this is common).
    """
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = window
    a0, a1, a2 = attributes
    # ScreenTriangle.signed_area: (v1 - v0).cross(v2 - v0).
    area = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    if area == 0.0:
        return None
    if area < 0.0:
        # Normalize winding so all edge functions are positive inside;
        # depths and attributes follow the swapped vertex order.
        x1, y1, z1, x2, y2, z2 = x2, y2, z2, x1, y1, z1
        a1, a2 = a2, a1
        area = -area

    px, py = pixel_centers(tile_x0, tile_y0, tile_width, tile_height)
    grid_x, grid_y = np.meshgrid(px, py)

    w0 = _edge(x1, y1, x2, y2, grid_x, grid_y)
    w1 = _edge(x2, y2, x0, y0, grid_x, grid_y)
    w2 = _edge(x0, y0, x1, y1, grid_x, grid_y)

    mask = np.ones((tile_height, tile_width), dtype=bool)
    for weights, (ax, ay, bx, by) in (
        (w0, (x1, y1, x2, y2)),
        (w1, (x2, y2, x0, y0)),
        (w2, (x0, y0, x1, y1)),
    ):
        if _is_top_left(ax, ay, bx, by):
            mask &= weights >= 0.0
        else:
            mask &= weights > 0.0

    if not mask.any():
        return None

    inv_area = 1.0 / area
    b0 = w0 * inv_area
    b1 = w1 * inv_area
    b2 = w2 * inv_area

    depth = b0 * z0 + b1 * z1 + b2 * z2

    rgba = np.empty((tile_height, tile_width, 4), dtype=np.float64)
    for channel in range(4):
        rgba[:, :, channel] = (
            b0 * a0[channel] + b1 * a1[channel] + b2 * a2[channel]
        )

    u = b0 * a0[4] + b1 * a1[4] + b2 * a2[4]
    v = b0 * a0[5] + b1 * a1[5] + b2 * a2[5]

    return FragmentBatch(mask=mask, depth=depth, rgba=rgba, u=u, v=v)


class ReferenceTileBatch:
    """Lazy per-entry rasterization — one :func:`rasterize_rows` call
    per ``fragments`` request, exactly like the historical inline loop
    (the prepass and main loop each rasterize their own copy)."""

    def __init__(self, window: np.ndarray, attributes: np.ndarray, x0, y0,
                 tile_width: int, tile_height: int,
                 valid: np.ndarray) -> None:
        count = len(window)
        self._window = window.tolist()
        self._attributes = attributes.tolist()
        self._x0 = np.broadcast_to(x0, (count,)).tolist()
        self._y0 = np.broadcast_to(y0, (count,)).tolist()
        self._tile_width = tile_width
        self._tile_height = tile_height
        self._valid = np.broadcast_to(valid,
                                      (count, tile_height, tile_width))

    def fragments(self, index: int) -> Optional[Fragments]:
        batch = rasterize_rows(
            self._window[index], self._attributes[index], self._x0[index],
            self._y0[index], self._tile_width, self._tile_height,
        )
        if batch is None:
            return None
        mask = batch.mask & self._valid[index]
        count = int(np.count_nonzero(mask))
        return Fragments(mask=mask, count=count, depth=batch.depth,
                         rgba=batch.rgba, u=batch.u, v=batch.v)


def prepare_tile(window: np.ndarray, attributes: np.ndarray, x0, y0,
                 tile_width: int, tile_height: int,
                 valid: np.ndarray) -> ReferenceTileBatch:
    """Build the scalar tile batch (no up-front work; see the class)."""
    return ReferenceTileBatch(window, attributes, x0, y0, tile_width,
                              tile_height, valid)


# ---------------------------------------------------------------------------
# Per-fragment buffer ops on a tile's Z-buffer, Color Buffer and Layer Buffer
# ---------------------------------------------------------------------------

def depth_test(depth: np.ndarray, mask: np.ndarray,
               fragment_depth: np.ndarray,
               less_equal: bool = False) -> np.ndarray:
    """Sub-mask of fragments passing the depth comparison.

    The default comparison is strict ``less`` (GL_LESS).  The oracle
    Z-prepass pre-fills the buffer with *final* depths, so it tests with
    ``less_equal=True`` to let the visible fragment itself pass.
    """
    passing = mask.copy()
    if less_equal:
        passing[mask] = fragment_depth[mask] <= depth[mask]
    else:
        passing[mask] = fragment_depth[mask] < depth[mask]
    return passing


def depth_write(depth: np.ndarray, mask: np.ndarray,
                fragment_depth: np.ndarray) -> int:
    """Store depths for the masked fragments; returns the write count."""
    depth[mask] = fragment_depth[mask]
    return int(np.count_nonzero(mask))


def color_write(color: np.ndarray, mask: np.ndarray,
                rgba: np.ndarray) -> int:
    """Opaque write: replace destination color under ``mask``."""
    color[mask] = rgba[mask]
    return int(np.count_nonzero(mask))


def color_blend(color: np.ndarray, mask: np.ndarray,
                rgba: np.ndarray) -> int:
    """Standard alpha blending: ``src*a + dst*(1-a)`` under ``mask``."""
    alpha = rgba[mask][:, 3:4]
    destination = color[mask]
    blended = rgba[mask] * alpha + destination * (1.0 - alpha)
    blended[:, 3] = np.maximum(destination[:, 3], rgba[mask][:, 3])
    color[mask] = blended
    return int(np.count_nonzero(mask))


def layer_write(layers: np.ndarray, mask: np.ndarray, layer: int) -> int:
    """Record ``layer`` for the masked (visible, opaque) fragments."""
    layers[mask] = layer
    return int(np.count_nonzero(mask))


def overdraw_update(pending: np.ndarray, opaque_mask: np.ndarray,
                    translucent_mask: np.ndarray) -> int:
    """Advance the per-pixel overshading counters for one blend.

    Opaque lanes overwrite their pixel exactly, so everything pending
    there was overdrawn work; translucent lanes stay pending.  Returns
    the overdrawn-fragment count (Figure 8's numerator).
    """
    overdrawn = int(pending[opaque_mask].sum())
    pending[opaque_mask] = 1
    pending[translucent_mask] += 1
    return overdrawn


def taint_set(taint: np.ndarray, mask: np.ndarray, value: bool) -> None:
    """Exact overwrite: replace the masked pixels' taint with ``value``."""
    taint[mask] = value


def taint_or(taint: np.ndarray, mask: np.ndarray) -> None:
    """Blended write: add taint on the masked pixels, never clear it."""
    taint[mask] = True
