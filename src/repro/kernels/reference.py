"""The scalar reference backend (``backend="python"``).

This is the historical per-triangle and per-entry hot path, moved here
verbatim from ``repro.pipeline.geometry`` (vertex transform and
Primitive Assembly), ``repro.pipeline.rasterizer`` and the
``repro.hw.buffers`` method bodies when the kernel seam was introduced —
it defines the bit-exact semantics every other backend must reproduce.
The pipeline and the buffer classes delegate to these functions, so
there is exactly one copy of each rule.

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
from .api import W_EPSILON, Fragments, non_finite_vertex
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

    @property
    def fragment_count(self) -> int:
        return int(np.count_nonzero(self.mask))


def _edge(ax: float, ay: float, bx: float, by: float,
          px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Edge function cross(b - a, p - a): positive on the interior side
    for a triangle with positive signed area and edges taken in order."""
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def _is_top_left(ax: float, ay: float, bx: float, by: float) -> bool:
    """Top-left fill rule for edge a->b of a clockwise (y-down) triangle."""
    return (ay == by and bx < ax) or (by < ay)


def rasterize_in_tile(
    triangle: ScreenTriangle,
    tile_x0: int,
    tile_y0: int,
    tile_width: int,
    tile_height: int,
) -> Optional[FragmentBatch]:
    """Rasterize ``triangle`` restricted to one tile.

    Args:
        triangle: screen-space triangle.
        tile_x0: left pixel column of the tile.
        tile_y0: top pixel row of the tile.
        tile_width: tile width in pixels.
        tile_height: tile height in pixels.

    Returns:
        A :class:`FragmentBatch`, or None when no pixel center is covered
        (bounding-box binning is conservative, so this is common).
    """
    (v0, v1, v2) = triangle.xy
    area = triangle.signed_area()
    if area == 0.0:
        return None
    if area < 0.0:
        # Normalize winding so all edge functions are positive inside.
        v1, v2 = v2, v1
        area = -area

    px, py = pixel_centers(tile_x0, tile_y0, tile_width, tile_height)
    grid_x, grid_y = np.meshgrid(px, py)

    w0 = _edge(v1.x, v1.y, v2.x, v2.y, grid_x, grid_y)
    w1 = _edge(v2.x, v2.y, v0.x, v0.y, grid_x, grid_y)
    w2 = _edge(v0.x, v0.y, v1.x, v1.y, grid_x, grid_y)

    mask = np.ones((tile_height, tile_width), dtype=bool)
    for weights, (ax, ay, bx, by) in (
        (w0, (v1.x, v1.y, v2.x, v2.y)),
        (w1, (v2.x, v2.y, v0.x, v0.y)),
        (w2, (v0.x, v0.y, v1.x, v1.y)),
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

    # Attribute order must follow the (possibly swapped) vertex order.
    if triangle.signed_area() < 0.0:
        z0, z1, z2 = triangle.z[0], triangle.z[2], triangle.z[1]
        a0, a1, a2 = (
            triangle.attributes[0],
            triangle.attributes[2],
            triangle.attributes[1],
        )
    else:
        z0, z1, z2 = triangle.z
        a0, a1, a2 = triangle.attributes

    depth = b0 * z0 + b1 * z1 + b2 * z2

    rgba = np.empty((tile_height, tile_width, 4), dtype=np.float64)
    for channel, getter in enumerate(("x", "y", "z", "w")):
        rgba[:, :, channel] = (
            b0 * getattr(a0.color, getter)
            + b1 * getattr(a1.color, getter)
            + b2 * getattr(a2.color, getter)
        )

    u = b0 * a0.uv.x + b1 * a1.uv.x + b2 * a2.uv.x
    v = b0 * a0.uv.y + b1 * a1.uv.y + b2 * a2.uv.y

    return FragmentBatch(mask=mask, depth=depth, rgba=rgba, u=u, v=v)


class ReferenceTileBatch:
    """Lazy per-entry rasterization — one :func:`rasterize_in_tile` call
    per ``fragments`` request, exactly like the historical inline loop
    (the prepass and main loop each rasterize their own copy)."""

    def __init__(self, entries: Sequence, x0: int, y0: int,
                 tile_width: int, tile_height: int,
                 valid: np.ndarray) -> None:
        self._entries = entries
        self._x0 = x0
        self._y0 = y0
        self._tile_width = tile_width
        self._tile_height = tile_height
        self._valid = valid

    def fragments(self, index: int) -> Optional[Fragments]:
        entry = self._entries[index]
        batch = rasterize_in_tile(
            entry.primitive, self._x0, self._y0,
            self._tile_width, self._tile_height,
        )
        if batch is None:
            return None
        mask = batch.mask & self._valid
        count = int(np.count_nonzero(mask))
        return Fragments(mask=mask, count=count, depth=batch.depth,
                         rgba=batch.rgba, u=batch.u, v=batch.v)


def prepare_tile(entries: Sequence, x0: int, y0: int,
                 tile_width: int, tile_height: int,
                 valid: np.ndarray) -> ReferenceTileBatch:
    """Build the scalar tile batch (no up-front work; see the class)."""
    return ReferenceTileBatch(entries, x0, y0, tile_width, tile_height, valid)


# ---------------------------------------------------------------------------
# Per-fragment buffer ops (the moved ``repro.hw.buffers`` method bodies)
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
