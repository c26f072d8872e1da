"""The batched numpy backend (``backend="numpy"``).

Geometry: :func:`assemble` transforms, clip-tests and culls a whole draw
command at once as ``(n, 3)`` coordinate arrays; only the survivors
become Python objects.

Raster: rasterizes a tile's *entire* display list in one shot: vertex data is
gathered into structure-of-arrays form (one Python pass over the
entries), then coverage, edge functions and barycentric interpolation
run as ``(N, tile_h, tile_w)`` array expressions — no per-fragment or
per-entry Python arithmetic.  The per-fragment buffer ops replace the
reference backend's fancy-indexed gather/scatter with whole-tile
arithmetic plus masked ``np.copyto``, which is both faster on 16x16
tiles and exactly equivalent.

Bit-identity with :mod:`repro.kernels.reference` is a hard contract
(cache entries are shared across backends): every expression below
performs the same IEEE-754 float64 operations in the same association
order as the scalar reference — e.g. interpolation stays the
left-associated ``b0*v0 + b1*v1 + b2*v2``, and the winding swap happens
in the Python gather exactly as ``rasterize_in_tile`` does it.  The
property suites in ``tests/test_kernels.py`` and
``tests/test_geometry_backends.py`` enforce this on fuzzed scenes.

The batch is computed eagerly for all entries, including ones the main
loop may later skip via hierarchical-Z (rasterization has no side
effects, so results are unaffected); the z-prepasses and the main loop
then share the one batch instead of rasterizing twice.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..geom import ScreenTriangle
from ..math3d import Mat4, Vec2
from .api import W_EPSILON, Fragments, non_finite_vertex
from .tile_geometry import pixel_centers

NAME = "numpy"


# ---------------------------------------------------------------------------
# Vertex transform and Primitive Assembly: one array pass per command
# ---------------------------------------------------------------------------

def _rows(matrix: Mat4, count: int) -> np.ndarray:
    """The first ``count`` rows of ``matrix`` as a ``(count, 4, 1, 1)``
    column block, ready to broadcast against ``(n, 3)`` coordinates."""
    return np.array(matrix.m[:4 * count]).reshape(count, 4, 1, 1)


def assemble(command, command_id: int, mvp: Mat4,
             viewport: Mat4) -> List[ScreenTriangle]:
    """:func:`repro.kernels.reference.assemble` over the whole command.

    Every ``Mat4 @ Vec4`` product becomes the reference's explicit
    left-associated sum ``m0*x + m1*y + m2*z + m3`` over ``(n, 3)``
    coordinate arrays — the same IEEE-754 operations in the same order
    (``m3 * 1.0`` is exactly ``m3``; never ``matmul``, whose BLAS
    kernels may fuse multiply-adds).  Rejection and culling are masks;
    only the survivors become Python objects, their coordinates taken
    with ``tolist()`` so they are plain ``float``s.
    """
    triangles = list(command.iter_triangles())
    state = command.state
    # The scalar reference never warns on float overflow: neither do we.
    with np.errstate(all="ignore"):
        index, packed = _transform(command, command_id, triangles, mvp,
                                   viewport, state.cull_backface)
    if index.size == 0:
        return []

    position_bytes = packed.astype("<f8", copy=False).tobytes()
    rows = packed.tolist()
    state_bytes = state.pack()
    survivors: List[ScreenTriangle] = []
    for primitive_id, source in enumerate(index.tolist()):
        vertices = triangles[source].vertices
        attributes = (vertices[0].attributes, vertices[1].attributes,
                      vertices[2].attributes)
        (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = rows[primitive_id]
        base = 72 * primitive_id
        survivors.append(ScreenTriangle(
            xy=(Vec2(x0, y0), Vec2(x1, y1), Vec2(x2, y2)),
            z=(z0, z1, z2),
            attributes=attributes,
            command_id=command_id,
            primitive_id=primitive_id,
            state=state,
            signature_bytes=b"".join((
                state_bytes,
                position_bytes[base:base + 24], attributes[0].pack(),
                position_bytes[base + 24:base + 48], attributes[1].pack(),
                position_bytes[base + 48:base + 72], attributes[2].pack(),
            )),
        ))
    return survivors


def _transform(command, command_id: int, triangles, mvp: Mat4,
               viewport: Mat4, cull_backface: bool):
    """The array half of :func:`assemble`: the surviving triangles'
    indices into ``triangles`` and their window-space ``(x, y, z)`` per
    vertex, a ``(s, 3, 3)`` float64 array."""
    positions = np.array(
        [(p.x, p.y, p.z)
         for triangle in triangles
         for p in (triangle.v0.position, triangle.v1.position,
                   triangle.v2.position)],
        dtype=np.float64,
    ).reshape(-1, 3, 3)
    x, y, z = positions[:, :, 0], positions[:, :, 1], positions[:, :, 2]
    m = _rows(mvp, 4)
    clip = m[:, 0] * x + m[:, 1] * y + m[:, 2] * z + m[:, 3]   # (4, n, 3)

    finite = np.isfinite(clip).all(axis=(0, 2))
    if not finite.all():
        raise non_finite_vertex(command, command_id,
                                int(np.argmin(finite)))
    w = clip[3]
    # w rejection, then frustum rejection: all three vertices outside
    # the same clip plane.
    reject = (w <= W_EPSILON).any(axis=1)
    reject |= (clip[:3] < -w).all(axis=2).any(axis=0)
    reject |= (clip[:3] > w).all(axis=2).any(axis=0)
    kept = np.flatnonzero(~reject)

    clip = clip[:, kept]
    ndc = clip[:3] / clip[3]
    v = _rows(viewport, 3)
    wx, wy, depth = (v[:, 0] * ndc[0] + v[:, 1] * ndc[1]
                     + v[:, 2] * ndc[2] + v[:, 3])          # 3 x (k, 3)
    # ``min(max(z, 0.0), 1.0)`` with Python's argument-order semantics.
    depth = np.where(0.0 > depth, 0.0, depth)
    depth = np.where(1.0 < depth, 1.0, depth)

    # Twice the signed area, as ScreenTriangle.signed_area computes it.
    area = ((wx[:, 1] - wx[:, 0]) * (wy[:, 2] - wy[:, 0])
            - (wy[:, 1] - wy[:, 0]) * (wx[:, 2] - wx[:, 0]))
    culled = area == 0.0
    if cull_backface:
        culled |= area > 0.0
    survive = np.flatnonzero(~culled)
    return kept[survive], np.stack((wx, wy, depth), axis=-1)[survive]


class BatchedTileBatch:
    """All entries of one tile, rasterized and interpolated up front.

    Interpolated attributes are stored only for *live* entries (nonzero
    coverage after the valid mask); ``_slot`` maps entry index to its
    row in those arrays.  Bounding-box binning is conservative, so dead
    entries are common and skipping their interpolation is a real win.
    All seven attribute channels (z, rgba, u, v) live in one stacked
    ``(live, h, w, 7)`` tensor so the whole tile interpolates in five
    array operations; ``fragments`` hands out channel views.
    """

    __slots__ = ("_counts", "_slot", "_mask", "_depth", "_rgba", "_u", "_v",
                 "_built")

    def __init__(self, counts: List[int], slot: Optional[np.ndarray],
                 mask: np.ndarray, interp: np.ndarray) -> None:
        # ``interp`` is channels-first (live, 7, h, w); hand out
        # channel views with the shapes the pipeline expects.  ``slot``
        # is None when every entry is live (identity mapping).
        self._counts = counts
        self._slot = slot
        self._mask = mask
        self._depth = interp[:, 0]
        self._rgba = interp[:, 1:5].transpose(0, 2, 3, 1)
        self._u = interp[:, 5]
        self._v = interp[:, 6]
        self._built: List[Optional[Fragments]] = [None] * len(counts)

    def fragments(self, index: int) -> Optional[Fragments]:
        # Memoized: under the depth-prepass variants TileJob.run asks
        # for each entry's fragments twice (depth pass + shading pass),
        # and the views are immutable, so the second request is a list
        # lookup.
        frag = self._built[index]
        if frag is not None:
            return frag
        count = self._counts[index]
        if count == 0:
            return None
        slot = self._slot
        k = index if slot is None else slot[index]
        frag = Fragments(
            mask=self._mask[index],
            count=count,
            depth=self._depth[k],
            rgba=self._rgba[k],
            u=self._u[k],
            v=self._v[k],
        )
        self._built[index] = frag
        return frag


# Row layout for the gather below: one flat (34,) float64 array per
# entry, concatenated into a single (n, 34) matrix in one shot.  Vertex
# coordinates are stored per *edge* — edges (v1,v2), (v2,v0), (v0,v1)
# in the reference order, winding already normalized — so the edge
# setup below is plain column slicing, no fancy-index copies.
#   0:3    edge start x   (v1.x, v2.x, v0.x)
#   3:6    edge end   x   (v2.x, v0.x, v1.x)
#   6:9    edge start y
#   9:12   edge end   y
#   12:19  vertex-0 attributes (z, r, g, b, a, u, v)
#   19:26  vertex-1 attributes
#   26:33  vertex-2 attributes
#   33     1/area
_DEGENERATE_ROW = np.array((0.0,) * 33 + (1.0,))

# The row is a pure function of the (immutable) triangle, so it is
# cached on the triangle itself: binning puts the same primitive in
# every tile its bounding box overlaps, and the serial scheduler keeps
# those entry objects shared, so each triangle gathers once per frame
# instead of once per tile.  ``object.__setattr__`` is needed because
# ScreenTriangle is a frozen dataclass; the attribute is set only
# inside worker processes / after pickling, so job payloads never
# carry it.
_ROW_ATTR = "_batched_row"


def _gather_row(triangle) -> np.ndarray:
    area = triangle.signed_area()
    if area == 0.0:
        return _DEGENERATE_ROW
    v0, v1, v2 = triangle.xy
    z0, z1, z2 = triangle.z
    a0, a1, a2 = triangle.attributes
    if area < 0.0:
        # Normalize winding so all edge functions are positive inside;
        # attributes follow the swapped vertex order.
        v1, v2 = v2, v1
        z1, z2 = z2, z1
        a1, a2 = a2, a1
        area = -area
    c0, c1, c2 = a0.color, a1.color, a2.color
    t0, t1, t2 = a0.uv, a1.uv, a2.uv
    return np.array((
        v1.x, v2.x, v0.x,
        v2.x, v0.x, v1.x,
        v1.y, v2.y, v0.y,
        v2.y, v0.y, v1.y,
        z0, c0.x, c0.y, c0.z, c0.w, t0.x, t0.y,
        z1, c1.x, c1.y, c1.z, c1.w, t1.x, t1.y,
        z2, c2.x, c2.y, c2.z, c2.w, t2.x, t2.y,
        1.0 / area,
    ))


def prepare_tile(entries: Sequence, x0: int, y0: int,
                 tile_width: int, tile_height: int,
                 valid: np.ndarray) -> BatchedTileBatch:
    """Gather + rasterize + interpolate the whole display list at once."""
    n = len(entries)
    if n == 0:
        return BatchedTileBatch([], np.empty(0, dtype=np.intp),
                                np.empty((0, tile_height, tile_width),
                                         dtype=bool),
                                np.empty((0, 7, tile_height, tile_width)))

    # -- gather: one flat row per entry, vertex data already in the
    #    reference backend's (possibly swapped) winding order -----------
    rows = []
    degenerate: List[int] = []
    for i, entry in enumerate(entries):
        triangle = entry.primitive
        row = getattr(triangle, _ROW_ATTR, None)
        if row is None:
            row = _gather_row(triangle)
            object.__setattr__(triangle, _ROW_ATTR, row)
        if row is _DEGENERATE_ROW:
            degenerate.append(i)
        rows.append(row)
    # Concatenating the cached (34,) rows is several times faster than
    # np.array over tuples; ``g`` is a fresh copy, so the cached rows
    # stay untouched by the in-place math below.
    g = np.concatenate(rows).reshape(n, 34)

    edge_ax = g[:, 0:3]
    edge_bx = g[:, 3:6]
    edge_ay = g[:, 6:9]
    edge_by = g[:, 9:12]

    # -- coverage: three edge functions over the pixel-center grid ------
    px, py = pixel_centers(x0, y0, tile_width, tile_height)
    grid_x = px[None, None, None, :]                      # (1, 1, 1, w)
    grid_y = py[None, None, :, None]                      # (1, 1, h, 1)
    # Edge function cross(b - a, p - a), identical term order to the
    # reference ``_edge``.
    w = ((edge_bx - edge_ax)[:, :, None, None]
         * (grid_y - edge_ay[:, :, None, None])
         - (edge_by - edge_ay)[:, :, None, None]
         * (grid_x - edge_ax[:, :, None, None]))

    # Top-left fill rule, vectorized over (n, 3) edges: inclusive (>=)
    # on top-left edges only.  ``w > 0 or (top_left and w == 0)`` is the
    # same boolean function as the reference's ``w >= 0 if top-left else
    # w > 0``, but avoids np.where's full select pass.
    top_left = ((edge_ay == edge_by) & (edge_bx < edge_ax)) \
        | (edge_by < edge_ay)
    cover = (w > 0.0) | (top_left[:, :, None, None] & (w == 0.0))
    mask = cover.all(axis=1)
    mask &= valid[None, :, :]
    if degenerate:
        mask[degenerate] = False
    counts_arr = np.count_nonzero(mask, axis=(1, 2))
    counts = counts_arr.tolist()

    # -- barycentric interpolation (left-associated, like the reference),
    #    for live entries only — per-element math is unchanged, so the
    #    subsetting cannot perturb bit-identity ------------------------
    live = np.flatnonzero(counts_arr)
    if live.size == n:
        slot = None                       # identity mapping
        wl = w
        gl = g
    else:
        slot = np.full(n, -1, dtype=np.intp)
        slot[live] = np.arange(live.size)
        wl = w[live]
        gl = g[live]
    wl *= gl[:, 33, None, None, None]
    # All seven channels in one einsum: the k-contraction runs in index
    # order with a running scalar sum, i.e. the same left-associated
    # ``b0*a0 + b1*a1 + b2*a2`` as the reference (einsum's C loop does
    # not use FMA, so the rounding matches; the cross-backend property
    # suite pins this down).
    attrs = gl[:, 12:33].reshape(-1, 3, 7)
    interp = np.einsum("lkhw,lkc->lchw", wl, attrs)

    return BatchedTileBatch(counts, slot, mask, interp)


# ---------------------------------------------------------------------------
# Per-fragment buffer ops: whole-tile arithmetic + masked copyto
# ---------------------------------------------------------------------------

def depth_test(depth: np.ndarray, mask: np.ndarray,
               fragment_depth: np.ndarray,
               less_equal: bool = False) -> np.ndarray:
    """Sub-mask of fragments passing the depth comparison."""
    if less_equal:
        return mask & (fragment_depth <= depth)
    return mask & (fragment_depth < depth)


def depth_write(depth: np.ndarray, mask: np.ndarray,
                fragment_depth: np.ndarray) -> int:
    """Store depths for the masked fragments; returns the write count."""
    np.copyto(depth, fragment_depth, where=mask)
    return int(np.count_nonzero(mask))


def color_write(color: np.ndarray, mask: np.ndarray,
                rgba: np.ndarray) -> int:
    """Opaque write: replace destination color under ``mask``."""
    np.copyto(color, rgba, where=mask[:, :, None])
    return int(np.count_nonzero(mask))


def color_blend(color: np.ndarray, mask: np.ndarray,
                rgba: np.ndarray) -> int:
    """Standard alpha blending: ``src*a + dst*(1-a)`` under ``mask``."""
    alpha = rgba[:, :, 3:4]
    blended = rgba * alpha + color * (1.0 - alpha)
    blended[:, :, 3] = np.maximum(color[:, :, 3], rgba[:, :, 3])
    np.copyto(color, blended, where=mask[:, :, None])
    return int(np.count_nonzero(mask))


def layer_write(layers: np.ndarray, mask: np.ndarray, layer: int) -> int:
    """Record ``layer`` for the masked (visible, opaque) fragments."""
    np.copyto(layers, np.int32(layer), where=mask)
    return int(np.count_nonzero(mask))


def overdraw_update(pending: np.ndarray, opaque_mask: np.ndarray,
                    translucent_mask: np.ndarray) -> int:
    """Advance the per-pixel overshading counters for one blend."""
    overdrawn = int((pending * opaque_mask).sum())
    np.copyto(pending, np.int32(1), where=opaque_mask)
    pending += translucent_mask
    return overdrawn


def taint_set(taint: np.ndarray, mask: np.ndarray, value: bool) -> None:
    """Exact overwrite: replace the masked pixels' taint with ``value``."""
    np.copyto(taint, bool(value), where=mask)


def taint_or(taint: np.ndarray, mask: np.ndarray) -> None:
    """Blended write: add taint on the masked pixels, never clear it."""
    taint |= mask
