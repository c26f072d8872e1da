"""The batched numpy backend (``backend="numpy"``).

Geometry: :func:`assemble_frame`, the backend's only geometry entry
point, transforms, clip-tests and culls a whole frame's draw commands at
once as ``(n, 3)`` coordinate arrays and returns the frame's primitive
table; no survivor becomes a Python object.

Raster: :func:`prepare_tile` rasterizes a tile's *entire* display list
in one shot from the tile job's winding-normalized columns: coverage,
edge functions, barycentrics and depth run as
``(N, tile_h, tile_w)`` array expressions — no per-fragment or
per-entry Python arithmetic.  The batch is built for all entries,
including ones the main loop may later skip via hierarchical-Z
(rasterization has no side effects, so results are unaffected); the
z-prepasses and the main loop then share the one batch instead of
rasterizing twice.  Colour and texture coordinates are
interpolated for every live entry in one einsum when the per-entry loop
first asks for an entry's fragments.  A run of opaque entries under
Early-Z asks for none: :func:`resolve_opaque_run` resolves the whole run
in one array pass, interpolating colour only at each touched pixel's
last writer and u/v only for passing fragments.

The per-fragment buffer ops replace the reference backend's
fancy-indexed gather/scatter with whole-tile arithmetic plus masked
``np.copyto``, which is both faster on 16x16 tiles and exactly
equivalent.

Bit-identity with :mod:`repro.kernels.reference` is a hard contract
(cache entries are shared across backends): every expression below
performs the same IEEE-754 float64 operations in the same association
order as the scalar reference — edge functions, the explicit
left-associated ``b0*a0 + b1*a1 + b2*a2`` of depth and of the run path,
on rows already in the vertex order the reference's winding swap gives
them (``kernels.api.normalize_winding``).  The one
einsum contracts in index order without FMA but starts its sum from
+0.0, so it would return +0.0 where all three products are -0.0 and the
reference returns -0.0; the batch recomputes every channel where that
can happen.  The property suites in
``tests/test_kernels.py``, ``tests/test_geometry_backends.py`` and
``tests/test_run_path.py`` enforce all of this on fuzzed scenes.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import PipelineError
from ..math3d import Mat4
from .api import (
    W_EPSILON,
    FrameGeometry,
    Fragments,
    OpaqueRun,
    RunFragments,
    attribute_overflow,
    attribute_table,
    frame_geometry,
    non_finite_vertex,
    overflows_float32,
)
from .tile_geometry import pixel_centers

NAME = "numpy"


# ---------------------------------------------------------------------------
# Vertex transform and Primitive Assembly: one array pass per frame
# ---------------------------------------------------------------------------

def _rows(matrix: Mat4, count: int) -> np.ndarray:
    """The first ``count`` rows of ``matrix`` as a ``(count, 4, 1, 1)``
    column block, ready to broadcast against ``(n, 3)`` coordinates."""
    return np.array(matrix.m[:4 * count]).reshape(count, 4, 1, 1)


#: A triangle's nine object-space position coordinates, vertex by vertex.
_POSITION = attrgetter(*(f"v{vertex}.position.{axis}"
                         for vertex in range(3) for axis in "xyz"))
_ATTRIBUTES = attrgetter("v0.attributes", "v1.attributes", "v2.attributes")


def _positions(triangles: Sequence) -> np.ndarray:
    """Object-space vertex positions as an ``(n, 3, 3)`` float64 array."""
    return np.fromiter(chain.from_iterable(map(_POSITION, triangles)),
                       dtype=np.float64,
                       count=9 * len(triangles)).reshape(-1, 3, 3)


def _clip(positions: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Clip-space ``(x, y, z, w)`` of every vertex, a ``(4, n, 3)`` array.

    ``matrices`` is ``(n, 4, 4)``, each triangle's MVP (or ``(1, 4, 4)``,
    one for all).  Every ``Mat4 @ Vec4`` product is the reference's
    explicit left-associated sum ``m0*x + m1*y + m2*z + m3``, so
    gathering rows per triangle changes no bit (``m3 * 1.0`` is exactly
    ``m3``; never ``matmul``, whose BLAS kernels may fuse multiply-adds).
    """
    x, y, z = positions[:, :, 0], positions[:, :, 1], positions[:, :, 2]
    m = matrices.transpose(1, 2, 0)[..., None]         # (4, 4, n, 1)
    return m[:, 0] * x + m[:, 1] * y + m[:, 2] * z + m[:, 3]


def _assemble_clip(clip: np.ndarray, viewport: Mat4,
                   cull_backface: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Primitive Assembly from clip space: the surviving triangles'
    indices and their window-space ``(x, y, z)`` per vertex, a
    ``(s, 3, 3)`` float64 array.  ``cull_backface`` is per triangle."""
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
    culled |= cull_backface[kept] & (area > 0.0)
    survive = np.flatnonzero(~culled)
    return kept[survive], np.stack((wx, wy, depth), axis=-1)[survive]


def _first_fault(commands: Sequence, owner: np.ndarray, clip: np.ndarray,
                 sources: np.ndarray, window: np.ndarray,
                 attributes: np.ndarray) -> PipelineError:
    """The reference's error for a frame with a faulty triangle: the
    first in submission order whose clip-space coordinate is not
    finite, or that survived with a non-finite window-space coordinate
    or a finite attribute beyond float32 range (within a triangle in
    that order, as the reference tests them)."""
    clip_fault = ~np.isfinite(clip).all(axis=(0, 2))
    window_fault = np.zeros_like(clip_fault)
    window_fault[sources[~np.isfinite(window).all(axis=(1, 2))]] = True
    fault = clip_fault | window_fault
    fault[sources[overflows_float32(attributes).any(axis=(1, 2))]] = True
    first = int(np.argmax(fault))
    command_id = int(owner[first])
    command = commands[command_id]
    index = first - int(np.searchsorted(owner, command_id))
    if clip_fault[first]:
        return non_finite_vertex(command, command_id, index)
    if window_fault[first]:
        return non_finite_vertex(command, command_id, index, "window")
    return attribute_overflow(command, command_id, index)


def assemble_frame(commands: Sequence, mvps: Sequence[Mat4],
                   viewport: Mat4) -> FrameGeometry:
    """Vertex shading and Primitive Assembly for a whole frame in one
    array pass: :func:`repro.kernels.reference.assemble` for every
    command, command ``i`` under ``mvps[i]``, with each triangle's MVP
    rows gathered from its command's.  Rejection and culling are masks,
    and the survivors' attributes are read into the table in one pass.
    Raises the reference's ``PipelineError`` for the frame's first
    triangle with a non-finite clip-space or surviving window-space
    coordinate, or a surviving attribute beyond float32 range."""
    counts = [len(command.triangles) for command in commands]
    triangles = [triangle for command in commands
                 for triangle in command.triangles]
    owner = np.repeat(np.arange(len(commands)), counts)
    matrices = np.array([mvp.m for mvp in mvps]).reshape(-1, 4, 4)
    cull_backface = np.array([command.state.cull_backface
                              for command in commands])
    # The scalar reference never warns on float overflow: neither do we.
    with np.errstate(all="ignore"):
        clip = _clip(_positions(triangles), matrices[owner])
        sources, window = _assemble_clip(clip, viewport,
                                         cull_backface[owner])
        attributes = attribute_table(
            chain.from_iterable(map(_ATTRIBUTES,
                                    map(triangles.__getitem__,
                                        sources.tolist()))),
            len(sources))
        if not (np.isfinite(clip).all() and np.isfinite(window).all()
                and not overflows_float32(attributes).any()):
            raise _first_fault(commands, owner, clip, sources, window,
                               attributes)
    return frame_geometry([command.state for command in commands],
                          owner[sources], window, attributes)


# ---------------------------------------------------------------------------
# Rasterization: a tile's whole display list as (N, h, w) arrays
# ---------------------------------------------------------------------------

class BatchedTileBatch:
    """All entries of one tile, rasterized up front.

    Coverage, counts and the scaled barycentrics are kept for every
    *live* entry (nonzero coverage after the valid mask; bounding-box
    binning is conservative, so dead entries are common).  ``_live``
    lists the live entries in order and ``_slot[index]`` is entry
    ``index``'s row in the per-row arrays (None when every entry is
    live), so consecutive live entries have consecutive rows.

    ``fragments(index)`` interpolates on request, in one einsum for that
    entry's row and every later row not yet done (the per-entry loop
    asks for nearly every entry, in order).
    ``fragments(slice(start, stop))`` hands a run of entries to
    :func:`resolve_opaque_run` with nothing interpolated but depth, so
    a tile that is all runs is never interpolated in full.
    """

    __slots__ = ("_counts", "_mask", "_live", "_slot", "_bary",
                 "_attributes", "_interp", "_done", "_rgba", "_built")

    def __init__(self, counts: List[int], mask: np.ndarray,
                 live: np.ndarray, slot: Optional[np.ndarray],
                 bary: np.ndarray, attributes: np.ndarray) -> None:
        self._counts = counts
        self._mask = mask                # (n, h, w) coverage ∧ validity
        self._live = live
        self._slot = slot
        self._bary = bary                # (l, 3, h, w) ``w_i / area``
        self._attributes = attributes    # (l, 3, 7) (z, r, g, b, a, u, v)
        # (l, 7, h, w) interpolated channels; rows from _done on are done.
        self._interp: Optional[np.ndarray] = None
        self._done = len(live)
        self._rgba: Optional[np.ndarray] = None
        self._built: List[Optional[Fragments]] = [None] * len(counts)

    def fragments(self, index: Union[int, slice]
                  ) -> Union[Optional[Fragments], RunFragments]:
        """Entry ``index``'s :class:`Fragments`, or for a slice of
        entries their :class:`RunFragments`."""
        if isinstance(index, slice):
            return self._run(index.start, index.stop)
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
        if k < self._done:
            self._interpolate(k)
        interp = self._interp
        frag = Fragments(
            mask=self._mask[index],
            count=count,
            depth=interp[k, 0],
            rgba=self._rgba[k],
            u=interp[k, 5],
            v=interp[k, 6],
        )
        self._built[index] = frag
        return frag

    def _interpolate(self, start: int) -> None:
        """All seven channels of rows ``start`` up to the first row
        already done, in one einsum."""
        if self._interp is None:
            self._interp = np.empty((self._bary.shape[0], 7)
                                    + self._bary.shape[2:])
            self._rgba = self._interp[:, 1:5].transpose(0, 2, 3, 1)
        stop = self._done
        bary = self._bary[start:stop]
        attributes = self._attributes[start:stop]
        interp = self._interp[start:stop]
        # The k-contraction runs in index order with a running scalar
        # sum and no FMA, i.e. the reference's ``b0*a0 + b1*a1 + b2*a2``
        # — except that the sum starts from +0.0, so where all three
        # products are -0.0 einsum returns +0.0 and the reference -0.0.
        np.einsum("lkhw,lkc->lchw", bary, attributes, out=interp)
        # A covered pixel has a positive barycentric (a triangle has at
        # most two top-left edges), so all three products are -0.0 only
        # when a vertex of the channel has its sign bit set: those
        # channels are recomputed with the explicit sum.
        signs = np.signbit(attributes)
        if signs.any():
            for k, channel in zip(*np.nonzero(signs.any(axis=1))):
                b0, b1, b2 = bary[k]
                a0, a1, a2 = attributes[k, :, channel]
                interp[k, channel] = b0 * a0 + b1 * a1 + b2 * a2
        self._done = start

    def _run(self, start: int, stop: int) -> RunFragments:
        live = self._live
        if self._slot is None:
            r0, r1 = start, stop
            covered = self._mask[start:stop]
        else:
            r0, r1 = bisect_left(live, start), bisect_left(live, stop)
            covered = self._mask[live[r0:r1]]
        bary = self._bary[r0:r1]
        attributes = self._attributes[r0:r1]
        # The reference's left-associated ``b0*z0 + b1*z1 + b2*z2``.
        z = attributes[:, :, 0, None, None]
        return RunFragments(
            counts=self._counts[start:stop],
            position=live[r0:r1] - start,
            covered=covered,
            depth=bary[:, 0] * z[:, 0] + bary[:, 1] * z[:, 1]
            + bary[:, 2] * z[:, 2],
            bary=bary,
            attributes=attributes,
        )


#: The smallest positive (subnormal) float64.
_TINY = 5e-324

#: The three edges (v1, v2), (v2, v0), (v0, v1), in the reference order.
_EDGE_START = np.array((1, 2, 0))
_EDGE_END = np.array((2, 0, 1))


def prepare_tile(window: np.ndarray, attributes: np.ndarray, x0: int,
                 y0: int, tile_width: int, tile_height: int,
                 valid: np.ndarray) -> BatchedTileBatch:
    """Rasterize the whole display list at once: coverage, counts and
    barycentrics; interpolation waits for ``fragments``."""
    n = len(window)
    if n == 0:
        return BatchedTileBatch([], np.empty((0, tile_height, tile_width),
                                             dtype=bool),
                                np.empty(0, dtype=np.intp), None,
                                np.empty((0, 3, tile_height, tile_width)),
                                np.empty((0, 3, 7)))

    # -- ScreenTriangle.signed_area: never negative, as the rows come
    #    winding-normalized ----------------------------------------------
    x, y = window[:, :, 0], window[:, :, 1]
    area = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
            - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))
    edge_ax = x[:, _EDGE_START]
    edge_ay = y[:, _EDGE_START]
    edge_bx = x[:, _EDGE_END]
    edge_by = y[:, _EDGE_END]
    # (n, 3, 7): per vertex (z, r, g, b, a, u, v)
    channels = np.concatenate((window[:, :, 2:], attributes), axis=2)

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
    # on top-left edges only.  No float lies strictly between the
    # smallest negative subnormal and -0.0, so ``w > -5e-324`` is the
    # same boolean function as ``w >= 0`` (both zeros pass, NaN fails):
    # the reference's ``w >= 0 if top-left else w > 0`` is one compare
    # against a per-edge bound.
    top_left = ((edge_ay == edge_by) & (edge_bx < edge_ax)) \
        | (edge_by < edge_ay)
    bound = np.where(top_left, -_TINY, 0.0)[:, :, None, None]
    mask = (w > bound).all(axis=1)
    mask &= valid[None, :, :]
    mask[area == 0.0] = False
    counts_arr = np.count_nonzero(mask, axis=(1, 2))

    # -- barycentrics for live entries only (per-element math is
    #    unchanged, so the subsetting cannot perturb bit-identity) ------
    live = np.flatnonzero(counts_arr)
    if live.size == n:
        slot = None                       # identity mapping
        bary = w
    else:
        slot = np.full(n, -1, dtype=np.intp)
        slot[live] = np.arange(live.size)
        bary = w[live]
        area = area[live]
        channels = channels[live]
    # A live entry's area is positive: its reciprocal, as the reference
    # takes it.
    bary *= (1.0 / area)[:, None, None, None]
    return BatchedTileBatch(counts_arr.tolist(), mask, live, slot, bary,
                            channels)


# ---------------------------------------------------------------------------
# A run of opaque entries under Early-Z: one array pass
# ---------------------------------------------------------------------------

def _last_true(flags: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For a ``(rows, columns)`` bool array: the columns holding a True
    and, for each, the index of its last True row."""
    rows = flags.shape[0] - 1 - flags[::-1].argmax(axis=0)
    columns = flags[rows, np.arange(flags.shape[1])].nonzero()[0]
    return columns, rows[columns]


def resolve_opaque_run(run: RunFragments, depth_tested: np.ndarray,
                       writes_z: np.ndarray, textured: np.ndarray,
                       predicted: np.ndarray, layer_ids: np.ndarray,
                       depth: np.ndarray, color: np.ndarray,
                       pending: np.ndarray, taint: np.ndarray,
                       layers: Optional[np.ndarray]) -> OpaqueRun:
    """Resolve ``run`` — consecutive opaque entries under Early-Z — as
    the per-entry loop would.

    Entry ``j`` meets the Z-buffer as the loop leaves it: the minimum of
    ``depth`` and every earlier Z-writer's covered depth (an exclusive
    running minimum along the run axis), and passes where it covers the
    pixel and, if depth-tested, is strictly closer.  The comparisons see
    the same values as the loop's, so the passing masks are exact; the
    buffers then take the bits of the last passing entry (the last
    passing Z-writer for depth) — never a value of the scan itself.
    Colour is interpolated only at each touched pixel's last entry, u/v
    only for the passing fragments of textured entries, both with the
    reference's explicit left-associated sums.  The buffers are the tile
    context's C-contiguous arrays, written through flat views.
    """
    k = len(run.counts)
    passed = np.zeros(k, dtype=np.int64)
    texcoords: List[Tuple[int, np.ndarray, np.ndarray]] = []
    position = run.position                  # each row's place in the run
    r = position.size
    if r == 0:
        return OpaqueRun(passed, 0, texcoords)
    # Rows are the run's live entries; every per-row array is viewed as
    # (r, area), so ``row * area + pixel`` is one lane (and the
    # barycentrics' lane of vertex i is ``(3 * row + i) * area + pixel``).
    area = depth.size
    covered = run.covered.reshape(r, area)
    frag_depth = run.depth.reshape(r, area)
    writer = writes_z[position]

    # scan[j]: the Z-buffer row j is tested against.  fmin skips NaN
    # depths, which never pass a ``<`` test either.
    scan = np.empty_like(frag_depth)
    scan[0] = depth.reshape(-1)
    if r > 1:
        scan[1:] = np.where(covered[:-1] & writer[:-1, None],
                            frag_depth[:-1], np.inf)
        np.fmin.accumulate(scan, axis=0, out=scan)
    passing = frag_depth < scan
    passing |= ~depth_tested[position][:, None]
    passing &= covered
    counts = passing.sum(axis=1)
    passed[position] = counts
    total = int(counts.sum())
    if total == 0:
        return OpaqueRun(passed, 0, texcoords)

    # The last passing row at every touched pixel.
    pixels, rows = _last_true(passing)
    lanes = rows * area + pixels

    # Depth: the last passing Z-writer's.  Only pixels whose last
    # passing row does not write Z need a second search.
    z_pixels, z_lanes = pixels, lanes
    others = ~writer[rows]
    if others.any():
        search = pixels[others]
        found, below = _last_true(passing[:, search] & writer[:, None])
        keep = ~others
        z_pixels = np.concatenate((pixels[keep], search[found]))
        z_lanes = np.concatenate((lanes[keep],
                                  below * area + search[found]))
    depth.reshape(-1)[z_pixels] = frag_depth.reshape(-1)[z_lanes]

    flat_bary = run.bary.reshape(-1)
    vertex = (np.arange(3) * area)[:, None]
    b0, b1, b2 = flat_bary[rows * (3 * area) + pixels + vertex]
    a = run.attributes[rows]                                # (px, 3, 7)
    color.reshape(-1, 4)[pixels] = (
        b0[:, None] * a[:, 0, 1:5] + b1[:, None] * a[:, 1, 1:5]
        + b2[:, None] * a[:, 2, 1:5])

    # Each passing fragment overwrites its pixel: the first one there
    # finds the pixel's pending count, every later one finds 1.
    flat_pending = pending.reshape(-1)
    overdrawn = int(flat_pending[pixels].sum()) + total - pixels.size
    flat_pending[pixels] = 1
    taint.reshape(-1)[pixels] = predicted[position][rows]
    if layers is not None:
        layers.reshape(-1)[pixels] = layer_ids[position][rows]

    textured = textured[position]
    if textured.any():
        # Every passing fragment of a textured row, row by row in
        # row-major pixel order (what ``u[passing]`` gives the loop).
        shaded = counts
        if not textured.all():
            passing &= textured[:, None]
            shaded = counts * textured
        lanes = passing.reshape(-1).nonzero()[0]
        b0, b1, b2 = flat_bary[lanes + lanes // area * (2 * area) + vertex]
        # (u|v, vertex, fragment): each row's texture coordinates,
        # repeated for each of its fragments.
        uv = np.repeat(run.attributes[:, :, 5:7].transpose(2, 1, 0),
                       shaded, axis=2)
        u, v = b0 * uv[:, 0] + b1 * uv[:, 1] + b2 * uv[:, 2]
        end = 0
        for place, count in zip(position.tolist(), shaded.tolist()):
            if count:
                texcoords.append((place, u[end:end + count],
                                  v[end:end + count]))
                end += count
    return OpaqueRun(passed, overdrawn, texcoords)


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
