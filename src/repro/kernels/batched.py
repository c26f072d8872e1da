"""The batched numpy backend (``backend="numpy"``).

Geometry: :func:`assemble_frame`, the backend's only geometry entry
point, joins a whole frame's draw commands' vertex arrays, transforms,
clip-tests and culls them at once as ``(n, 3)`` coordinate arrays and
returns the frame's primitive table; no triangle becomes a Python
object.

Raster: :func:`prepare_tile` rasterizes a whole display list in one
shot from a job's winding-normalized columns, each entry against its own
tile: an exact corner test (:func:`corner_dead`) first drops the entries
that cover no pixel centre, then coverage and depth run as
``(N, tile_h, tile_w)`` array expressions — no per-fragment or
per-entry Python arithmetic.  Each edge function is kept as its two
factors, one per pixel row and one per pixel column, with the entry's
``1/area``.  The batch is built for all entries, including ones the
main loop may later skip via hierarchical-Z (rasterization has no side
effects, so results are unaffected); the z-prepasses and the main loop
then share the one batch instead of rasterizing twice.  The per-entry
loop's batch keeps every live entry's barycentrics too, and colour and
texture coordinates are interpolated for every live entry in one einsum
when the loop first asks for an entry's fragments.  A range of tiles
under Early-Z asks for none: its batch keeps only the factors, and
:func:`resolve_range` resolves every tile of the range in one array
pass, rebuilding barycentrics and interpolating colour only at each
pixel's last opaque writer and at the blended entries after it, and u/v
only for passing fragments.

The per-fragment buffer ops replace the reference backend's
fancy-indexed gather/scatter with whole-tile arithmetic plus masked
``np.copyto``, which is both faster on 16x16 tiles and exactly
equivalent.

Bit-identity with :mod:`repro.kernels.reference` is a hard contract
(cache entries are shared across backends): every expression below
performs the same IEEE-754 float64 operations in the same association
order as the scalar reference — edge functions, the explicit
left-associated ``b0*a0 + b1*a1 + b2*a2`` of the range path's depth and
of the range kernel,
on rows already in the vertex order the reference's winding swap gives
them (``kernels.api.normalize_winding``).  The per-entry loop's two
einsums (depth, and the other channels) contract in index order
without FMA but start their sums from +0.0, so they would return +0.0
where all three products are -0.0 and the reference returns -0.0; the
batch recomputes every channel where that can happen.  The property suites in
``tests/test_kernels.py``, ``tests/test_geometry_backends.py`` and
``tests/test_run_path.py`` enforce all of this on fuzzed scenes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Callable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..errors import PipelineError
from ..math3d import Mat4
from .api import (
    ALPHA_OPAQUE,
    W_EPSILON,
    FrameGeometry,
    Fragments,
    RangeResolved,
    RunFragments,
    attribute_overflow,
    frame_geometry,
    non_finite_vertex,
    overflows_float32,
)

NAME = "numpy"


# ---------------------------------------------------------------------------
# Vertex transform and Primitive Assembly: one array pass per frame
# ---------------------------------------------------------------------------

def _rows(matrix: Mat4, count: int) -> np.ndarray:
    """The first ``count`` rows of ``matrix`` as a ``(count, 4, 1, 1)``
    column block, ready to broadcast against ``(n, 3)`` coordinates."""
    return np.array(matrix.m[:4 * count]).reshape(count, 4, 1, 1)


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
                 attributes: np.ndarray) -> Tuple[int, PipelineError]:
    """The reference's error for a frame with a faulty triangle, and
    the triangle's command: the first in submission order whose
    clip-space coordinate is not finite, or that survived with a
    non-finite window-space coordinate or a finite attribute beyond
    float32 range (within a triangle in that order, as the reference
    tests them)."""
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
        return command_id, non_finite_vertex(command, command_id, index)
    if window_fault[first]:
        return command_id, non_finite_vertex(command, command_id, index,
                                             "window")
    return command_id, attribute_overflow(command, command_id, index)


def assemble_frame(commands: Sequence, mvps: np.ndarray,
                   viewport: Mat4,
                   bin_earlier: Optional[Callable[[FrameGeometry], object]]
                   = None) -> FrameGeometry:
    """Vertex shading and Primitive Assembly for a whole frame in one
    array pass: :func:`repro.kernels.reference.assemble` for every
    command, command ``i`` under ``mvps[i]`` (an ``(n, 4, 4)`` row-major
    array), with each triangle's MVP rows gathered from its command's.
    The commands' vertex arrays are joined, rejection and culling are
    masks, and the survivors' attributes are one gather.  Raises the
    reference's ``PipelineError`` for the frame's first triangle with a
    non-finite clip-space or surviving window-space coordinate, or a
    surviving attribute beyond float32 range; ``bin_earlier`` first gets
    the table of the earlier commands' survivors (see
    ``kernels.api``)."""
    counts = [len(command.positions) for command in commands]
    owner = np.repeat(np.arange(len(commands)), counts)
    cull_backface = np.array([command.state.cull_backface
                              for command in commands])
    states = [command.state for command in commands]
    # The scalar reference never warns on float overflow: neither do we.
    with np.errstate(all="ignore"):
        clip = _clip(np.concatenate([command.positions
                                     for command in commands]),
                     mvps[owner])
        sources, window = _assemble_clip(clip, viewport,
                                         cull_backface[owner])
        attributes = np.concatenate([command.attributes
                                     for command in commands])[sources]
        if not (np.isfinite(clip).all() and np.isfinite(window).all()
                and not overflows_float32(attributes).any()):
            command_id, error = _first_fault(commands, owner, clip, sources,
                                             window, attributes)
            if bin_earlier is not None:
                earlier = owner[sources] < command_id
                bin_earlier(frame_geometry(
                    states, owner[sources][earlier], window[earlier],
                    attributes[earlier]))
            raise error
    return frame_geometry(states, owner[sources], window, attributes)


# ---------------------------------------------------------------------------
# Rasterization: a tile's whole display list as (N, h, w) arrays
# ---------------------------------------------------------------------------

class BatchedTileBatch:
    """A display list rasterized up front: coverage, counts, depth and,
    for every *live* entry (nonzero coverage after the valid mask;
    bounding-box binning is conservative, so dead entries are common),
    its three edge functions as two factors and its ``1/area``.
    ``_live`` lists the live entries in order and ``_slot[index]`` is
    entry ``index``'s row in the per-row arrays (None when every entry
    is live), so consecutive live entries have consecutive rows.

    Edge ``i`` of row ``k`` at pixel ``(y, x)`` is ``_fa[k, i, y] -
    _fb[k, i, x]``, the reference ``_edge``'s ``dx*(py - ay) -
    dy*(px - ax)`` bit for bit, and its barycentric is that times
    ``_inv[k]``: every barycentric is rebuilt from these with the
    reference's operations, so no ``(l, 3, h, w)`` array need live
    through a range.

    ``fragments(index)`` interpolates colour and u/v on request, in one
    einsum for that entry's row and every later row not yet done (the
    per-entry loop asks for nearly every entry, in order), over the
    dense barycentrics the batch keeps; a batch prepared without them
    (a range's) answers only slices.
    ``fragments(slice(start, stop))`` hands entries to
    :func:`resolve_range` with nothing interpolated but depth, so a
    range that takes the range kernel is never interpolated in full.
    """

    __slots__ = ("_counts", "_mask", "_depth", "_live", "_slot", "_fa",
                 "_fb", "_inv", "_attributes", "_bary", "_interp",
                 "_done", "_rgba", "_built")

    def __init__(self, counts: List[int], mask: np.ndarray,
                 depth: np.ndarray, live: np.ndarray,
                 slot: Optional[np.ndarray], fa: np.ndarray, fb: np.ndarray,
                 inv: np.ndarray, attributes: np.ndarray,
                 bary: Optional[np.ndarray]) -> None:
        self._counts = counts
        self._mask = mask                # (l, h, w) coverage ∧ validity
        self._depth = depth              # (l, h, w) interpolated depth
        self._live = live
        self._slot = slot
        self._fa = fa                    # (l, 3, h) ``dx*(py - ay)``
        self._fb = fb                    # (l, 3, w) ``dy*(px - ax)``
        self._inv = inv                  # (l,) ``1/area``
        self._attributes = attributes    # (l, 3, 6) (r, g, b, a, u, v)
        # (l, 3, h, w) ``w_i * (1/area)`` for the per-entry loop; None in
        # a range's batch.
        self._bary = bary
        # (l, 6, h, w) interpolated (r, g, b, a, u, v); rows from _done on
        # are done.
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
            mask=self._mask[k],
            count=count,
            depth=self._depth[k],
            rgba=self._rgba[k],
            u=interp[k, 4],
            v=interp[k, 5],
        )
        self._built[index] = frag
        return frag

    def _interpolate(self, start: int) -> None:
        """Colour and u/v of rows ``start`` up to the first row already
        done, in one einsum."""
        if self._interp is None:
            self._interp = np.empty((self._bary.shape[0], 6)
                                    + self._bary.shape[2:])
            self._rgba = self._interp[:, :4].transpose(0, 2, 3, 1)
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
        else:
            r0, r1 = bisect_left(live, start), bisect_left(live, stop)
        return RunFragments(
            counts=self._counts[start:stop],
            position=live[r0:r1] - start,
            covered=self._mask[r0:r1],
            depth=self._depth[r0:r1],
            fa=self._fa[r0:r1],
            fb=self._fb[r0:r1],
            inv=self._inv[r0:r1],
            attributes=self._attributes[r0:r1],
        )


def _barycentric_grid(fa: np.ndarray, fb: np.ndarray,
                      inv: np.ndarray) -> np.ndarray:
    """Rows' ``(q, 3, h, w)`` barycentrics ``w_i * (1/area)`` from their
    factors ``fa`` ``(q, 3, h)``, ``fb`` ``(q, 3, w)`` and ``inv``
    ``(q,)``, with the reference's operations."""
    # ``fa`` repeated along x, then ``fb`` subtracted in place: the
    # broadcast ``fa - fb``, a little faster with one operand contiguous.
    bary = np.repeat(fa, fb.shape[2], axis=2).reshape(fa.shape + fb.shape[2:])
    bary -= fb[:, :, None, :]
    bary *= inv[:, None, None, None]
    return bary


def _barycentrics(run: RunFragments, row: np.ndarray, pixel: np.ndarray,
                  width: int) -> List[np.ndarray]:
    """The three barycentrics ``w_i * (1/area)`` of lanes ``(row,
    pixel)`` (``pixel`` row-major in a tile ``width`` wide), rebuilt
    from the run's factors with the reference's operations."""
    height = run.fa.shape[2]
    fa = run.fa.reshape(-1)
    fb = run.fb.reshape(-1)
    # Each lane's offsets of its edge 0 factors, ``(3 * row) * height + y``
    # and ``(3 * row) * width + x``; edge i's lie ``i * height`` and
    # ``i * width`` further on.
    at_a, at_b = np.divmod(pixel, width)
    at_a += row * (3 * height)
    at_b += row * (3 * width)
    inv = run.inv.take(row)
    bary = []
    for i in range(3):
        if i:
            at_a += height
            at_b += width
        b = fa.take(at_a)
        b -= fb.take(at_b)
        b *= inv
        bary.append(b)
    return bary


#: The smallest positive (subnormal) float64.
_TINY = 5e-324

#: The three edges (v1, v2), (v2, v0), (v0, v1), in the reference order.
_EDGE_START = np.array((1, 2, 0))
_EDGE_END = np.array((2, 0, 1))


class Edges(NamedTuple):
    """A display list's three edges per entry, (v1, v2), (v2, v0) and
    (v0, v1) in the reference order, and what the fill rule needs."""

    area: np.ndarray     # (n,) twice the signed area, never negative
    ax: np.ndarray       # (n, 3) each edge's start
    ay: np.ndarray
    dx: np.ndarray       # (n, 3) end minus start, as ``_edge`` rounds it
    dy: np.ndarray
    #: (n, 3) the top-left rule as one compare: ``w > bound`` is the
    #: reference's ``w >= 0 if top-left else w > 0``
    bound: np.ndarray

    def take(self, rows: np.ndarray) -> "Edges":
        return Edges(*(column[rows] for column in self))


def edges(window: np.ndarray) -> Edges:
    """The :class:`Edges` of winding-normalized rows ``window``."""
    x, y = window[:, :, 0], window[:, :, 1]
    # ScreenTriangle.signed_area: never negative, as the rows come
    # winding-normalized.
    area = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
            - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))
    ax, ay = x[:, _EDGE_START], y[:, _EDGE_START]
    bx, by = x[:, _EDGE_END], y[:, _EDGE_END]
    # Inclusive (>=) on top-left edges only.  No float lies strictly
    # between the smallest negative subnormal and -0.0, so
    # ``w > -5e-324`` is the same boolean function as ``w >= 0`` (both
    # zeros pass, NaN fails).
    top_left = ((ay == by) & (bx < ax)) | (by < ay)
    return Edges(area, ax, ay, bx - ax, by - ay,
                 np.where(top_left, -_TINY, 0.0))


def corner_dead(edge: Edges, x0: np.ndarray, y0: np.ndarray,
                tile_width: int, tile_height: int) -> np.ndarray:
    """Which entries certainly cover no pixel centre of their tile
    (top-left pixel ``(x0, y0)``): a conservative test on one corner of
    the tile per edge.

    The rounded edge function ``dx*(py - ay) - dy*(px - ax)`` is
    monotone in each pixel coordinate (``fl`` is monotone, and each
    coordinate enters one product with a fixed factor), so over the
    tile's pixel centres each edge peaks at the corner that maximizes
    ``dx*(py - ay)`` and minimizes ``dy*(px - ax)``.  An entry is dead
    when some edge fails the fill rule there, since it then fails
    everywhere; a NaN corner (an overflowing product) proves nothing
    and keeps the entry.  Zero-area entries are dead too.
    """
    dx, dy = edge.dx, edge.dy
    # Pixel centres exactly as pixel_centers computes them.
    px = (x0[:, None] + np.where(dy > 0.0, 0, tile_width - 1)) + 0.5
    py = (y0[:, None] + np.where(dx > 0.0, tile_height - 1, 0)) + 0.5
    peak = dx * (py - edge.ay) - dy * (px - edge.ax)
    return (peak <= edge.bound).any(axis=1) | (edge.area == 0.0)


def prepare_tile(window: np.ndarray, attributes: np.ndarray, x0, y0,
                 tile_width: int, tile_height: int, valid: np.ndarray,
                 barycentrics: bool = True) -> BatchedTileBatch:
    """Rasterize a whole display list at once, each entry against its
    own tile: coverage, counts, depth, and the live entries' edge factors
    and ``1/area``, with their dense barycentrics unless
    ``barycentrics`` is false (a batch that then answers only slices);
    interpolation waits for ``fragments``.  Entries :func:`corner_dead`
    proves empty skip the per-pixel edge functions.

    The per-entry loop's batch, one tile's display list, tests all three
    edges at once, in a few numpy calls.  A range's batch, for
    :func:`resolve_range`, runs one edge at a time in one ``(c, h, w)``
    scratch and keeps no ``(c, 3, h, w)`` array: the range kernel
    rebuilds barycentrics from the factors where it gathers them."""
    n = len(window)
    x0 = np.broadcast_to(x0, (n,))
    y0 = np.broadcast_to(y0, (n,))
    edge = edges(window)
    candidates = np.flatnonzero(~corner_dead(edge, x0, y0, tile_width,
                                             tile_height))
    counts = np.zeros(n, dtype=np.int64)
    if candidates.size < n:
        edge = edge.take(candidates)
        window = window[candidates]
        x0, y0 = x0[candidates], y0[candidates]
        if valid.ndim == 3:
            valid = valid[candidates]

    # -- the edge function cross(b - a, p - a) in the reference
    #    ``_edge``'s term order, ``dx*(py - ay) - dy*(px - ax)``, as its
    #    two factors over each entry's pixel-centre rows and columns
    #    (pixel_centers' values: integer sums, then + 0.5) -------------
    py = y0[:, None] + np.arange(tile_height, dtype=np.float64) + 0.5
    px = x0[:, None] + np.arange(tile_width, dtype=np.float64) + 0.5
    fa = edge.dx[:, :, None] * (py[:, None, :] - edge.ay[:, :, None])
    fb = edge.dy[:, :, None] * (px[:, None, :] - edge.ax[:, :, None])
    inv = 1.0 / edge.area          # a candidate's area is nonzero
    z = window[:, :, 2, None, None]
    if barycentrics:
        # -- coverage: every edge function at once --------------------
        bary = fa[:, :, :, None] - fb[:, :, None, :]
        mask = (bary > edge.bound[:, :, None, None]).all(axis=1)
    else:
        # -- coverage and depth, one edge at a time: coverage ANDs each
        #    edge's fill-rule test, and depth sums the reference's
        #    ``b0*z0 + b1*z1 + b2*z2`` left to right, ``b_i = w_i *
        #    (1/area)`` ---------------------------------------------------
        bary = None
        shape = (candidates.size, tile_height, tile_width)
        scale = inv[:, None, None]
        w = np.empty(shape)
        depth = np.empty(shape)
        inside = np.empty(shape, dtype=bool)
        mask = np.empty(shape, dtype=bool)
        for i in range(3):
            np.subtract(fa[:, i, :, None], fb[:, i, None, :], out=w)
            np.greater(w, edge.bound[:, i, None, None],
                       out=inside if i else mask)
            w *= scale
            w *= z[:, i]
            if i:
                mask &= inside
                depth += w
            else:
                # The first term is the running sum; its buffer is free.
                depth, w = w, depth
    mask &= valid
    counted = np.count_nonzero(mask, axis=(1, 2))
    counts[candidates] = counted

    # -- live entries only (per-element math is unchanged, so the
    #    subsetting cannot perturb bit-identity) ------------------------
    rows = np.flatnonzero(counted)
    live = candidates[rows]
    if rows.size < candidates.size:
        fa, fb, inv, mask = fa[rows], fb[rows], inv[rows], mask[rows]
        if bary is None:
            depth = depth[rows]
        else:
            bary, z = bary[rows], z[rows]
    if bary is not None:
        # The barycentrics ``w_i * (1/area)``, and depth from them in one
        # einsum; as in ``_interpolate``, rows with a vertex depth whose
        # sign bit is set take the explicit sum.
        bary *= inv[:, None, None, None]
        z = z[:, :, 0, 0]
        depth = np.einsum("lkhw,lk->lhw", bary, z)
        for k in np.flatnonzero(np.signbit(z).any(axis=1)).tolist():
            b0, b1, b2 = bary[k]
            depth[k] = b0 * z[k, 0] + b1 * z[k, 1] + b2 * z[k, 2]
    slot = None                           # identity mapping
    if live.size < n:
        slot = np.full(n, -1, dtype=np.intp)
        slot[live] = np.arange(live.size)
        attributes = attributes[live]
    return BatchedTileBatch(counts.tolist(), mask, depth, live, slot, fa,
                            fb, inv, attributes, bary)


# ---------------------------------------------------------------------------
# A range of tiles under Early-Z: one array pass
# ---------------------------------------------------------------------------

def _last(flags: np.ndarray, marks: np.ndarray,
          segments: np.ndarray) -> np.ndarray:
    """For ``(r, ...)`` flags over rows split into ``segments`` (their
    first rows, each segment non-empty): each segment's last flagged row
    per lane, -1 where none is.  ``marks`` are the rows' numbers plus 1,
    as ``int32``: a flagged lane keeps its row's mark, an unflagged one
    0, so the maximum mark less 1 is the answer."""
    marked = flags * marks.reshape((-1,) + (1,) * (flags.ndim - 1))
    last = np.maximum.reduceat(marked, segments, axis=0)
    last -= 1
    return last


def resolve_range(run: RunFragments, bounds: np.ndarray, opaque: np.ndarray,
                  depth_tested: np.ndarray, writes_z: np.ndarray,
                  textured: np.ndarray, predicted: np.ndarray,
                  layer_ids: np.ndarray, shape: Tuple[int, int],
                  clear_depth: float, clear_color: np.ndarray,
                  layers: bool) -> RangeResolved:
    """Resolve a range of tiles' display lists under Early-Z with
    ``less`` depth tests, as the per-entry loop would: tile ``i``'s
    entries are ``bounds[i]`` to ``bounds[i + 1]`` of ``run``, the
    batch's ``fragments(slice(0, n))``.

    Entry ``j`` meets the Z-buffer as the loop leaves it: the minimum of
    the clear depth and every earlier Z-writer of its tile's covered
    depths (an exclusive running minimum per tile), and passes where it
    covers the pixel and, if depth-tested, is strictly closer.  The
    comparisons see the same values as the loop's, so the passing masks
    are exact; the buffers then take the bits of the last passing entry
    of the right kind — never a value of the scan itself: depth from
    the last passing Z-writer, the layer from the last fragment that
    counts as opaque (an opaque entry's, or a blended one's at alpha
    ``>= ALPHA_OPAQUE``), the colour from the last opaque entry's,
    interpolated only there, with every later passing blended entry
    folded over it in display-list order.  Colour, u/v and the blends
    use the reference's explicit left-associated sums.
    """
    n = int(bounds[-1])
    tiles = bounds.size - 1
    area = shape[0] * shape[1]
    color = np.empty((tiles, area, 4))
    color[:] = clear_color
    depth = np.full((tiles, area), clear_depth)
    taint = np.zeros(tiles, dtype=bool)
    layer_out = np.zeros((tiles, area), np.int32) if layers else None
    zr_register = np.full(tiles, -1, np.int64) if layers else None
    passed = np.zeros(n, dtype=np.int64)
    written = np.zeros(n, dtype=np.int64)
    position = run.position
    r = position.size

    def resolved(overdrawn=0, texture=None):
        if texture is None:
            texture = (np.empty(0, np.int64), np.empty(0, np.int64),
                       np.empty(0), np.empty(0))
        return RangeResolved(
            passed, written, overdrawn,
            color.reshape((tiles,) + shape + (4,)),
            depth.reshape((tiles,) + shape), taint,
            None if layer_out is None
            else layer_out.reshape((tiles,) + shape),
            zr_register, *texture)

    if r == 0:
        return resolved()
    # Rows are the live entries; every per-row array is viewed as
    # (r, area), so ``row * area + pixel`` is one lane.  Barycentrics are
    # rebuilt from the factors only at the lanes that need them.
    # Row marks, and the last rows ``_last`` picks from them, are int32;
    # a pick is widened to intp before it is scaled to a lane offset,
    # which can pass 2**31.
    row_bounds = np.searchsorted(position, bounds)
    filled = np.flatnonzero(np.diff(row_bounds))      # tiles with rows
    segments = row_bounds[filled]
    row_tile = np.repeat(np.arange(filled.size),
                         row_bounds[filled + 1] - segments)
    marks = np.arange(1, r + 1, dtype=np.int32)
    covered = run.covered.reshape(r, area)
    frag_depth = run.depth.reshape(r, area)
    writer = writes_z[position]

    # scan[j]: the Z-buffer row j is tested against.  fmin skips NaN
    # depths, which never pass a ``<`` test either.
    scan = np.full_like(frag_depth, np.inf)
    np.copyto(scan[1:], frag_depth[:-1],
              where=covered[:-1] & writer[:-1, None])
    scan[segments] = clear_depth
    for start, stop in zip(segments.tolist(),
                           row_bounds[filled + 1].tolist()):
        if stop - start > 1:
            np.fmin.accumulate(scan[start:stop], axis=0,
                               out=scan[start:stop])
    passing = frag_depth < scan
    passing |= ~depth_tested[position][:, None]
    passing &= covered
    counts = passing.sum(axis=1)
    passed[position] = counts
    if not counts.any():
        return resolved()

    width = shape[1]
    # (channel, vertex, row): each per-vertex channel one contiguous row.
    vertex_channels = np.ascontiguousarray(run.attributes.transpose(2, 1, 0))
    row_opaque = opaque[position]
    last_writer = _last(passing & writer[:, None], marks, segments)
    # Fragments that count as opaque: an opaque entry's, and a blended
    # entry's at alpha >= ALPHA_OPAQUE.
    solid = passing & row_opaque[:, None]
    blended = np.flatnonzero(~row_opaque)
    if blended.size:
        rgba = _interpolate(
            _barycentric_grid(run.fa[blended], run.fb[blended],
                              run.inv[blended]).reshape(-1, 3, area),
            run.attributes[blended, :, :4])
        solid[blended] = passing[blended] & (rgba[:, :, 3] >= ALPHA_OPAQUE)
        last_opaque = _last(passing & row_opaque[:, None], marks, segments)
    last_solid = _last(solid, marks, segments)
    if not blended.size:
        last_opaque = last_solid
    # Each filled tile's first lane in the output buffers.
    tile_base = filled * area

    # Depth: the last passing Z-writer's.
    lanes = np.flatnonzero(last_writer >= 0)
    pixel = lanes % area
    depth.reshape(-1)[tile_base[lanes // area] + pixel] = (
        frag_depth.reshape(-1).take(
            last_writer.reshape(-1).take(lanes).astype(np.intp) * area
            + pixel))

    # Colour: the last passing opaque entry's, interpolated only there,
    # channel by channel from 1-D takes.
    lanes = np.flatnonzero(last_opaque >= 0)
    chosen = last_opaque.reshape(-1).take(lanes).astype(np.intp)
    b0, b1, b2 = _barycentrics(run, chosen, lanes % area, width)
    shade = np.empty((4, lanes.size))
    for channel, (a0, a1, a2) in enumerate(vertex_channels[:4]):
        shade[channel] = (b0 * a0.take(chosen) + b1 * a1.take(chosen)
                          + b2 * a2.take(chosen))
    colors = color[filled]
    colors.reshape(-1, 4)[lanes] = shade.T
    touched = np.zeros((filled.size, area), dtype=bool)
    row_predicted = predicted[position]
    touched.reshape(-1)[lanes] = row_predicted.take(chosen)

    # Every fragment before the last opaque one at its pixel was
    # overdrawn (it raised the pixel's pending count, which that
    # opaque write then charged).
    total = np.add.reduceat(passing, segments, axis=0, dtype=np.int32)
    overdrawn = int((total - 1)[last_solid >= 0].sum())
    if blended.size:
        # Blended entries after the pixel's last opaque entry fold over
        # its colour in display-list order, one rank of each tile's
        # blended entries at a time; they add taint, never clear it.
        blend_tile = row_tile[blended]
        over = passing[blended] & (
            blended[:, None] > last_opaque[blend_tile])
        after = blended[:, None] > last_solid[blend_tile]
        overdrawn -= int((passing[blended] & ~solid[blended] & after
                          & (last_solid[blend_tile] >= 0)).sum())
        rank = np.arange(blended.size) - np.searchsorted(blend_tile,
                                                         blend_tile)
        for step in range(int(rank.max()) + 1):
            sel = np.flatnonzero(rank == step)
            target = blend_tile[sel]
            source = rgba[sel]
            destination = colors[target]
            alpha = source[:, :, 3:4]
            mixed = source * alpha + destination * (1.0 - alpha)
            mixed[:, :, 3] = np.maximum(destination[:, :, 3],
                                        source[:, :, 3])
            colors[target] = np.where(over[sel][:, :, None], mixed,
                                      destination)
        hit = row_predicted[blended] & over.any(axis=1)
        touched[blend_tile[hit]] = True
    color[filled] = colors
    taint[filled] = touched.any(axis=1)

    written_rows = solid.sum(axis=1)
    written[position] = written_rows
    if layers:
        row_layer = layer_ids[position]
        lanes = np.flatnonzero(last_solid >= 0)
        layer_out.reshape(-1)[tile_base[lanes // area]
                              + lanes % area] = row_layer.take(
            last_solid.reshape(-1).take(lanes))
        woz = _last(writer & (written_rows > 0), marks, segments)
        zr_register[filled] = np.where(woz >= 0, row_layer[woz], -1)

    # Every passing fragment of a textured row, row by row in row-major
    # pixel order (what ``u[passing]`` gives the loop).
    texture = None
    textured_rows = np.flatnonzero(textured[position] & (counts > 0))
    if textured_rows.size:
        shaded = counts[textured_rows]
        row, pixel = np.divmod(np.flatnonzero(passing[textured_rows]), area)
        row = textured_rows.take(row)
        b0, b1, b2 = _barycentrics(run, row, pixel, width)
        u, v = (b0 * a0.take(row) + b1 * a1.take(row) + b2 * a2.take(row)
                for a0, a1, a2 in vertex_channels[4:])
        texture = (position[textured_rows].astype(np.int64), shaded, u, v)
    return resolved(overdrawn, texture)


def _interpolate(bary: np.ndarray, attributes: np.ndarray) -> np.ndarray:
    """``(q, area, c)`` channels at every lane of ``(q, 3, area)``
    barycentrics, from ``(q, 3, c)`` per-vertex values, with the
    reference's explicit ``b0*a0 + b1*a1 + b2*a2``."""
    return (bary[:, 0, :, None] * attributes[:, 0, None, :]
            + bary[:, 1, :, None] * attributes[:, 1, None, :]
            + bary[:, 2, :, None] * attributes[:, 2, None, :])


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
