"""The array contracts shared by every kernel backend.

A backend is a module exposing the following attributes (see
``docs/architecture.md`` §10 for the prose version):

``NAME``
    The canonical backend name (``"python"``, ``"numpy"``).

Geometry: a backend exports exactly one of these two entry points.

``assemble(command, command_id, mvp, viewport) -> List[ScreenTriangle]``
    Vertex shading and Primitive Assembly for one draw command: every
    object-space vertex is transformed by ``mvp`` (a ``Mat4``), a
    triangle with any vertex at ``w <= 1e-6`` or all three vertices
    outside the same clip plane is rejected, the rest go through the
    perspective divide and ``viewport``, depth is clamped to [0, 1], and
    zero-area triangles (and back-facing ones when
    ``command.state.cull_backface``) are culled.  Returns the survivors
    in submission order; ``primitive_id`` is the index among the
    command's survivors, ``command_id`` is passed through, and every
    coordinate in ``xy``/``z`` is a Python ``float``.  The first triangle
    in submission order whose clip-space coordinate is not finite, or
    that survives with a non-finite window-space x, y or clamped z, or
    with a finite vertex attribute beyond float32 range, raises the
    ``PipelineError`` of :func:`non_finite_vertex` or
    :func:`attribute_overflow` (within a triangle: clip, then window,
    then attribute).

``assemble_frame(commands, mvps, viewport, bin_earlier=None)
-> FrameGeometry``
    ``assemble`` for every command of a frame at once, command ``i``
    under ``mvps[i]`` with command id ``i`` — ``mvps`` is an ``(n, 4,
    4)`` float64 array of row-major matrices, each entry's bits those of
    the ``Mat4`` product ``assemble`` would get (the pipeline builds it
    with ``math3d.mat4_products``) — and returns the frame's
    primitive table (:class:`FrameGeometry`), whose rows are the
    survivors of all commands in submission order: ``primitive_table``
    of what ``assemble`` returns, built in array passes from the
    commands' ``positions`` and ``attributes`` arrays without a
    ``Triangle`` or a ``ScreenTriangle``.  It raises the error
    ``assemble`` would raise for the frame's first faulty triangle, and
    never returns None.
    Before it raises, it calls ``bin_earlier`` (when given) with the
    table of the survivors of the commands before the faulty one: the
    scalar pipeline has binned those by the time it assembles the
    faulty command, so an error binning raises there comes first.

``prepare_tile(window, attributes, x0, y0, tile_width, tile_height,
valid)``
    Build a batch for a display list given as a tile job's columns (see
    :class:`~repro.engine.tile_job.TileJob`), each entry rasterized
    against its own tile: entry ``i``'s primitive has window-space
    ``(x, y, z)`` per vertex ``window[i]`` (an ``(n, 3, 3)`` float64
    array) and ``(r, g, b, a, u, v)`` per vertex ``attributes[i]``
    (``(n, 3, 6)`` float64), both in the winding
    :func:`normalize_winding` gives them: no row has a negative signed
    area.  Its tile's top-left pixel is ``(x0[i], y0[i])`` (``(n,)`` int
    arrays, or one origin for every entry) and ``valid[i]`` (``(n,
    tile_height, tile_width)`` bool, or one tile's mask for every entry)
    marks the tile's on-screen pixels.  Returns an object with a single
    method ``fragments(index) -> Optional[Fragments]`` yielding the
    rasterization of entry ``index`` — ``None`` when the entry covers no
    valid pixel centre (bounding-box binning is conservative, so this is
    common).  ``fragments`` must be side-effect free and stable: calling
    it twice returns the same values (the prepasses and the main loop
    share one batch).  Callers use nothing else of a batch: perfbench's
    traced run hands them a proxy that forwards only ``fragments``.

Optional, exported only by backends with a range kernel (the numpy
backend); ``TileJob`` runs its per-entry loop tile by tile when it is
missing:

``resolve_range(run, bounds, opaque, depth_tested, writes_z, textured,
predicted, layer_ids, shape, clear_depth, clear_color, layers)
-> RangeResolved``
    Render a range of tiles' display lists under Early-Z with ``less``
    depth tests — opaque and blended entries, from cleared tile buffers
    — exactly as the per-entry loop would, in one array pass.  Tile
    ``i``'s entries are ``bounds[i]`` to ``bounds[i + 1]``.  ``run`` is
    the batch's ``fragments(slice(0, n))`` — such a backend's batches
    also take a slice of entries and return their
    :class:`RunFragments`, nothing interpolated but depth and the
    barycentrics kept as edge factors, which ``resolve_range`` expands
    only at the lanes it gathers.  Such a backend's ``prepare_tile``
    also takes ``barycentrics=False``, for a batch that keeps only
    those factors and answers only slices (by default a batch keeps
    dense barycentrics for the per-entry loop).  The
    per-entry flags are ``(n,)`` arrays, ``shape`` is ``(tile_height,
    tile_width)``, and ``layers`` says whether to track the Layer Buffer.
    See :class:`RangeResolved`.

Per-fragment array ops (all pure, array-in/array-out; ``mask`` is always
a tile-shaped bool array and the op touches only masked lanes):

``depth_test(depth, mask, fragment_depth, less_equal=False) -> passing``
``depth_write(depth, mask, fragment_depth) -> int``
``color_write(color, mask, rgba) -> int``
``color_blend(color, mask, rgba) -> int``
``layer_write(layers, mask, layer) -> int``
``overdraw_update(pending, opaque_mask, translucent_mask) -> int``
``taint_set(taint, mask, value) -> None``
``taint_or(taint, mask) -> None``

Backends must be **bit-identical**: for every op the masked output
values must equal the scalar reference exactly (same IEEE-754 ops in the
same association order, including the sign of every zero), and the
returned counts must match.  The property suites in
``tests/test_kernels.py``, ``tests/test_geometry_backends.py`` and
``tests/test_run_path.py`` enforce this on fuzzed scenes; it is what
lets the disk cache share entries across backends.
"""

from __future__ import annotations

from itertools import chain
from typing import (
    TYPE_CHECKING,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..errors import PipelineError
from ..geom.vertex import attribute_values

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..commands.state import RenderState
    from ..geom import ScreenTriangle

#: Primitive Assembly rejects a triangle with any vertex at ``w`` at or
#: below this (near-plane clipping is not modelled: such triangles are
#: dropped whole).
W_EPSILON = 1e-6

#: The smallest magnitude whose float32 cast overflows to infinity: the
#: midpoint between ``FLT_MAX`` and 2**128, which rounds (to even) up.
#: The Parameter Buffer stores attributes as float32, so a finite
#: attribute at or beyond it cannot be stored (``struct.pack('<f')``
#: raises there; a numpy cast gives ``inf``).
FLOAT32_OVERFLOW = 2.0 ** 128 - 2.0 ** 103

#: Columns of an attribute-table row that raster interpolates.
RASTER_ATTRIBUTES = 6

#: A blended fragment at or above this alpha counts as opaque for the
#: overshading counters and the Layer Buffer.
ALPHA_OPAQUE = 1.0 - 1e-9


def non_finite_vertex(command, command_id: int, triangle_index: int,
                      space: str = "clip") -> PipelineError:
    """The error every backend raises for a triangle whose ``space``
    (``"clip"`` or ``"window"``) position has a NaN or infinite
    coordinate: a degenerate matrix or vertex, or a clip-space ``w``
    just above the rejection threshold.  Binning it would silently
    produce garbage, or fail on an infinite tile span."""
    return PipelineError(
        f"draw command {command_id} ({command.label!r}): triangle "
        f"{triangle_index} has a non-finite {space}-space vertex"
    )


def attribute_overflow(command, command_id: int,
                       triangle_index: int) -> PipelineError:
    """The error every backend raises for a surviving triangle with a
    finite vertex attribute at or beyond :data:`FLOAT32_OVERFLOW`: its
    float32 Parameter Buffer record (and RE signature) cannot hold it."""
    return PipelineError(
        f"draw command {command_id} ({command.label!r}): triangle "
        f"{triangle_index} has a vertex attribute beyond float32 range"
    )


def overflows_float32(values: np.ndarray) -> np.ndarray:
    """Which of ``values`` are finite but overflow a float32 cast."""
    return np.isfinite(values) & (np.abs(values) >= FLOAT32_OVERFLOW)


def attribute_table(attributes: Iterable, count: int) -> np.ndarray:
    """The ``(count, 3, 9)`` float64 attribute table of ``count``
    triangles, from their ``VertexAttributes`` three by three:
    ``(r, g, b, a, u, v, nx, ny, nz)`` per vertex."""
    return np.fromiter(chain.from_iterable(map(attribute_values,
                                               attributes)),
                       dtype=np.float64, count=27 * count).reshape(-1, 3, 9)


class FrameGeometry(NamedTuple):
    """A frame's assembled primitives as a table: row ``s`` is the
    frame's ``s``-th surviving triangle, in submission order.

    ``window``, ``attributes`` and ``state`` are what raster and the
    signature encoders read; ``bbox`` and the three depths hold exactly
    the values the scalar Polygon List Builder computes from each
    ``ScreenTriangle``.
    """

    command: np.ndarray      # (s,) int64  — the draw command's index
    window: np.ndarray       # (s, 3, 3) float64 — (x, y, z) per vertex
    #: (s, 3, 9) float64 — (r, g, b, a, u, v, nx, ny, nz) per vertex
    attributes: np.ndarray
    state: np.ndarray        # (s,) intp — render-state id: row of states
    states: Tuple["RenderState", ...]   # the distinct render states
    bbox: np.ndarray         # (s, 4) float64 — bounding_box()
    z_near: np.ndarray       # (s,) float64 — the three prediction depths
    z_centroid: np.ndarray
    z_far: np.ndarray


def frame_geometry(command_states: Sequence["RenderState"],
                   command: np.ndarray, window: np.ndarray,
                   attributes: np.ndarray) -> FrameGeometry:
    """The table of primitives owned by ``command`` (ids into
    ``command_states``) at ``window`` with ``attributes``: the state
    ids (into the distinct states, in order of first appearance) and
    the binning columns derived."""
    distinct: dict = {}
    command_state = np.array([distinct.setdefault(state, len(distinct))
                              for state in command_states], dtype=np.intp)
    x, y, z = window[:, :, 0], window[:, :, 1], window[:, :, 2]
    return FrameGeometry(
        command=command,
        window=window,
        attributes=attributes,
        state=command_state[command],
        states=tuple(distinct),
        bbox=np.stack((x.min(axis=1), y.min(axis=1),
                       x.max(axis=1), y.max(axis=1)), axis=1),
        z_near=z.min(axis=1),
        # Python's ``sum(z) / 3.0`` starts from the int 0.
        z_centroid=((0.0 + z[:, 0]) + z[:, 1] + z[:, 2]) / 3.0,
        z_far=z.max(axis=1),
    )


def primitive_table(triangles: Sequence["ScreenTriangle"],
                    command_states: Sequence["RenderState"]
                    ) -> FrameGeometry:
    """The table of ``triangles``, the scalar reference's survivors of
    commands with ``command_states``: row for row what ``assemble_frame``
    returns for the same frame."""
    window = np.array([[(p.x, p.y, z) for p, z in zip(t.xy, t.z)]
                       for t in triangles],
                      dtype=np.float64).reshape(-1, 3, 3)
    return frame_geometry(
        command_states,
        np.array([t.command_id for t in triangles], dtype=np.int64),
        window,
        attribute_table(chain.from_iterable(t.attributes
                                            for t in triangles),
                        len(triangles)))


#: Vertex orders of a primitive's rows: as submitted, and with v1 and v2
#: swapped.
_WINDING = np.array(((0, 1, 2), (0, 2, 1)))


def normalize_winding(window: np.ndarray, attributes: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """``window`` and ``attributes`` (per-vertex rows, vertex axis 1)
    with v1 and v2 swapped in every row whose signed area is negative,
    as the reference rasterizer swaps them.  The swapped row's area is
    the exact negation (``fl(b - a) == -fl(a - b)``), so every row then
    has a non-negative area, and rasterizing it gives the bits the
    reference gives for the row as submitted."""
    x, y = window[:, :, 0], window[:, :, 1]
    # ScreenTriangle.signed_area: (v1 - v0).cross(v2 - v0).
    area = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
            - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))
    order = _WINDING[(area < 0.0).view(np.int8)]            # (n, 3)
    rows = np.arange(len(window))[:, None]
    return window[rows, order], attributes[rows, order]


class Fragments(NamedTuple):
    """One display-list entry rasterized against one tile.

    Arrays are tile-shaped ``(tile_height, tile_width)``; ``mask`` is the
    coverage restricted to on-screen pixels and the interpolated arrays
    are only meaningful where it is set.
    """

    mask: np.ndarray    # bool     — coverage ∧ on-screen validity
    count: int          # number of set pixels in ``mask``
    depth: np.ndarray   # float64  — interpolated window-space depth
    rgba: np.ndarray    # float64  — (h, w, 4) interpolated color
    u: np.ndarray       # float64  — texture coordinate
    v: np.ndarray       # float64  — texture coordinate


class RunFragments(NamedTuple):
    """Entries ``start..stop-1`` of a batch rasterized, with nothing
    interpolated but depth: what ``fragments(slice(start, stop))``
    returns.  Rows are the live entries (nonzero coverage), in order;
    the other entries are dead.

    Barycentrics are not stored, only what rebuilds them: row ``k``'s
    edge function ``i`` (edges (v1, v2), (v2, v0), (v0, v1)) at pixel
    ``(y, x)`` is ``fa[k, i, y] - fb[k, i, x]``, the reference
    ``_edge``'s ``dx*(py - ay) - dy*(px - ax)`` bit for bit, and its
    barycentric ``b_i`` is that times ``inv[k]``.  ``depth`` is
    ``b0*z0 + b1*z1 + b2*z2`` of those, left-associated.
    """

    counts: List[int]        # covered pixels per entry
    position: np.ndarray     # (r,) intp — each row's entry, from start
    covered: np.ndarray      # bool     — (r, h, w) coverage
    depth: np.ndarray        # float64  — (r, h, w) interpolated depth
    fa: np.ndarray           # float64  — (r, 3, h) ``dx*(py - ay)``
    fb: np.ndarray           # float64  — (r, 3, w) ``dy*(px - ax)``
    inv: np.ndarray          # float64  — (r,) ``1.0 / area``
    #: (r, 3, 6) per-vertex (r, g, b, a, u, v), in the
    #: winding-normalized vertex order the edges use
    attributes: np.ndarray


class RangeResolved(NamedTuple):
    """What ``resolve_range`` reports about ``n`` entries of ``t`` tiles.

    An entry passes where it covers the pixel and, if depth-tested, its
    depth is ``<`` the minimum of the clear depth and every earlier
    Z-writer of its tile covering the pixel; under Early-Z every passing
    fragment is shaded and written.  The tile buffers end as the loop
    leaves them.
    """

    passed: np.ndarray       # (n,) int64 — passing fragments per entry
    #: (n,) int64 — fragments per entry that count as opaque (an opaque
    #: entry's passing ones; a blended entry's at ALPHA_OPAQUE or above):
    #: its Layer Buffer writes
    written: np.ndarray
    #: shaded fragments later overwritten by one that counts as opaque
    overdrawn: int
    color: np.ndarray        # (t, h, w, 4) float64
    depth: np.ndarray        # (t, h, w) float64
    taint: np.ndarray        # (t,) bool — the tile ends tainted
    layers: Optional[np.ndarray]       # (t, h, w) int32, or None
    zr_register: Optional[np.ndarray]  # (t,) int64, or None
    #: per entry that shaded textured fragments, in entry order: the
    #: entry, its fragment count, and every such fragment's (u, v) in
    #: row-major order within its entry, back to back
    texture_entry: np.ndarray
    texture_count: np.ndarray
    u: np.ndarray
    v: np.ndarray
