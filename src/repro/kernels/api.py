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
    that survives with a non-finite window-space x, y or clamped z,
    raises :func:`non_finite_vertex`'s ``PipelineError``.

``assemble_frame(commands, mvps, viewport) -> FrameGeometry``
    ``assemble`` for every command of a frame at once, command ``i``
    under ``mvps[i]`` with command id ``i``: the survivors of all
    commands in submission order, plus the columns binning reads (see
    :class:`FrameGeometry`), binned in array passes.  It raises the
    error ``assemble`` would raise for the frame's first faulty
    triangle, and never returns None.

``prepare_tile(entries, x0, y0, tile_width, tile_height, valid)``
    Build a tile batch for one display list.  Returns an object with a
    single method ``fragments(index) -> Optional[Fragments]`` yielding
    the rasterization of ``entries[index]`` against the tile — ``None``
    when the entry covers no on-screen pixel center (bounding-box
    binning is conservative, so this is common).  ``fragments`` must be
    side-effect free and stable: calling it twice returns the same
    values (the prepasses and the main loop share one batch).  Callers
    use nothing else of a batch: perfbench's traced run hands them a
    proxy that forwards only ``fragments``.

Optional, exported only by backends that resolve opaque runs in one
pass (the numpy backend); ``TileJob`` keeps its per-entry loop when it
is missing:

``resolve_opaque_run(run, depth_tested, writes_z, textured, predicted,
layer_ids, depth, color, pending, taint, layers) -> OpaqueRun``
    Resolve a run of consecutive ``BlendMode.OPAQUE`` entries under
    Early-Z with ``less`` depth tests exactly as the per-entry loop
    would, in one array pass, updating the tile buffers in place
    (``layers`` may be None).  ``run`` is the batch's
    ``fragments(slice(start, stop))`` — such a backend's batches also
    take a slice of entries and return their :class:`RunFragments`,
    nothing interpolated but depth.  The per-entry flags are
    ``(stop - start,)`` arrays.  See :class:`OpaqueRun`.

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

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..errors import PipelineError
from ..geom import ScreenTriangle

#: Primitive Assembly rejects a triangle with any vertex at ``w`` at or
#: below this (near-plane clipping is not modelled: such triangles are
#: dropped whole).
W_EPSILON = 1e-6


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


class FrameGeometry(NamedTuple):
    """A frame's assembled primitives as a table: row ``s`` is the
    frame's ``s``-th surviving triangle, in submission order.  The
    columns hold exactly the values the scalar Polygon List Builder
    reads from each ``ScreenTriangle``."""

    survivors: List[ScreenTriangle]
    command: np.ndarray      # (s,) int64  — the draw command's index
    window: np.ndarray       # (s, 3, 3) float64 — (x, y, z) per vertex
    bbox: np.ndarray         # (s, 4) float64 — bounding_box()
    z_near: np.ndarray       # (s,) float64 — the three prediction depths
    z_centroid: np.ndarray
    z_far: np.ndarray


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
    """Entries ``start..stop-1`` of a tile batch rasterized, with nothing
    interpolated but depth: what ``fragments(slice(start, stop))``
    returns.  Rows are the run's live entries (nonzero coverage), in
    order; the run's other entries are dead.
    """

    counts: List[int]        # covered pixels per entry of the run
    position: np.ndarray     # (r,) intp — each row's place in the run
    covered: np.ndarray      # bool     — (r, h, w) coverage
    depth: np.ndarray        # float64  — (r, h, w) interpolated depth
    bary: np.ndarray         # float64  — (r, 3, h, w) barycentrics
    #: (r, 3, 7) per-vertex (z, r, g, b, a, u, v), in the
    #: winding-normalized vertex order the barycentrics use
    attributes: np.ndarray


class OpaqueRun(NamedTuple):
    """What ``resolve_opaque_run`` reports about a run of ``k`` entries.

    An entry passes where it covers the pixel and, if depth-tested, its
    depth is ``<`` the minimum of the Z-buffer and every earlier Z-writer
    of the run covering the pixel; under Early-Z every passing fragment
    is shaded and written.  The kernel leaves each buffer as the loop
    would: depth from the last passing Z-writer, colour, taint and layer
    from the last passing entry, ``pending`` at 1 where anything passed.
    """

    passed: np.ndarray   # (k,) int64 — passing fragments per entry
    overdrawn: int       # pending + passes - 1, summed over touched pixels
    #: per entry: the (u, v) of its passing fragments in row-major
    #: order when it is textured and passed anywhere, else None
    texcoords: List[Optional[Tuple[np.ndarray, np.ndarray]]]
