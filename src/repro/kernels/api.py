"""The array contracts shared by every kernel backend.

A backend is a module exposing the following attributes (see
``docs/architecture.md`` §10 for the prose version):

``NAME``
    The canonical backend name (``"python"``, ``"numpy"``).

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
    coordinate in ``xy``/``z`` is a Python ``float``.  A triangle with a
    non-finite clip-space coordinate raises :func:`non_finite_vertex`'s
    ``PipelineError`` — the first such triangle in submission order.

``prepare_tile(entries, x0, y0, tile_width, tile_height, valid)``
    Build a tile batch for one display list.  Returns an object with a
    single method ``fragments(index) -> Optional[Fragments]`` yielding
    the rasterization of ``entries[index]`` against the tile — ``None``
    when the entry covers no on-screen pixel center (bounding-box
    binning is conservative, so this is common).  ``fragments`` must be
    side-effect free and stable: calling it twice returns the same
    values (the prepasses and the main loop share one batch).

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
same association order), and the returned counts must match.  The
property suites in ``tests/test_kernels.py`` and
``tests/test_geometry_backends.py`` enforce this on fuzzed scenes; it is
what lets the disk cache share entries across backends.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import PipelineError

#: Primitive Assembly rejects a triangle with any vertex at ``w`` at or
#: below this (near-plane clipping is not modelled: such triangles are
#: dropped whole).
W_EPSILON = 1e-6


def non_finite_vertex(command, command_id: int,
                      triangle_index: int) -> PipelineError:
    """The error both ``assemble`` paths raise for a triangle whose
    clip-space position has a NaN or infinite coordinate (a degenerate
    matrix or vertex; binning it would silently produce garbage)."""
    return PipelineError(
        f"draw command {command_id} ({command.label!r}): triangle "
        f"{triangle_index} has a non-finite clip-space vertex"
    )


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
