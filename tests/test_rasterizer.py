"""Tests for the tile-scoped edge-function rasterizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RenderState
from repro.geom import ScreenTriangle, VertexAttributes
from repro.kernels import batched
from repro.kernels.api import RASTER_ATTRIBUTES, normalize_winding
from repro.kernels.reference import ReferenceTileBatch, rasterize_rows
from repro.kernels.tile_geometry import valid_mask
from repro.math3d import Vec2, Vec4

from tests.strategies import edge_floats
from tests.tile_jobs import table_of


def make_triangle(points, z=(0.5, 0.5, 0.5), colors=None):
    if colors is None:
        colors = [Vec4(1, 1, 1, 1)] * 3
    return ScreenTriangle(
        xy=tuple(Vec2(*p) for p in points),
        z=z,
        attributes=tuple(VertexAttributes(color=c) for c in colors),
        command_id=0,
        primitive_id=0,
        state=RenderState.sprite_2d(),
    )


def rasterize(triangle, x0, y0, width, height):
    """The reference rasterizer on ``triangle``'s rows as submitted."""
    table = table_of([triangle])
    return rasterize_rows(table.window[0].tolist(),
                          table.attributes[0, :, :RASTER_ATTRIBUTES].tolist(),
                          x0, y0, width, height)


class TestCoverage:
    def test_full_tile_triangle(self):
        tri = make_triangle([(-10, -10), (50, -10), (-10, 50)])
        batch = rasterize(tri, 0, 0, 16, 16)
        assert batch is not None
        assert batch.fragment_count == 256

    def test_no_coverage_returns_none(self):
        tri = make_triangle([(100, 100), (110, 100), (100, 110)])
        assert rasterize(tri, 0, 0, 16, 16) is None

    def test_degenerate_returns_none(self):
        tri = make_triangle([(0, 0), (10, 10), (20, 20)])
        assert rasterize(tri, 0, 0, 16, 16) is None

    def test_winding_independent_coverage(self):
        ccw = make_triangle([(0, 0), (16, 0), (0, 16)])
        cw = make_triangle([(0, 0), (0, 16), (16, 0)])
        a = rasterize(ccw, 0, 0, 16, 16)
        b = rasterize(cw, 0, 0, 16, 16)
        assert np.array_equal(a.mask, b.mask)

    def test_half_tile_right_triangle(self):
        # Hypotenuse through the diagonal: about half the pixels.
        tri = make_triangle([(0, 0), (16, 0), (0, 16)])
        batch = rasterize(tri, 0, 0, 16, 16)
        assert 100 <= batch.fragment_count <= 156

    def test_pixel_center_sampling(self):
        # A quad-like triangle covering x in [0, 4), y in [0, 4): covers
        # pixel centers 0.5..3.5.
        tri = make_triangle([(0, 0), (4, 0), (0, 4)])
        batch = rasterize(tri, 0, 0, 16, 16)
        assert batch.mask[0, 0]
        assert not batch.mask[0, 4]

    def test_shared_edge_no_double_coverage(self):
        # Two triangles of a quad share the diagonal; every covered pixel
        # belongs to exactly one.
        a = make_triangle([(0, 0), (16, 0), (16, 16)])
        b = make_triangle([(0, 0), (16, 16), (0, 16)])
        batch_a = rasterize(a, 0, 0, 16, 16)
        batch_b = rasterize(b, 0, 0, 16, 16)
        overlap = batch_a.mask & batch_b.mask
        union = batch_a.mask | batch_b.mask
        assert not overlap.any()
        assert union.all()

    def test_tile_offset(self):
        tri = make_triangle([(16, 16), (48, 16), (16, 48)])
        tile0 = rasterize(tri, 0, 0, 16, 16)
        tile1 = rasterize(tri, 16, 16, 16, 16)
        assert tile0 is None or tile0.fragment_count == 0
        assert tile1.fragment_count > 0


class TestInterpolation:
    def test_depth_at_vertices(self):
        tri = make_triangle([(0, 0), (16, 0), (0, 16)], z=(0.0, 1.0, 0.5))
        batch = rasterize(tri, 0, 0, 16, 16)
        # Pixel (0.5, 0.5) is near vertex 0 (z=0).
        assert batch.depth[0, 0] < 0.1

    def test_depth_linear_along_edge(self):
        tri = make_triangle([(-16, 0), (32, 0), (0, 32)], z=(0.0, 1.0, 0.0))
        batch = rasterize(tri, 0, 0, 16, 16)
        row = batch.depth[1, :]
        mask_row = batch.mask[1, :]
        values = row[mask_row]
        assert (np.diff(values) > 0).all()  # monotonic left to right

    def test_flat_color(self):
        color = Vec4(0.25, 0.5, 0.75, 1.0)
        tri = make_triangle([(-10, -10), (50, -10), (-10, 50)],
                            colors=[color] * 3)
        batch = rasterize(tri, 0, 0, 16, 16)
        assert np.allclose(batch.rgba[batch.mask],
                           [0.25, 0.5, 0.75, 1.0])

    def test_gradient_color(self):
        colors = [Vec4(0, 0, 0, 1), Vec4(1, 0, 0, 1), Vec4(0, 0, 0, 1)]
        tri = make_triangle([(-16, 0), (32, 0), (0, 32)], colors=colors)
        batch = rasterize(tri, 0, 0, 16, 16)
        row = batch.rgba[1, :, 0]
        values = row[batch.mask[1, :]]
        assert (np.diff(values) > 0).all()

    def test_winding_swap_keeps_attribute_binding(self):
        colors = [Vec4(1, 0, 0, 1), Vec4(0, 1, 0, 1), Vec4(0, 0, 1, 1)]
        ccw = make_triangle([(0, 0), (16, 0), (0, 16)], z=(0.1, 0.5, 0.9),
                            colors=colors)
        cw = make_triangle([(0, 0), (0, 16), (16, 0)], z=(0.1, 0.9, 0.5),
                           colors=[colors[0], colors[2], colors[1]])
        a = rasterize(ccw, 0, 0, 16, 16)
        b = rasterize(cw, 0, 0, 16, 16)
        assert np.allclose(a.rgba[a.mask], b.rgba[b.mask])
        assert np.allclose(a.depth[a.mask], b.depth[b.mask])

    def test_uv_interpolation_range(self):
        tri = make_triangle([(-20, -20), (60, -20), (-20, 60)])
        batch = rasterize(tri, 0, 0, 16, 16)
        assert (batch.u[batch.mask] >= -0.01).all()
        assert (batch.v[batch.mask] >= -0.01).all()


class TestProperties:
    coords = st.floats(min_value=-40.0, max_value=60.0, allow_nan=False)

    @given(coords, coords, coords, coords, coords, coords)
    @settings(max_examples=80, deadline=None)
    def test_coverage_within_bbox(self, x0, y0, x1, y1, x2, y2):
        tri = make_triangle([(x0, y0), (x1, y1), (x2, y2)])
        batch = rasterize(tri, 0, 0, 16, 16)
        if batch is None:
            return
        min_x, min_y, max_x, max_y = tri.bounding_box()
        ys, xs = np.nonzero(batch.mask)
        assert (xs + 0.5 >= min_x - 1e-9).all()
        assert (xs + 0.5 <= max_x + 1e-9).all()
        assert (ys + 0.5 >= min_y - 1e-9).all()
        assert (ys + 0.5 <= max_y + 1e-9).all()

    @given(coords, coords, coords, coords, coords, coords)
    @settings(max_examples=80, deadline=None)
    def test_depth_within_vertex_range(self, x0, y0, x1, y1, x2, y2):
        tri = make_triangle([(x0, y0), (x1, y1), (x2, y2)],
                            z=(0.2, 0.7, 0.4))
        batch = rasterize(tri, 0, 0, 16, 16)
        if batch is None:
            return
        covered = batch.depth[batch.mask]
        assert (covered >= 0.2 - 1e-9).all()
        assert (covered <= 0.7 + 1e-9).all()


_COORD = edge_floats(-20.0, 36.0, ties=(0.5, 8.0, 15.5, 16.0))
_DEPTH = edge_floats(0.0, 1.0, ties=(0.5,))
_CHANNEL = edge_floats(-1.0, 1.0, ties=(0.5,))


@given(xy=st.lists(_COORD, min_size=6, max_size=6),
       z=st.lists(_DEPTH, min_size=3, max_size=3),
       channels=st.lists(_CHANNEL, min_size=12, max_size=12))
@settings(max_examples=150, deadline=None)
def test_normalized_winding_rasterizes_alike(xy, z, channels):
    """``normalize_winding`` leaves no row with a negative signed area,
    and both backends rasterize the normalized row (what the raster
    pipeline hands a tile job) to the bits the reference gives the row
    as submitted."""
    tri = make_triangle(list(zip(xy[0::2], xy[1::2])), z=tuple(z),
                        colors=[Vec4(*channels[i:i + 4]) for i in (0, 4, 8)])
    table = table_of([tri])
    window, attributes = normalize_winding(
        table.window, table.attributes[:, :, :RASTER_ATTRIBUTES])
    (x0, y0, _), (x1, y1, _), (x2, y2, _) = window[0].tolist()
    assert not (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) < 0.0
    expected = rasterize(tri, 0, 0, 16, 16)
    valid = valid_mask(0, 0, 16, 16, 16, 16)
    for batch in (ReferenceTileBatch(window, attributes, 0, 0, 16, 16,
                                     valid),
                  batched.prepare_tile(window, attributes, 0, 0, 16, 16,
                                       valid)):
        actual = batch.fragments(0)
        if expected is None:
            assert actual is None
            continue
        mask = expected.mask
        assert np.array_equal(actual.mask, mask)
        for name in ("depth", "rgba", "u", "v"):
            assert (getattr(actual, name)[mask].tobytes()
                    == getattr(expected, name)[mask].tobytes()), name


# Corner-test coordinates: around a 2x2-tile screen whose right and
# bottom tiles are partial (24x20 pixels), often on pixel centres and
# tile edges, and at magnitudes where the edge products overflow.
_SCREEN = (24, 20)
_CORNER_COORD = st.one_of(
    edge_floats(-8.0, 40.0, ties=(0.5, 7.5, 15.5, 16.0, 16.5, 19.5, 20.0,
                                  23.5, 24.0, 31.5, 32.0)),
    st.sampled_from([1e300, -1e300, 1.5e308, -1.5e308, 1e154, -1e154]),
    st.floats(min_value=-1.7e308, max_value=1.7e308, allow_nan=False),
)


@given(xy=st.lists(_CORNER_COORD, min_size=6, max_size=6),
       tile=st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]))
@settings(max_examples=400, deadline=None)
def test_corner_test_never_drops_a_live_entry(xy, tile):
    """``corner_dead`` marks an entry dead only when the reference finds
    no pixel centre of the tile covered; and the numpy batch, which
    skips the entries it marks, still matches the reference's coverage
    of the tile's valid pixels."""
    tri = make_triangle(list(zip(xy[0::2], xy[1::2])))
    tile_x, tile_y = tile
    x0, y0 = 16 * tile_x, 16 * tile_y
    valid = valid_mask(tile_x, tile_y, 16, 16, *_SCREEN)
    with np.errstate(all="ignore"):
        table = table_of([tri])
        window, attributes = normalize_winding(
            table.window, table.attributes[:, :, :RASTER_ATTRIBUTES])
        dead = batched.corner_dead(batched.edges(window), np.array([x0]),
                                   np.array([y0]), 16, 16)[0]
        expected = rasterize_rows(window[0].tolist(),
                                  attributes[0].tolist(), x0, y0, 16, 16)
        actual = batched.prepare_tile(window, attributes, x0, y0, 16, 16,
                                      valid).fragments(0)
    if expected is not None:
        assert not dead
    covered = (np.zeros((16, 16), dtype=bool) if expected is None
               else expected.mask & valid)
    if covered.any():
        assert np.array_equal(actual.mask, covered)
    else:
        assert actual is None
