"""Tests for the tile-scoped edge-function rasterizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RenderState
from repro.geom import ScreenTriangle, VertexAttributes
from repro.math3d import Vec2, Vec4
from repro.kernels.reference import rasterize_in_tile


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
        signature_bytes=b"",
    )


class TestCoverage:
    def test_full_tile_triangle(self):
        tri = make_triangle([(-10, -10), (50, -10), (-10, 50)])
        batch = rasterize_in_tile(tri, 0, 0, 16, 16)
        assert batch is not None
        assert batch.fragment_count == 256

    def test_no_coverage_returns_none(self):
        tri = make_triangle([(100, 100), (110, 100), (100, 110)])
        assert rasterize_in_tile(tri, 0, 0, 16, 16) is None

    def test_degenerate_returns_none(self):
        tri = make_triangle([(0, 0), (10, 10), (20, 20)])
        assert rasterize_in_tile(tri, 0, 0, 16, 16) is None

    def test_winding_independent_coverage(self):
        ccw = make_triangle([(0, 0), (16, 0), (0, 16)])
        cw = make_triangle([(0, 0), (0, 16), (16, 0)])
        a = rasterize_in_tile(ccw, 0, 0, 16, 16)
        b = rasterize_in_tile(cw, 0, 0, 16, 16)
        assert np.array_equal(a.mask, b.mask)

    def test_half_tile_right_triangle(self):
        # Hypotenuse through the diagonal: about half the pixels.
        tri = make_triangle([(0, 0), (16, 0), (0, 16)])
        batch = rasterize_in_tile(tri, 0, 0, 16, 16)
        assert 100 <= batch.fragment_count <= 156

    def test_pixel_center_sampling(self):
        # A quad-like triangle covering x in [0, 4), y in [0, 4): covers
        # pixel centers 0.5..3.5.
        tri = make_triangle([(0, 0), (4, 0), (0, 4)])
        batch = rasterize_in_tile(tri, 0, 0, 16, 16)
        assert batch.mask[0, 0]
        assert not batch.mask[0, 4]

    def test_shared_edge_no_double_coverage(self):
        # Two triangles of a quad share the diagonal; every covered pixel
        # belongs to exactly one.
        a = make_triangle([(0, 0), (16, 0), (16, 16)])
        b = make_triangle([(0, 0), (16, 16), (0, 16)])
        batch_a = rasterize_in_tile(a, 0, 0, 16, 16)
        batch_b = rasterize_in_tile(b, 0, 0, 16, 16)
        overlap = batch_a.mask & batch_b.mask
        union = batch_a.mask | batch_b.mask
        assert not overlap.any()
        assert union.all()

    def test_tile_offset(self):
        tri = make_triangle([(16, 16), (48, 16), (16, 48)])
        tile0 = rasterize_in_tile(tri, 0, 0, 16, 16)
        tile1 = rasterize_in_tile(tri, 16, 16, 16, 16)
        assert tile0 is None or tile0.fragment_count == 0
        assert tile1.fragment_count > 0


class TestInterpolation:
    def test_depth_at_vertices(self):
        tri = make_triangle([(0, 0), (16, 0), (0, 16)], z=(0.0, 1.0, 0.5))
        batch = rasterize_in_tile(tri, 0, 0, 16, 16)
        # Pixel (0.5, 0.5) is near vertex 0 (z=0).
        assert batch.depth[0, 0] < 0.1

    def test_depth_linear_along_edge(self):
        tri = make_triangle([(-16, 0), (32, 0), (0, 32)], z=(0.0, 1.0, 0.0))
        batch = rasterize_in_tile(tri, 0, 0, 16, 16)
        row = batch.depth[1, :]
        mask_row = batch.mask[1, :]
        values = row[mask_row]
        assert (np.diff(values) > 0).all()  # monotonic left to right

    def test_flat_color(self):
        color = Vec4(0.25, 0.5, 0.75, 1.0)
        tri = make_triangle([(-10, -10), (50, -10), (-10, 50)],
                            colors=[color] * 3)
        batch = rasterize_in_tile(tri, 0, 0, 16, 16)
        assert np.allclose(batch.rgba[batch.mask],
                           [0.25, 0.5, 0.75, 1.0])

    def test_gradient_color(self):
        colors = [Vec4(0, 0, 0, 1), Vec4(1, 0, 0, 1), Vec4(0, 0, 0, 1)]
        tri = make_triangle([(-16, 0), (32, 0), (0, 32)], colors=colors)
        batch = rasterize_in_tile(tri, 0, 0, 16, 16)
        row = batch.rgba[1, :, 0]
        values = row[batch.mask[1, :]]
        assert (np.diff(values) > 0).all()

    def test_winding_swap_keeps_attribute_binding(self):
        colors = [Vec4(1, 0, 0, 1), Vec4(0, 1, 0, 1), Vec4(0, 0, 1, 1)]
        ccw = make_triangle([(0, 0), (16, 0), (0, 16)], z=(0.1, 0.5, 0.9),
                            colors=colors)
        cw = make_triangle([(0, 0), (0, 16), (16, 0)], z=(0.1, 0.9, 0.5),
                           colors=[colors[0], colors[2], colors[1]])
        a = rasterize_in_tile(ccw, 0, 0, 16, 16)
        b = rasterize_in_tile(cw, 0, 0, 16, 16)
        assert np.allclose(a.rgba[a.mask], b.rgba[b.mask])
        assert np.allclose(a.depth[a.mask], b.depth[b.mask])

    def test_uv_interpolation_range(self):
        tri = make_triangle([(-20, -20), (60, -20), (-20, 60)])
        batch = rasterize_in_tile(tri, 0, 0, 16, 16)
        assert (batch.u[batch.mask] >= -0.01).all()
        assert (batch.v[batch.mask] >= -0.01).all()


class TestProperties:
    coords = st.floats(min_value=-40.0, max_value=60.0, allow_nan=False)

    @given(coords, coords, coords, coords, coords, coords)
    @settings(max_examples=80, deadline=None)
    def test_coverage_within_bbox(self, x0, y0, x1, y1, x2, y2):
        tri = make_triangle([(x0, y0), (x1, y1), (x2, y2)])
        batch = rasterize_in_tile(tri, 0, 0, 16, 16)
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
        batch = rasterize_in_tile(tri, 0, 0, 16, 16)
        if batch is None:
            return
        covered = batch.depth[batch.mask]
        assert (covered >= 0.2 - 1e-9).all()
        assert (covered <= 0.7 + 1e-9).all()
