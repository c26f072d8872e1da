"""Tests for repro.geom: vertices, triangles, meshes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import RenderState
from repro.geom import (
    ScreenTriangle,
    Triangle,
    Vertex,
    VertexAttributes,
    box_mesh,
    grid_mesh,
    quad,
    screen_quad,
    sprite_quad,
)
from repro.geom.triangle import tile_span, tile_spans
from repro.math3d import Vec2, Vec3, Vec4


def make_screen_triangle(points, z=(0.5, 0.5, 0.5), state=None):
    return ScreenTriangle(
        xy=tuple(Vec2(*p) for p in points),
        z=z,
        attributes=(VertexAttributes(), VertexAttributes(), VertexAttributes()),
        command_id=0,
        primitive_id=0,
        state=state or RenderState.sprite_2d(),
    )


class TestVertexAttributes:
    def test_pack_deterministic(self):
        attrs = VertexAttributes(color=Vec4(1, 0, 0, 1), uv=Vec2(0.5, 0.5))
        assert attrs.pack() == attrs.pack()

    def test_pack_differs_on_color_change(self):
        a = VertexAttributes(color=Vec4(1, 0, 0, 1))
        b = VertexAttributes(color=Vec4(0, 1, 0, 1))
        assert a.pack() != b.pack()

    def test_pack_length_constant(self):
        assert len(VertexAttributes().pack()) == len(
            VertexAttributes(color=Vec4(0.1, 0.2, 0.3, 0.4)).pack()
        )

    def test_with_color(self):
        attrs = VertexAttributes(uv=Vec2(1, 2))
        recolored = attrs.with_color(Vec4(0, 0, 1, 1))
        assert recolored.color == Vec4(0, 0, 1, 1)
        assert recolored.uv == Vec2(1, 2)


class TestVertexAndTriangle:
    def test_vertex_pack_includes_position(self):
        a = Vertex(Vec3(0, 0, 0))
        b = Vertex(Vec3(1, 0, 0))
        assert a.pack() != b.pack()

    def test_triangle_pack_is_concatenation(self):
        v = [Vertex(Vec3(float(i), 0, 0)) for i in range(3)]
        tri = Triangle(*v)
        assert tri.pack() == v[0].pack() + v[1].pack() + v[2].pack()
        assert tri.vertices == (v[0], v[1], v[2])


class TestScreenTriangle:
    def test_z_near_far(self):
        tri = make_screen_triangle(
            [(0, 0), (10, 0), (0, 10)], z=(0.2, 0.9, 0.5)
        )
        assert tri.z_near == 0.2
        assert tri.z_far == 0.9

    def test_signed_area_orientation(self):
        ccw_math = make_screen_triangle([(0, 0), (1, 0), (1, 1)])
        assert ccw_math.signed_area() > 0
        flipped = make_screen_triangle([(0, 0), (1, 1), (1, 0)])
        assert flipped.signed_area() < 0

    def test_bounding_box(self):
        tri = make_screen_triangle([(5, 2), (10, 8), (1, 6)])
        assert tri.bounding_box() == (1, 2, 10, 8)

    def test_state_properties(self):
        woz = make_screen_triangle([(0, 0), (1, 0), (0, 1)],
                                   state=RenderState.opaque_3d())
        nwoz = make_screen_triangle([(0, 0), (1, 0), (0, 1)],
                                    state=RenderState.sprite_2d())
        assert woz.writes_z and woz.opaque
        assert not nwoz.writes_z

    class TestOverlappedTiles:
        """The binning span, scalar and array forms, of a triangle's
        bounding box."""

        @staticmethod
        def overlapped(tri, tiles_x, tiles_y):
            """The tiles both forms list, asserting they agree (an empty
            span may end at a different negative tile in each)."""
            bbox = tri.bounding_box()
            tiles = [
                tuple((tx, ty) for ty in range(first_ty, last_ty + 1)
                      for tx in range(first_tx, last_tx + 1))
                for first_tx, first_ty, last_tx, last_ty in (
                    tile_span(bbox, 16, 16, tiles_x, tiles_y),
                    tile_spans(np.array([bbox]), 16, 16, tiles_x,
                               tiles_y)[0].tolist())
            ]
            assert tiles[0] == tiles[1]
            return tiles[0]

        def test_single_tile(self):
            tri = make_screen_triangle([(1, 1), (10, 1), (1, 10)])
            assert self.overlapped(tri, 4, 3) == ((0, 0),)

        def test_spanning_tiles(self):
            tri = make_screen_triangle([(1, 1), (40, 1), (1, 40)])
            tiles = self.overlapped(tri, 4, 3)
            assert set(tiles) == {(tx, ty) for tx in range(3) for ty in range(3)}

        def test_clamped_to_screen(self):
            tri = make_screen_triangle([(-50, -50), (500, -50), (-50, 500)])
            tiles = self.overlapped(tri, 4, 3)
            assert set(tiles) == {(tx, ty) for tx in range(4) for ty in range(3)}

        def test_fully_offscreen(self):
            tri = make_screen_triangle([(-50, -50), (-10, -50), (-50, -10)])
            assert self.overlapped(tri, 4, 3) == ()

        @given(
            st.floats(min_value=-100, max_value=200),
            st.floats(min_value=-100, max_value=200),
            st.floats(min_value=1, max_value=80),
        )
        def test_conservative_covers_bbox(self, x, y, size):
            tri = make_screen_triangle([(x, y), (x + size, y), (x, y + size)])
            tiles = self.overlapped(tri, 8, 8)
            # Every on-screen vertex's tile must be listed.
            for vx, vy in [(x, y), (x + size, y), (x, y + size)]:
                if 0 <= vx < 128 and 0 <= vy < 128:
                    assert (int(vx) // 16, int(vy) // 16) in tiles


class TestMeshBuilders:
    def test_quad_two_triangles(self):
        mesh = quad(Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0))
        assert len(mesh) == 2

    def test_quad_normal_along_cross(self):
        mesh = quad(Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0))
        assert (mesh.attributes[:, :, 6:] == (0.0, 0.0, 1.0)).all()

    def test_screen_quad_covers_rect(self):
        mesh = screen_quad(10, 20, 30, 40)
        xs, ys = mesh.positions[:, :, 0], mesh.positions[:, :, 1]
        assert xs.min() == 10 and xs.max() == 40
        assert ys.min() == 20 and ys.max() == 60

    def test_sprite_quad_centered(self):
        mesh = sprite_quad(Vec2(50, 50), Vec2(20, 10))
        xs, ys = mesh.positions[:, :, 0], mesh.positions[:, :, 1]
        assert xs.min() == 40 and xs.max() == 60
        assert ys.min() == 45 and ys.max() == 55

    def test_grid_mesh_count(self):
        mesh = grid_mesh(Vec3(0, 0, 0), Vec3(4, 0, 0), Vec3(0, 4, 0), 4, 3)
        assert len(mesh) == 2 * 4 * 3

    def test_grid_mesh_validates(self):
        with pytest.raises(ValueError):
            grid_mesh(Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0), 0, 1)

    def test_box_mesh_twelve_triangles(self):
        assert len(box_mesh(Vec3(0, 0, 0), Vec3(1, 1, 1))) == 12

    def test_box_mesh_extents(self):
        mesh = box_mesh(Vec3(1, 2, 3), Vec3(2, 4, 6))
        assert mesh.positions.min(axis=(0, 1)).tolist() == [0, 0, 0]
        assert mesh.positions.max(axis=(0, 1)).tolist() == [2, 4, 6]

    def test_recolored(self):
        mesh = quad(Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0)).recolored(
            Vec4(0.1, 0.2, 0.3, 1.0)
        )
        assert (mesh.attributes[:, :, :4] == (0.1, 0.2, 0.3, 1.0)).all()
        assert (mesh.attributes[:, :, 4:] == quad(
            Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0)
        ).attributes[:, :, 4:]).all()

    def test_mesh_extend(self):
        a = quad(Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0))
        b = quad(Vec3(2, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0))
        combined = a.extend(b)
        assert combined is a
        assert len(a) == 4
