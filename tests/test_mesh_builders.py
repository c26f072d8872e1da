"""The array mesh builders against the scalar ``Vec3`` oracle.

Every builder of :mod:`repro.geom.mesh` must give the vertex arrays the
object builders of ``tests/mesh_oracle.py`` give, bit for bit: the
float64 bit patterns are compared, so signed zeros count.  A NaN matches
any NaN (its payload is the hardware's choice; no scene makes one).

Inputs are floats — integer values, negatives, both zeros, subnormals,
infinities — and zero-length or parallel edges, whose quads take the
``(0, 0, 1)`` normal.  :func:`screen_quad`, :func:`sprite_quad` and
:func:`grid_mesh` also take Python ints, as scenes pass them: their
arithmetic gives what the equal floats give.  (The array builders
compute in float64 throughout, so ``quad`` or ``box_mesh`` with integer
edges or sizes can have ``-0.0`` in a normal where the scalar code's
int arithmetic gave ``0``.  No scene in ``repro.scenes`` passes them;
``examples/custom_scene.py`` does, and prints the same numbers and
frames as before: a normal reaches only the RE signature's bytes.)
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DrawCommand, RenderState
from repro.geom import (
    Mesh,
    box_mesh,
    box_meshes,
    grid_mesh,
    grid_meshes,
    quad,
    quads,
    screen_quad,
    sprite_quad,
)
from repro.math3d import Vec2, Vec3, Vec4
from repro.scenes.motion import (
    CircularMotion,
    JitterMotion,
    LinearOscillation,
    StaticMotion,
)
from repro.scenes.scene import Layer2D, SpriteSpec
from repro.scenes.scene3d import BoxSpec, Scene3D

from . import mesh_oracle as oracle
from .strategies import EDGE_FLOATS

#: Floats: integer values (negatives and both zeros among them),
#: subnormals, and any float up to the infinities.
_FLOAT = st.one_of(
    st.integers(min_value=-8, max_value=8).map(float),
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False),
)
#: A float, or a small Python int.
_NUMBER = st.one_of(_FLOAT, st.integers(min_value=-8, max_value=8))
#: Colour channels.
_CHANNEL = st.one_of(st.sampled_from((0.0, -0.0, 1.0, 0.5)),
                     st.floats(min_value=-2.0, max_value=2.0))

_COLOR = st.builds(Vec4, _CHANNEL, _CHANNEL, _CHANNEL, _CHANNEL)
_DIVISIONS = st.integers(min_value=1, max_value=4)


def _vec3(value=_FLOAT):
    return st.builds(Vec3, value, value, value)


@st.composite
def _edges(draw, value=_FLOAT):
    """Two edges: free, one of them zero-length, or parallel."""
    edge_u = draw(_vec3(value))
    kind = draw(st.sampled_from(("free", "zero-u", "zero-v", "parallel")))
    if kind == "zero-u":
        return draw(st.sampled_from((Vec3(0.0, 0.0, 0.0),
                                     Vec3(-0.0, 0.0, -0.0)))), edge_u
    if kind == "zero-v":
        return edge_u, Vec3(0.0, -0.0, 0.0)
    if kind == "parallel":
        return edge_u, edge_u * draw(_FLOAT)
    return edge_u, draw(_vec3(value))


def _bits(values: np.ndarray) -> np.ndarray:
    """The float64 bit patterns of ``values``, every NaN one pattern."""
    values = np.asarray(values, dtype=np.float64)
    bits = values.view(np.uint64).copy()
    bits[np.isnan(values)] = 0x7FF8000000000000
    return bits


def _vertices(mesh: Mesh) -> np.ndarray:
    return np.concatenate((mesh.positions, mesh.attributes), axis=2)


def assert_same(mesh: Mesh, expected: oracle.ObjectMesh) -> None:
    actual = _vertices(mesh)
    wanted = oracle.vertex_array(expected.triangles)
    assert actual.shape == wanted.shape
    assert np.array_equal(_bits(actual), _bits(wanted))


@settings(deadline=None)
@given(corner=_vec3(), edges=_edges(), color=_COLOR)
def test_quad(corner, edges, color):
    assert_same(quad(corner, *edges, color), oracle.quad(corner, *edges,
                                                         color))


@settings(deadline=None)
@given(x=_NUMBER, y=_NUMBER, width=_NUMBER, height=_NUMBER, z=_NUMBER,
       color=_COLOR)
def test_screen_quad(x, y, width, height, z, color):
    assert_same(screen_quad(x, y, width, height, z, color),
                oracle.screen_quad(x, y, width, height, z, color))


@settings(deadline=None)
@given(center=st.builds(Vec2, _NUMBER, _NUMBER),
       size=st.builds(Vec2, _NUMBER, _NUMBER), z=_NUMBER, color=_COLOR)
def test_sprite_quad(center, size, z, color):
    assert_same(sprite_quad(center, size, z, color),
                oracle.sprite_quad(center, size, z, color))


@settings(deadline=None)
@given(corner=_vec3(_NUMBER), edges=_edges(_NUMBER),
       divisions_u=_DIVISIONS, divisions_v=_DIVISIONS, color=_COLOR)
def test_grid_mesh(corner, edges, divisions_u, divisions_v, color):
    assert_same(
        grid_mesh(corner, *edges, divisions_u, divisions_v, color),
        oracle.grid_mesh(corner, *edges, divisions_u, divisions_v, color))


def test_grid_mesh_rejects_empty_grids():
    for divisions in ((0, 1), (1, 0), (-1, 2)):
        with pytest.raises(ValueError):
            grid_mesh(Vec3(), Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0),
                      *divisions)


@settings(deadline=None)
@given(center=_vec3(), size=_vec3(), color=_COLOR)
def test_box_mesh(center, size, color):
    assert_same(box_mesh(center, size, color),
                oracle.box_mesh(center, size, color))


@settings(deadline=None)
@given(rows=st.lists(st.tuples(_vec3(), _edges(), _vec3(), _COLOR),
                     min_size=1, max_size=5),
       divisions_u=_DIVISIONS, divisions_v=_DIVISIONS,
       one_color=st.booleans())
def test_plural_builders_are_their_rows_in_turn(rows, divisions_u,
                                                divisions_v, one_color):
    """``quads``, ``grid_meshes`` and ``box_meshes`` of k rows give the
    oracle's meshes of the rows one after another, with one colour for
    all or one per row."""
    corners = [tuple(corner) for corner, _, _, _ in rows]
    edges_u = [tuple(edges[0]) for _, edges, _, _ in rows]
    edges_v = [tuple(edges[1]) for _, edges, _, _ in rows]
    sizes = [tuple(size) for _, _, size, _ in rows]
    colors = [rows[0][3] if one_color else color for *_, color in rows]
    color_arg = rows[0][3] if one_color else [tuple(c) for c in colors]

    def joined(meshes):
        out = oracle.ObjectMesh()
        for mesh in meshes:
            out.extend(mesh)
        return out

    assert_same(quads(corners, edges_u, edges_v, color_arg), joined(
        oracle.quad(corner, *edges, color)
        for (corner, edges, _, _), color in zip(rows, colors)))
    assert_same(
        grid_meshes(corners, edges_u, edges_v, divisions_u, divisions_v,
                    color_arg),
        joined(oracle.grid_mesh(corner, *edges, divisions_u, divisions_v,
                                color)
               for (corner, edges, _, _), color in zip(rows, colors)))
    assert_same(box_meshes(corners, sizes, color_arg), joined(
        oracle.box_mesh(corner, size, color)
        for (corner, _, size, _), color in zip(rows, colors)))


@settings(deadline=None)
@given(first=st.tuples(_vec3(), _edges(), _COLOR),
       second=st.tuples(_vec3(), _vec3(), _COLOR), color=_COLOR)
def test_recolored_and_extend(first, second, color):
    corner, edges, first_color = first
    center, size, second_color = second
    mesh = quad(corner, *edges, first_color)
    expected = oracle.quad(corner, *edges, first_color)
    recolored = mesh.recolored(color)
    expected_recolored = expected.recolored(color)
    assert_same(recolored, expected_recolored)
    # recolored copies: the source keeps its colours.
    assert_same(mesh, expected)
    extended = mesh.extend(box_mesh(center, size, second_color))
    assert extended is mesh
    assert_same(mesh, expected.extend(
        oracle.box_mesh(center, size, second_color)))
    assert_same(Mesh().extend(recolored, mesh),
                oracle.ObjectMesh(list(expected_recolored) + list(expected)))
    assert_same(mesh[2:6], oracle.ObjectMesh(expected.triangles[2:6]))


_MOTION = st.one_of(
    st.just(StaticMotion()),
    st.builds(LinearOscillation,
              st.builds(Vec3, _CHANNEL, _CHANNEL, st.just(0.0)),
              st.floats(min_value=2.0, max_value=40.0),
              st.floats(min_value=0.0, max_value=6.3)),
    st.builds(CircularMotion, st.floats(min_value=0.0, max_value=30.0),
              st.floats(min_value=2.0, max_value=40.0)),
    st.builds(JitterMotion, st.floats(min_value=0.0, max_value=30.0),
              st.integers(min_value=0, max_value=1000)),
)
_SPRITE = st.builds(
    SpriteSpec,
    center=st.builds(Vec2, _NUMBER, _NUMBER),
    size=st.builds(Vec2, _NUMBER, _NUMBER),
    color=_COLOR,
    motion=_MOTION,
)


@settings(deadline=None)
@given(sprites=st.lists(_SPRITE, max_size=6), subdivisions=_DIVISIONS,
       frame=st.integers(min_value=0, max_value=60))
def test_layer_builds_every_sprite_in_one_pass(sprites, subdivisions,
                                               frame):
    layer = Layer2D("fuzz", sprites, subdivisions=subdivisions)
    assert_same(layer.build_mesh(frame), oracle.layer_mesh(layer, frame))


#: Finite box coordinates.
_COORD = st.one_of(st.integers(min_value=-8, max_value=8).map(float),
                   st.floats(min_value=-50.0, max_value=50.0))


@settings(deadline=None, max_examples=40)
@given(boxes=st.lists(st.tuples(st.builds(Vec3, _COORD, _COORD, _COORD),
                                st.builds(Vec3, _COORD, _COORD, _COORD),
                                _COLOR, st.booleans()),
                      min_size=1, max_size=5),
       frames=st.lists(st.integers(min_value=0, max_value=40), min_size=1,
                       max_size=3))
def test_scene_boxes_are_the_oracle_boxes(boxes, frames):
    """A 3D scene's boxes — static ones built once and reused, moving
    ones built together each frame — are each the oracle's box at the
    box's centre that frame."""
    specs = [BoxSpec(center, size, color, name=f"box{index}",
                     motion=(LinearOscillation(Vec3(1.5, 0.0, -0.5), 9.0)
                             if moving else StaticMotion()))
             for index, (center, size, color, moving) in enumerate(boxes)]
    scene = Scene3D(64, 48, boxes=specs, draw_order="submission")
    for index in frames:
        commands = {command.label: command
                    for command in scene.build_frame(index).commands}
        for spec in specs:
            assert_same(
                Mesh(commands[spec.name].positions,
                     commands[spec.name].attributes),
                oracle.box_mesh(spec.center + spec.motion.offset(index),
                                spec.size, spec.color))


@settings(deadline=None)
@given(corner=_vec3(), edges=_edges(), divisions=_DIVISIONS,
       color=_COLOR)
def test_command_from_triangles_matches_command_from_mesh(
        corner, edges, divisions, color):
    """A command built from a triangle list holds the arrays of one
    built from the same mesh, and both give the same ``triangles``."""
    mesh = grid_mesh(corner, *edges, divisions, 1, color)
    expected = oracle.grid_mesh(corner, *edges, divisions, 1, color)
    state = RenderState.sprite_2d()
    from_list = DrawCommand(expected.triangles, state=state, label="list")
    from_mesh = DrawCommand.from_mesh(mesh, state=state, label="mesh")
    for command in (from_list, from_mesh):
        assert np.array_equal(_bits(_vertices(command)),
                              _bits(_vertices(mesh)))
        assert command.triangle_count == len(expected)
        assert command.vertex_count == 3 * len(expected)
        assert np.array_equal(
            _bits(oracle.vertex_array(command.triangles)),
            _bits(oracle.vertex_array(expected.triangles)))
        # The view is built once.
        assert command.triangles is command.triangles


def test_a_mesh_is_indexed_by_slices_only():
    mesh = quad(Vec3(), Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0))
    with pytest.raises(TypeError):
        mesh[0]
    with pytest.raises(TypeError):
        iter(mesh).__next__()
