"""Meshes as vertex arrays, and the builders the synthetic scenes use.

A :class:`Mesh` is an ordered batch of object-space triangles held as
two float64 arrays, the vertex arrays a GLES application hands the GPU:
``positions`` ``(n, 3, 3)``, each vertex's ``(x, y, z)``, and
``attributes`` ``(n, 3, 9)``, each vertex's ``(r, g, b, a, u, v, nx, ny,
nz)`` in :meth:`VertexAttributes.pack` order.  Draw commands carry these
arrays to the geometry pipeline's primitive table.

The builders cover everything the benchmark scenes need: textured quads
(2D sprites, backgrounds, HUD panels), subdivided grids (terrain), and
boxes (simple 3D props).  The plural forms (:func:`quads`,
:func:`grid_meshes`, :func:`box_meshes`) build many at once in one array
pass; the singular ones are their one-row case.

Every builder performs, element by element, the IEEE-754 float64
operations of the scalar ``Vec3`` formulation in its order: a quad's far
corner is ``(corner + edge_u) + edge_v``; a grid cell's corner is
``(corner + du * i) + dv * j`` with ``du = edge_u * (1.0 / divisions_u)``;
a quad's normal is the cross product ``(uy*vz - uz*vy, uz*vx - ux*vz,
ux*vy - uy*vx)`` divided by its length ``sqrt((x*x + y*y) + z*z)``, or
``(0, 0, 1)`` where that length is not positive.  Inputs are converted
to float64 first: an integer input gives what the equal float gives.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..math3d import Vec2, Vec3, Vec4
from .triangle import Triangle
from .vertex import Vertex, VertexAttributes, attribute_values

_WHITE = Vec4(1.0, 1.0, 1.0, 1.0)


class Mesh:
    """An ordered batch of triangles as ``positions`` ``(n, 3, 3)`` and
    ``attributes`` ``(n, 3, 9)`` float64 arrays.

    Treat both arrays as immutable: scenes share a static mesh between
    frames, draw commands hold its arrays as given, and its
    :attr:`triangles` view is built once.
    """

    __slots__ = ("positions", "attributes", "_triangles")

    def __init__(self, positions: Optional[np.ndarray] = None,
                 attributes: Optional[np.ndarray] = None):
        self.positions = (np.empty((0, 3, 3)) if positions is None
                          else positions)
        self.attributes = (np.empty((0, 3, 9)) if attributes is None
                           else attributes)
        self._triangles: Optional[List[Triangle]] = None

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, rows: slice) -> "Mesh":
        """The triangles ``rows`` as a mesh of views.  Only a slice: a
        mesh is not a sequence of triangles (:attr:`triangles` is)."""
        if not isinstance(rows, slice):
            raise TypeError("a mesh is indexed by a slice of triangles")
        return Mesh(self.positions[rows], self.attributes[rows])

    def extend(self, *others: "Mesh") -> "Mesh":
        """Append the triangles of ``others``, in turn, in one
        concatenation; returns this mesh."""
        meshes = (self,) + others
        self.positions = np.concatenate([mesh.positions for mesh in meshes])
        self.attributes = np.concatenate([mesh.attributes
                                          for mesh in meshes])
        self._triangles = None
        return self

    def recolored(self, color: Vec4) -> "Mesh":
        """A copy of the mesh with every vertex color replaced."""
        attributes = self.attributes.copy()
        attributes[:, :, :4] = tuple(color)
        return Mesh(self.positions, attributes)

    @classmethod
    def from_triangles(cls, triangles: Sequence[Triangle]) -> "Mesh":
        """The arrays of ``triangles``' vertices."""
        values = np.array(
            [[(vertex.position.x, vertex.position.y, vertex.position.z,
               *attribute_values(vertex.attributes))
              for vertex in triangle.vertices]
             for triangle in triangles],
            dtype=np.float64).reshape(-1, 3, 12)
        return cls(values[:, :, :3], values[:, :, 3:])

    @property
    def triangles(self) -> List[Triangle]:
        """The triangles as objects, every coordinate a Python float:
        a view built from the arrays on first use and kept, the input of
        the scalar ``python`` backend's per-triangle assembly."""
        if self._triangles is None:
            self._triangles = [
                Triangle(*(
                    Vertex(Vec3(*position),
                           VertexAttributes(Vec4(*values[:4]),
                                            Vec2(*values[4:6]),
                                            Vec3(*values[6:])))
                    for position, values in zip(positions, attributes)))
                for positions, attributes in zip(self.positions.tolist(),
                                                 self.attributes.tolist())
            ]
        return self._triangles


#: The texture coordinates of a quad's six vertices: corner, corner + u,
#: corner + u + v, then corner, corner + u + v, corner + v.
_QUAD_UV = np.array(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0),
                     (0.0, 0.0), (1.0, 1.0), (0.0, 1.0)))


def _rows(values, width: int) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).reshape(-1, width)


def _colors(color, repeat: int = 1) -> np.ndarray:
    """``color`` (one RGBA, or one per row) as an ``(m, 4)`` array, each
    row repeated ``repeat`` times when there is one per row."""
    colors = _rows(tuple(color) if isinstance(color, Vec4) else color, 4)
    if len(colors) == 1:
        return colors
    return np.repeat(colors, repeat, axis=0)


def quads(corner, edge_u, edge_v, color=_WHITE) -> Mesh:
    """:func:`quad` of every row of the ``(k, 3)`` arrays ``corner``,
    ``edge_u`` and ``edge_v``, with ``color`` one RGBA for all or a
    ``(k, 4)`` array: ``2 k`` triangles, quad by quad."""
    corner = _rows(corner, 3)
    edge_u = _rows(edge_u, 3)
    edge_v = _rows(edge_v, 3)
    ux, uy, uz = edge_u.T
    vx, vy, vz = edge_v.T
    # Float arithmetic on Vec3s never warns: neither does this.
    with np.errstate(all="ignore"):
        normal = np.stack((uy * vz - uz * vy, uz * vx - ux * vz,
                           ux * vy - uy * vx), axis=1)
        nx, ny, nz = normal.T
        length = np.sqrt(nx * nx + ny * ny + nz * nz)
        normal /= length[:, None]
        corner_u = corner + edge_u
        corner_uv = corner_u + edge_v
        corner_v = corner + edge_v
    normal[~(length > 0.0)] = (0.0, 0.0, 1.0)
    positions = np.stack((corner, corner_u, corner_uv,
                          corner, corner_uv, corner_v), axis=1)
    attributes = np.empty((len(corner), 6, 9))
    attributes[:, :, :4] = _colors(color)[:, None]
    attributes[:, :, 4:6] = _QUAD_UV
    attributes[:, :, 6:] = normal[:, None]
    return Mesh(positions.reshape(-1, 3, 3), attributes.reshape(-1, 3, 9))


def quad(
    corner: Vec3,
    edge_u: Vec3,
    edge_v: Vec3,
    color: Vec4 = _WHITE,
) -> Mesh:
    """A parallelogram from ``corner`` spanned by ``edge_u`` x ``edge_v``.

    Triangulated as two counter-clockwise triangles with the normal along
    ``edge_u x edge_v``.
    """
    return quads(tuple(corner), tuple(edge_u), tuple(edge_v), color)


def screen_quad(
    x: float,
    y: float,
    width: float,
    height: float,
    z: float = 0.0,
    color: Vec4 = _WHITE,
) -> Mesh:
    """An axis-aligned quad in the z = ``z`` plane, for 2D scenes.

    The 2D benchmarks draw these through an orthographic camera, so x/y
    are world units that map linearly to the screen.
    """
    return quads((x, y, z), (width, 0.0, 0.0), (0.0, height, 0.0), color)


def sprite_quad(
    center: Vec2,
    size: Vec2,
    z: float = 0.0,
    color: Vec4 = _WHITE,
) -> Mesh:
    """A sprite centered at ``center`` — sugar over :func:`screen_quad`."""
    return screen_quad(
        center.x - size.x / 2.0,
        center.y - size.y / 2.0,
        size.x,
        size.y,
        z=z,
        color=color,
    )


def grid_meshes(corner, edge_u, edge_v, divisions_u: int,
                divisions_v: int, color=_WHITE) -> Mesh:
    """:func:`grid_mesh` of every row of the ``(k, 3)`` arrays
    ``corner``, ``edge_u`` and ``edge_v`` (``color`` as for
    :func:`quads`): grid by grid, each one's cells row by row."""
    if divisions_u <= 0 or divisions_v <= 0:
        raise ValueError("grid divisions must be positive")
    i = np.tile(np.arange(divisions_u, dtype=np.float64), divisions_v)
    j = np.repeat(np.arange(divisions_v, dtype=np.float64), divisions_u)
    cells = divisions_u * divisions_v
    with np.errstate(all="ignore"):
        du = _rows(edge_u, 3) * (1.0 / divisions_u)
        dv = _rows(edge_v, 3) * (1.0 / divisions_v)
        corners = ((_rows(corner, 3)[:, None] + du[:, None] * i[:, None])
                   + dv[:, None] * j[:, None])
    return quads(corners.reshape(-1, 3), np.repeat(du, cells, axis=0),
                 np.repeat(dv, cells, axis=0), _colors(color, cells))


def grid_mesh(
    corner: Vec3,
    edge_u: Vec3,
    edge_v: Vec3,
    divisions_u: int,
    divisions_v: int,
    color: Vec4 = _WHITE,
) -> Mesh:
    """A parallelogram subdivided into ``divisions_u x divisions_v`` cells.

    Produces ``2 * divisions_u * divisions_v`` triangles; used for terrain
    and large backgrounds so that primitives do not all span every tile.
    """
    return grid_meshes(tuple(corner), tuple(edge_u), tuple(edge_v),
                       divisions_u, divisions_v, color)


#: (corner, edge_u, edge_v) per face of the unit cube centered at the
#: origin: front, back, right, left, top, bottom.
_BOX_FACES = np.array((
    ((-0.5, -0.5, 0.5), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
    ((0.5, -0.5, -0.5), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
    ((0.5, -0.5, 0.5), (0.0, 0.0, -1.0), (0.0, 1.0, 0.0)),
    ((-0.5, -0.5, -0.5), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0)),
    ((-0.5, 0.5, 0.5), (1.0, 0.0, 0.0), (0.0, 0.0, -1.0)),
    ((-0.5, -0.5, -0.5), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
))


def box_meshes(center, size, color=_WHITE) -> Mesh:
    """:func:`box_mesh` of every row of the ``(k, 3)`` arrays ``center``
    and ``size`` (``color`` as for :func:`quads`): box by box, 12
    triangles each."""
    center = _rows(center, 3)[:, None]
    size = _rows(size, 3)[:, None]
    with np.errstate(all="ignore"):
        corner = center + _BOX_FACES[:, 0] * size          # (k, 6, 3)
        edge_u = _BOX_FACES[:, 1] * size
        edge_v = _BOX_FACES[:, 2] * size
    return quads(corner.reshape(-1, 3), edge_u.reshape(-1, 3),
                 edge_v.reshape(-1, 3), _colors(color, 6))


def box_mesh(
    center: Vec3,
    size: Vec3,
    color: Vec4 = _WHITE,
) -> Mesh:
    """An axis-aligned box (12 triangles) centered at ``center``."""
    return box_meshes(tuple(center), tuple(size), color)
