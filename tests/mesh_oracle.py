"""The scalar ``Vec3`` mesh builders: the oracle of the array builders.

These are the object builders ``repro.geom.mesh`` had before meshes
became vertex arrays, kept verbatim (the list-of-triangles ``Mesh`` is
:class:`ObjectMesh` here), plus ``Layer2D.build_mesh``'s per-sprite loop
as :func:`layer_mesh`.  ``tests/test_mesh_builders.py`` checks every
array builder against them bit for bit; :func:`vertex_array` reads a
triangle list into the arrays' ``(n, 3, 12)`` layout for that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.geom import Triangle, Vertex, VertexAttributes
from repro.math3d import Vec2, Vec3, Vec4


@dataclass
class ObjectMesh:
    """An ordered collection of triangles sharing a purpose."""

    triangles: List[Triangle] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.triangles)

    def __iter__(self):
        return iter(self.triangles)

    def extend(self, other: "ObjectMesh") -> "ObjectMesh":
        self.triangles.extend(other.triangles)
        return self

    def recolored(self, color: Vec4) -> "ObjectMesh":
        """A copy of the mesh with every vertex color replaced."""
        out = ObjectMesh()
        for tri in self.triangles:
            out.triangles.append(
                Triangle(
                    *(
                        Vertex(v.position, v.attributes.with_color(color))
                        for v in tri.vertices
                    )
                )
            )
        return out


def quad(
    corner: Vec3,
    edge_u: Vec3,
    edge_v: Vec3,
    color: Vec4 = Vec4(1.0, 1.0, 1.0, 1.0),
) -> ObjectMesh:
    normal = edge_u.cross(edge_v)
    length = normal.length()
    normal = normal.normalized() if length > 0 else Vec3(0.0, 0.0, 1.0)
    p00 = corner
    p10 = corner + edge_u
    p01 = corner + edge_v
    p11 = corner + edge_u + edge_v
    v00 = Vertex(p00, VertexAttributes(color, Vec2(0, 0), normal))
    v10 = Vertex(p10, VertexAttributes(color, Vec2(1, 0), normal))
    v01 = Vertex(p01, VertexAttributes(color, Vec2(0, 1), normal))
    v11 = Vertex(p11, VertexAttributes(color, Vec2(1, 1), normal))
    return ObjectMesh([Triangle(v00, v10, v11), Triangle(v00, v11, v01)])


def screen_quad(
    x: float,
    y: float,
    width: float,
    height: float,
    z: float = 0.0,
    color: Vec4 = Vec4(1.0, 1.0, 1.0, 1.0),
) -> ObjectMesh:
    return quad(Vec3(x, y, z), Vec3(width, 0.0, 0.0), Vec3(0.0, height, 0.0),
                color)


def sprite_quad(
    center: Vec2,
    size: Vec2,
    z: float = 0.0,
    color: Vec4 = Vec4(1.0, 1.0, 1.0, 1.0),
) -> ObjectMesh:
    return screen_quad(
        center.x - size.x / 2.0,
        center.y - size.y / 2.0,
        size.x,
        size.y,
        z=z,
        color=color,
    )


def grid_mesh(
    corner: Vec3,
    edge_u: Vec3,
    edge_v: Vec3,
    divisions_u: int,
    divisions_v: int,
    color: Vec4 = Vec4(1.0, 1.0, 1.0, 1.0),
) -> ObjectMesh:
    if divisions_u <= 0 or divisions_v <= 0:
        raise ValueError("grid divisions must be positive")
    mesh = ObjectMesh()
    du = edge_u * (1.0 / divisions_u)
    dv = edge_v * (1.0 / divisions_v)
    for j in range(divisions_v):
        for i in range(divisions_u):
            cell_corner = corner + du * float(i) + dv * float(j)
            mesh.extend(quad(cell_corner, du, dv, color))
    return mesh


_BOX_FACES: Sequence[Tuple[Vec3, Vec3, Vec3]] = (
    # (corner, edge_u, edge_v) per face, unit cube centered at origin
    (Vec3(-0.5, -0.5, 0.5), Vec3(1, 0, 0), Vec3(0, 1, 0)),    # front
    (Vec3(0.5, -0.5, -0.5), Vec3(-1, 0, 0), Vec3(0, 1, 0)),   # back
    (Vec3(0.5, -0.5, 0.5), Vec3(0, 0, -1), Vec3(0, 1, 0)),    # right
    (Vec3(-0.5, -0.5, -0.5), Vec3(0, 0, 1), Vec3(0, 1, 0)),   # left
    (Vec3(-0.5, 0.5, 0.5), Vec3(1, 0, 0), Vec3(0, 0, -1)),    # top
    (Vec3(-0.5, -0.5, -0.5), Vec3(1, 0, 0), Vec3(0, 0, 1)),   # bottom
)


def box_mesh(
    center: Vec3,
    size: Vec3,
    color: Vec4 = Vec4(1.0, 1.0, 1.0, 1.0),
) -> ObjectMesh:
    mesh = ObjectMesh()
    for corner, edge_u, edge_v in _BOX_FACES:
        scaled_corner = Vec3(
            center.x + corner.x * size.x,
            center.y + corner.y * size.y,
            center.z + corner.z * size.z,
        )
        scaled_u = Vec3(edge_u.x * size.x, edge_u.y * size.y, edge_u.z * size.z)
        scaled_v = Vec3(edge_v.x * size.x, edge_v.y * size.y, edge_v.z * size.z)
        mesh.extend(quad(scaled_corner, scaled_u, scaled_v, color))
    return mesh


def layer_mesh(layer, frame: int) -> ObjectMesh:
    """``Layer2D.build_mesh`` as one ``grid_mesh`` per sprite."""
    mesh = ObjectMesh()
    for sprite in layer.sprites:
        offset = sprite.motion.offset(frame)
        corner = Vec3(
            sprite.center.x + offset.x - sprite.size.x / 2.0,
            sprite.center.y + offset.y - sprite.size.y / 2.0,
            0.0,
        )
        mesh.extend(
            grid_mesh(
                corner,
                Vec3(sprite.size.x, 0.0, 0.0),
                Vec3(0.0, sprite.size.y, 0.0),
                layer.subdivisions,
                layer.subdivisions,
                sprite.color,
            )
        )
    return mesh


def vertex_array(triangles: Sequence[Triangle]) -> np.ndarray:
    """``triangles`` as an ``(n, 3, 12)`` float64 array: per vertex its
    position, then its attributes in ``VertexAttributes.pack`` order."""
    return np.array(
        [[(v.position.x, v.position.y, v.position.z,
           v.attributes.color.x, v.attributes.color.y,
           v.attributes.color.z, v.attributes.color.w,
           v.attributes.uv.x, v.attributes.uv.y,
           v.attributes.normal.x, v.attributes.normal.y,
           v.attributes.normal.z)
          for v in triangle.vertices]
         for triangle in triangles],
        dtype=np.float64).reshape(-1, 3, 12)
