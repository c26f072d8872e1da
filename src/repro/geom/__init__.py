"""Geometry data model: vertices, triangles and mesh builders.

Object-space geometry (built by scenes, consumed by the geometry pipeline)
is a :class:`Mesh`: vertex arrays, positions ``(n, 3, 3)`` and attributes
``(n, 3, 9)``.  :class:`Vertex`/:class:`Triangle` objects are the same
geometry one triangle at a time, for the scalar reference backend; after
its vertex shading and primitive assembly it works on
:class:`ScreenTriangle` objects, which carry window-space positions and
interpolation-ready attributes.  The numpy backend keeps arrays
throughout.
"""

from .vertex import VertexAttributes, Vertex
from .triangle import ScreenTriangle, Triangle
from .mesh import (
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

__all__ = [
    "VertexAttributes",
    "Vertex",
    "Triangle",
    "ScreenTriangle",
    "Mesh",
    "quad",
    "quads",
    "screen_quad",
    "sprite_quad",
    "grid_mesh",
    "grid_meshes",
    "box_mesh",
    "box_meshes",
]
