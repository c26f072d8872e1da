"""Small 3D math library: vectors, 4x4 matrices and common transforms.

This is the substrate used by the geometry pipeline's vertex shading stage
and by the scene generators.  It deliberately avoids depending on the rest
of the library so that it can be tested in isolation.
"""

from .vector import Vec2, Vec3, Vec4
from .matrix import (
    Mat4,
    look_at,
    mat4_array,
    mat4_products,
    orthographic,
    perspective,
    rotate_x,
    rotate_y,
    rotate_z,
    scale,
    translate,
    viewport,
)

__all__ = [
    "Vec2",
    "Vec3",
    "Vec4",
    "Mat4",
    "mat4_array",
    "mat4_products",
    "translate",
    "scale",
    "rotate_x",
    "rotate_y",
    "rotate_z",
    "perspective",
    "orthographic",
    "look_at",
    "viewport",
]
