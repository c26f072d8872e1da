"""4x4 matrices and the standard graphics transforms.

Matrices are row-major tuples of 16 floats.  ``Mat4 @ Mat4`` composes
transforms and ``Mat4 @ Vec4`` applies one to a homogeneous point, matching
the column-vector convention used by OpenGL (``M @ v`` transforms ``v``).
``mat4_products`` multiplies stacks of them in one array pass with the
same summation order, so its bits equal ``Mat4 @ Mat4``'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple, Union, overload

import numpy as np

from .vector import Vec3, Vec4

_IDENTITY = (
    1.0, 0.0, 0.0, 0.0,
    0.0, 1.0, 0.0, 0.0,
    0.0, 0.0, 1.0, 0.0,
    0.0, 0.0, 0.0, 1.0,
)


@dataclass(frozen=True)
class Mat4:
    """An immutable row-major 4x4 matrix."""

    m: Tuple[float, ...] = _IDENTITY

    def __post_init__(self) -> None:
        if len(self.m) != 16:
            raise ValueError(f"Mat4 needs 16 elements, got {len(self.m)}")

    @classmethod
    def identity(cls) -> "Mat4":
        return cls(_IDENTITY)

    @classmethod
    def from_rows(
        cls,
        r0: Tuple[float, float, float, float],
        r1: Tuple[float, float, float, float],
        r2: Tuple[float, float, float, float],
        r3: Tuple[float, float, float, float],
    ) -> "Mat4":
        return cls(tuple(r0) + tuple(r1) + tuple(r2) + tuple(r3))

    def row(self, i: int) -> Tuple[float, float, float, float]:
        base = 4 * i
        return (self.m[base], self.m[base + 1], self.m[base + 2], self.m[base + 3])

    def column(self, j: int) -> Tuple[float, float, float, float]:
        return (self.m[j], self.m[j + 4], self.m[j + 8], self.m[j + 12])

    @overload
    def __matmul__(self, other: "Mat4") -> "Mat4": ...

    @overload
    def __matmul__(self, other: Vec4) -> Vec4: ...

    def __matmul__(self, other: Union["Mat4", Vec4]) -> Union["Mat4", Vec4]:
        if isinstance(other, Vec4):
            v = other.as_tuple()
            out = []
            for i in range(4):
                r = self.row(i)
                out.append(
                    r[0] * v[0] + r[1] * v[1] + r[2] * v[2] + r[3] * v[3]
                )
            return Vec4(*out)
        if isinstance(other, Mat4):
            values = []
            for i in range(4):
                r = self.row(i)
                for j in range(4):
                    c = other.column(j)
                    values.append(
                        r[0] * c[0] + r[1] * c[1] + r[2] * c[2] + r[3] * c[3]
                    )
            return Mat4(tuple(values))
        return NotImplemented

    def transform_point(self, p: Vec3) -> Vec3:
        """Apply to a point (w=1) and divide by the resulting w."""
        return (self @ p.to_vec4(1.0)).perspective_divide()

    def transform_direction(self, d: Vec3) -> Vec3:
        """Apply to a direction (w=0); translation is ignored."""
        return (self @ d.to_vec4(0.0)).xyz()

    def transpose(self) -> "Mat4":
        return Mat4(tuple(self.m[4 * j + i] for i in range(4) for j in range(4)))


def mat4_array(matrices: Iterable[Mat4]) -> np.ndarray:
    """``Mat4``s as an ``(n, 4, 4)`` float64 array, row-major."""
    return np.array([matrix.m for matrix in matrices],
                    dtype=np.float64).reshape(-1, 4, 4)


def mat4_products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left[i] @ right[i]`` for ``(n, 4, 4)`` arrays, each entry as
    ``Mat4.__matmul__`` computes it: the left-associated
    ``r0*c0 + r1*c1 + r2*c2 + r3*c3`` of row ``r`` and column ``c``, so
    the bits match (never ``matmul``, whose BLAS kernels may fuse
    multiply-adds or reorder the sum).  Like ``Mat4``, it never warns
    on overflow or NaN."""
    with np.errstate(all="ignore"):
        out = left[:, :, 0, None] * right[:, None, 0, :]
        for k in range(1, 4):
            out += left[:, :, k, None] * right[:, None, k, :]
    return out


def translate(offset: Vec3) -> Mat4:
    """Translation by ``offset``."""
    return Mat4.from_rows(
        (1.0, 0.0, 0.0, offset.x),
        (0.0, 1.0, 0.0, offset.y),
        (0.0, 0.0, 1.0, offset.z),
        (0.0, 0.0, 0.0, 1.0),
    )


def scale(factors: Vec3) -> Mat4:
    """Anisotropic scale by ``factors``."""
    return Mat4.from_rows(
        (factors.x, 0.0, 0.0, 0.0),
        (0.0, factors.y, 0.0, 0.0),
        (0.0, 0.0, factors.z, 0.0),
        (0.0, 0.0, 0.0, 1.0),
    )


def rotate_x(radians: float) -> Mat4:
    c, s = math.cos(radians), math.sin(radians)
    return Mat4.from_rows(
        (1.0, 0.0, 0.0, 0.0),
        (0.0, c, -s, 0.0),
        (0.0, s, c, 0.0),
        (0.0, 0.0, 0.0, 1.0),
    )


def rotate_y(radians: float) -> Mat4:
    c, s = math.cos(radians), math.sin(radians)
    return Mat4.from_rows(
        (c, 0.0, s, 0.0),
        (0.0, 1.0, 0.0, 0.0),
        (-s, 0.0, c, 0.0),
        (0.0, 0.0, 0.0, 1.0),
    )


def rotate_z(radians: float) -> Mat4:
    c, s = math.cos(radians), math.sin(radians)
    return Mat4.from_rows(
        (c, -s, 0.0, 0.0),
        (s, c, 0.0, 0.0),
        (0.0, 0.0, 1.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
    )


def perspective(fov_y_radians: float, aspect: float, near: float, far: float) -> Mat4:
    """Right-handed perspective projection onto [-1, 1]^3 NDC.

    Matches ``gluPerspective``: the camera looks down -Z, depth maps to
    [-1, 1] with near -> -1.
    """
    if near <= 0 or far <= near:
        raise ValueError("require 0 < near < far")
    f = 1.0 / math.tan(fov_y_radians / 2.0)
    return Mat4.from_rows(
        (f / aspect, 0.0, 0.0, 0.0),
        (0.0, f, 0.0, 0.0),
        (0.0, 0.0, (far + near) / (near - far), 2.0 * far * near / (near - far)),
        (0.0, 0.0, -1.0, 0.0),
    )


def orthographic(
    left: float, right: float, bottom: float, top: float, near: float, far: float
) -> Mat4:
    """Orthographic projection onto [-1, 1]^3 NDC (``glOrtho``)."""
    if right == left or top == bottom or far == near:
        raise ValueError("degenerate orthographic volume")
    return Mat4.from_rows(
        (2.0 / (right - left), 0.0, 0.0, -(right + left) / (right - left)),
        (0.0, 2.0 / (top - bottom), 0.0, -(top + bottom) / (top - bottom)),
        (0.0, 0.0, -2.0 / (far - near), -(far + near) / (far - near)),
        (0.0, 0.0, 0.0, 1.0),
    )


def look_at(eye: Vec3, target: Vec3, up: Vec3) -> Mat4:
    """View matrix placing the camera at ``eye`` looking at ``target``."""
    forward = (target - eye).normalized()
    side = forward.cross(up).normalized()
    true_up = side.cross(forward)
    rotation = Mat4.from_rows(
        (side.x, side.y, side.z, 0.0),
        (true_up.x, true_up.y, true_up.z, 0.0),
        (-forward.x, -forward.y, -forward.z, 0.0),
        (0.0, 0.0, 0.0, 1.0),
    )
    return rotation @ translate(-eye)


def viewport(width: int, height: int) -> Mat4:
    """NDC [-1, 1]^3 -> window coordinates.

    x, y map to pixels ([0, width] x [0, height], y pointing down as in
    framebuffer convention) and z maps to [0, 1] with 0 at the near plane —
    the depth range stored in the Z-buffer.
    """
    half_w = width / 2.0
    half_h = height / 2.0
    return Mat4.from_rows(
        (half_w, 0.0, 0.0, half_w),
        (0.0, -half_h, 0.0, half_h),
        (0.0, 0.0, 0.5, 0.5),
        (0.0, 0.0, 0.0, 1.0),
    )
