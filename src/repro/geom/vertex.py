"""Vertices and their attributes.

Attributes matter twice in this system: they are interpolated to produce
fragment colors, and their *byte representation* feeds the CRC32 signatures
of Rendering Elimination.  :meth:`VertexAttributes.pack` therefore defines a
canonical quantized encoding so that two attribute sets are CRC-equal iff
they are value-equal after quantization — exactly the property the paper's
Signature Buffer relies on.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from operator import attrgetter

from ..math3d import Vec2, Vec3, Vec4

_PACK_FORMAT = struct.Struct("<4f2f3f")

#: A :class:`VertexAttributes`' nine values, in :meth:`~VertexAttributes.pack`
#: order: ``(r, g, b, a, u, v, nx, ny, nz)``.
attribute_values = attrgetter("color.x", "color.y", "color.z", "color.w",
                               "uv.x", "uv.y",
                               "normal.x", "normal.y", "normal.z")


@dataclass(frozen=True)
class VertexAttributes:
    """Per-vertex data besides position: color, texture coords, normal."""

    color: Vec4 = field(default_factory=lambda: Vec4(1.0, 1.0, 1.0, 1.0))
    uv: Vec2 = field(default_factory=Vec2)
    normal: Vec3 = field(default_factory=lambda: Vec3(0.0, 0.0, 1.0))

    def pack(self) -> bytes:
        """Canonical byte encoding used for RE signatures."""
        return _PACK_FORMAT.pack(*attribute_values(self))

    def with_color(self, color: Vec4) -> "VertexAttributes":
        return VertexAttributes(color=color, uv=self.uv, normal=self.normal)


@dataclass(frozen=True)
class Vertex:
    """An object-space vertex: a position plus interpolatable attributes."""

    position: Vec3
    attributes: VertexAttributes = field(default_factory=VertexAttributes)

    def pack(self) -> bytes:
        """Byte encoding (object-space position + attributes)."""
        pos = struct.pack("<3f", self.position.x, self.position.y, self.position.z)
        return pos + self.attributes.pack()
