"""Draw commands: one batch of triangles sharing a render state."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from ..errors import CommandError
from ..geom import Mesh, Triangle
from ..math3d import Mat4
from .state import RenderState


@dataclass(eq=False)
class DrawCommand:
    """One draw call: vertex arrays, a model transform and a render state.

    In the paper's terminology a draw command is what increments the
    per-tile layer identifier — all primitives of the same command that
    land in a tile share a layer.

    Attributes:
        positions: ``(n, 3, 3)`` float64 object-space ``(x, y, z)`` per
            vertex, triangle by triangle in submission order.
        attributes: ``(n, 3, 9)`` float64 ``(r, g, b, a, u, v, nx, ny,
            nz)`` per vertex (a :class:`~repro.geom.Mesh`'s arrays).
        model: object-to-world transform applied by the vertex shader.
        state: fixed-function state and shader cost profile.
        label: human-readable identity for traces and debugging.
        view: per-command view override (None: use the frame's).  Real
            applications rebind matrices between draws — e.g. a HUD
            rendered with an orthographic screen-space projection after
            the 3D scene used a perspective one.
        projection: per-command projection override (None: use the
            frame's).

    The constructor also takes a :class:`~repro.geom.Mesh` (whose arrays
    it holds, sharing the mesh's :attr:`triangles` view), or a sequence
    of :class:`~repro.geom.Triangle` objects (converted to arrays once),
    in place of ``positions`` with ``attributes`` left out.
    """

    positions: Union[np.ndarray, Mesh, Sequence[Triangle]]
    attributes: Optional[np.ndarray] = None
    model: Mat4 = field(default_factory=Mat4.identity)
    state: RenderState = field(default_factory=RenderState)
    label: str = ""
    view: Optional[Mat4] = None
    projection: Optional[Mat4] = None
    _mesh: Mesh = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.attributes is not None:
            self._mesh = Mesh(self.positions, self.attributes)
        elif isinstance(self.positions, Mesh):
            self._mesh = self.positions
        else:
            self._mesh = Mesh.from_triangles(self.positions)
        self.positions = self._mesh.positions
        self.attributes = self._mesh.attributes
        if not len(self.positions):
            raise CommandError(f"draw command {self.label!r} has no geometry")

    @classmethod
    def from_mesh(
        cls,
        mesh: Mesh,
        model: Mat4 = Mat4.identity(),
        state: RenderState = RenderState(),
        label: str = "",
        view: Optional[Mat4] = None,
        projection: Optional[Mat4] = None,
    ) -> "DrawCommand":
        return cls(
            mesh,
            model=model,
            state=state,
            label=label,
            view=view,
            projection=projection,
        )

    @property
    def triangle_count(self) -> int:
        return len(self.positions)

    @property
    def vertex_count(self) -> int:
        return 3 * len(self.positions)

    @property
    def triangles(self) -> List[Triangle]:
        """The triangles as objects, built from the arrays on first use:
        the input of the scalar ``python`` backend's per-triangle
        assembly (:attr:`repro.geom.Mesh.triangles`)."""
        return self._mesh.triangles

    def iter_triangles(self) -> Iterable[Triangle]:
        return iter(self.triangles)
