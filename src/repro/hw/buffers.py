"""Per-tile on-chip buffers: Z-buffer, Color Buffer and Layer Buffer.

All three hold one entry per pixel of the tile currently being rendered
and are reset when the raster pipeline moves to the next tile.  They are
numpy-backed because the rasterizer operates on whole coverage masks.

The per-fragment test/write/blend semantics live in
:mod:`repro.kernels.reference` (the scalar kernel backend) — the methods
here delegate to those pure functions, so the buffer classes stay the
stateful wrappers while every backend shares one definition of the
rules.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..kernels import reference as _kernels


class ZBuffer:
    """Per-tile depth storage for the (Early) Depth Test.

    Depth values live in [0, 1] with 0 at the near plane; the buffer is
    cleared to the far value so the first opaque fragment always wins.
    """

    def __init__(self, tile_width: int, tile_height: int, clear_depth: float = 1.0):
        self._clear_depth = clear_depth
        self.depth = np.full((tile_height, tile_width), clear_depth, dtype=np.float64)

    def clear(self) -> None:
        self.depth.fill(self._clear_depth)

    @classmethod
    def holding(cls, depth: np.ndarray,
                clear_depth: float = 1.0) -> "ZBuffer":
        """A buffer over ``depth`` itself (no copy)."""
        buffer = cls.__new__(cls)
        buffer._clear_depth = clear_depth
        buffer.depth = depth
        return buffer

    def preload(self, depths: np.ndarray) -> None:
        """Initialize with known depths (used by the oracle Z-prepass)."""
        np.copyto(self.depth, depths)

    def test(
        self,
        mask: np.ndarray,
        fragment_depth: np.ndarray,
        less_equal: bool = False,
    ) -> np.ndarray:
        """Return the sub-mask of fragments passing the depth comparison.

        The default comparison is strict ``less`` (GL_LESS).  The oracle
        Z-prepass pre-fills the buffer with *final* depths, so it tests
        with ``less_equal=True`` to let the visible fragment itself pass.
        """
        return _kernels.depth_test(self.depth, mask, fragment_depth,
                                   less_equal=less_equal)

    def write(self, mask: np.ndarray, fragment_depth: np.ndarray) -> int:
        """Store depths for the masked fragments; returns the write count."""
        return _kernels.depth_write(self.depth, mask, fragment_depth)

    @property
    def z_far(self) -> float:
        """The maximum stored depth — the paper's per-tile ``Z_far``."""
        return float(self.depth.max())


class ColorBuffer:
    """Per-tile RGBA color storage, flushed to DRAM at end of tile."""

    def __init__(
        self,
        tile_width: int,
        tile_height: int,
        clear_color: Tuple[float, float, float, float] = (0.0, 0.0, 0.0, 1.0),
    ):
        self._clear_color = np.array(clear_color, dtype=np.float64)
        self.color = np.empty((tile_height, tile_width, 4), dtype=np.float64)
        self.clear()

    def clear(self) -> None:
        self.color[:] = self._clear_color

    def write(self, mask: np.ndarray, rgba: np.ndarray) -> int:
        """Opaque write: replace destination color under ``mask``."""
        return _kernels.color_write(self.color, mask, rgba)

    def blend(self, mask: np.ndarray, rgba: np.ndarray) -> int:
        """Standard alpha blending: ``src*a + dst*(1-a)`` under ``mask``."""
        return _kernels.color_blend(self.color, mask, rgba)

    def snapshot(self) -> np.ndarray:
        """A copy of the tile's colors (for flushing / comparisons)."""
        return self.color.copy()

    @property
    def byte_size(self) -> int:
        """Flush size in bytes (RGBA8 in the real framebuffer)."""
        return self.color.shape[0] * self.color.shape[1] * 4


class LayerBuffer:
    """Per-tile visible-layer tracking (Section V-B of the paper).

    Each entry stores the layer identifier of the opaque fragment that is
    currently visible at that pixel.  It is updated in the blending stage
    only for fully-opaque fragments (alpha == 1).  At end of tile,
    ``L_far`` is the minimum stored layer: the *oldest* layer still
    visible anywhere in the tile.

    The buffer is cleared to layer 0 (the "nothing drawn yet" layer), so a
    pixel never covered by an opaque fragment keeps the tile's prediction
    conservative: no primitive has a layer below 0.
    """

    CLEAR_LAYER = 0

    def __init__(self, tile_width: int, tile_height: int):
        self.layers = np.full(
            (tile_height, tile_width), self.CLEAR_LAYER, dtype=np.int32
        )
        # ZR register: layer of the last visible WOZ fragment (Section V-B).
        self.zr_register: int = -1

    def clear(self) -> None:
        self.layers.fill(self.CLEAR_LAYER)
        self.zr_register = -1

    @classmethod
    def holding(cls, layers: np.ndarray, zr_register: int) -> "LayerBuffer":
        """A buffer over ``layers`` itself (no copy)."""
        buffer = cls.__new__(cls)
        buffer.layers = layers
        buffer.zr_register = zr_register
        return buffer

    def write(self, mask: np.ndarray, layer: int, is_woz: bool) -> int:
        """Record ``layer`` for the masked (visible, opaque) fragments."""
        written = _kernels.layer_write(self.layers, mask, layer)
        if is_woz and written:
            self.zr_register = layer
        return written

    @property
    def l_far(self) -> int:
        """The minimum stored layer — the paper's per-tile ``L_far``."""
        return int(self.layers.min())

    @property
    def fvp_is_woz(self) -> bool:
        """True when the tile's FVP belongs to a WOZ primitive.

        Compares the ZR register with ``L_far`` (Section V-B): if the last
        visible WOZ layer *is* the farthest visible layer, the FVP is a
        depth value; otherwise it is a layer identifier.
        """
        return self.zr_register == self.l_far
