"""Sub-tile FVP ablation: 2x2 quadrant-granular visibility prediction.

The paper stores one FVP per 16x16 tile, acknowledging that the "coarse
granularity caused by comparing to a single Z_far value ... reduces the
detection rate".  This module implements the natural refinement the
DESIGN.md ablation list calls out: each tile keeps four FVPs, one per
8x8 quadrant, and a primitive is predicted occluded only if it is
occluded in *every* quadrant its bounding box overlaps.

The refinement helps when a tile mixes near and far content: the single
Z_far is dragged to the far side by one quadrant, blinding the whole
tile, while quadrant FVPs keep the near quadrants predictive.  Hardware
cost: a 4x larger FVP Table (16 bytes/tile instead of 4) and four
min/max reductions per tile instead of one.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..hw.fvp_table import FVPEntry, FVPType
from .evr import PredictionStats, predict_occluded

_QUADRANTS = ((0, 0), (1, 0), (0, 1), (1, 1))  # (qx, qy)


def compute_quadrant_fvps(
    layers: np.ndarray, zr_register: int, depth: np.ndarray
) -> Tuple[FVPEntry, FVPEntry, FVPEntry, FVPEntry]:
    """Compute one FVP per 8x8 quadrant of the tile, from its Layer
    Buffer ``layers``, ZR register and Z-buffer ``depth``.

    The FVP-type test reuses the tile-global ZR register (the hardware
    has a single ZR): a quadrant whose ``L_far`` equals ZR is treated as
    WOZ-terminated, like the full-tile rule of Section V-B.
    """
    height, width = layers.shape
    half_h, half_w = height // 2, width // 2
    entries: List[FVPEntry] = []
    for qx, qy in _QUADRANTS:
        rows = slice(qy * half_h, (qy + 1) * half_h or None)
        cols = slice(qx * half_w, (qx + 1) * half_w or None)
        l_far = int(layers[rows, cols].min())
        if l_far == zr_register:
            z_far = float(depth[rows, cols].max())
            entries.append(FVPEntry(FVPType.WOZ, z_far))
        else:
            entries.append(FVPEntry(FVPType.NWOZ, l_far))
    return tuple(entries)  # type: ignore[return-value]


class SubTileVisibilityPredictor:
    """Drop-in alternative to :class:`repro.core.evr.VisibilityPredictor`
    with quadrant-granular FVPs.

    The Polygon List Builder must supply the primitive's screen-space
    bounding box so the predictor can restrict the test to the quadrants
    the primitive can actually touch.
    """

    def __init__(self, num_tiles: int, tile_width: int, tile_height: int,
                 tiles_x: int):
        self.num_tiles = num_tiles
        self.tile_width = tile_width
        self.tile_height = tile_height
        self.tiles_x = tiles_x
        self._entries: List[Optional[Tuple[FVPEntry, ...]]] = [None] * num_tiles
        self.stats = PredictionStats()
        self.lookups = 0
        self.updates = 0

    def _overlapped_quadrants(
        self, tile: int, bbox: Tuple[float, float, float, float]
    ) -> List[int]:
        """Indices into the quadrant tuple that ``bbox`` can touch."""
        tile_x = (tile % self.tiles_x) * self.tile_width
        tile_y = (tile // self.tiles_x) * self.tile_height
        half_w = self.tile_width / 2.0
        half_h = self.tile_height / 2.0
        min_x, min_y, max_x, max_y = bbox
        overlapped = []
        for index, (qx, qy) in enumerate(_QUADRANTS):
            left = tile_x + qx * half_w
            top = tile_y + qy * half_h
            if (max_x > left and min_x < left + half_w
                    and max_y > top and min_y < top + half_h):
                overlapped.append(index)
        return overlapped

    def predict(
        self,
        tile: int,
        writes_z: bool,
        z_near: float,
        layer: int,
        bbox: Optional[Tuple[float, float, float, float]] = None,
    ) -> bool:
        """Occluded iff occluded in every overlapped quadrant."""
        self.lookups += 1
        entries = self._entries[tile]
        self.stats.predictions += 1
        if entries is None:
            return False
        if bbox is None:
            quadrants = range(4)
        else:
            quadrants = self._overlapped_quadrants(tile, bbox)
            if not quadrants:
                # Conservative: binning said the primitive overlaps the
                # tile; if the quadrant test disagrees, predict visible.
                return False
        occluded = all(
            predict_occluded(entries[q], writes_z, z_near, layer)
            for q in quadrants
        )
        if occluded:
            self.stats.predicted_occluded += 1
        return occluded

    def predict_many(self, tiles: np.ndarray, writes_z: np.ndarray,
                     z_near: np.ndarray, layers: np.ndarray,
                     bboxes: np.ndarray) -> np.ndarray:
        """:meth:`predict` for many (primitive, tile) pairs, pair by pair
        (``bboxes`` holds one ``(min_x, min_y, max_x, max_y)`` row per
        pair)."""
        return np.fromiter(
            map(self.predict, tiles.tolist(), writes_z.tolist(),
                z_near.tolist(), layers.tolist(),
                map(tuple, bboxes.tolist())),
            dtype=bool, count=len(tiles))

    def record_tile(self, tile: int, layers: np.ndarray, zr_register: int,
                    depth: np.ndarray) -> Tuple[FVPEntry, ...]:
        """Compute and store all four quadrant FVPs."""
        entries = compute_quadrant_fvps(layers, zr_register, depth)
        self._entries[tile] = entries
        self.updates += 1
        return entries

    @property
    def occluded_rate(self) -> float:
        if not self.stats.predictions:
            return 0.0
        return self.stats.predicted_occluded / self.stats.predictions
