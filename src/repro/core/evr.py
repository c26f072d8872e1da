"""Early Visibility Resolution: FVP computation and prediction rules.

Section III of the paper.  Per tile and per frame, the *farthest visible
point* (FVP) is either:

* ``Z_far`` — the maximum depth left in the Z-buffer after the tile
  finished rendering, when the farthest visible pixel belongs to a WOZ
  primitive; or
* ``L_far`` — the minimum layer identifier left in the Layer Buffer, when
  it belongs to a NWOZ primitive.

Both buffers are a raster job's result rows for the tile
(:class:`repro.engine.TileResult`), read here as they are.

During the next frame's binning, a primitive is *predicted occluded* in a
tile when (Section III-C):

* the stored FVP is NWOZ and the primitive's layer in this tile is lower
  (older) than ``L_far``; or
* the stored FVP is WOZ, the primitive is WOZ, and the primitive's nearest
  vertex depth ``Z_near`` is farther than ``Z_far``.

Both rules are conservative approximations, and mispredictions are safe by
construction: reordering never changes the image and a wrongly-"occluded"
primitive only costs culling opportunity (Section IV-A) or is protected by
the signature argument of Table I (Section IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..hw.fvp_table import KIND_NWOZ, KIND_WOZ, FVPEntry, FVPTable, FVPType


def compute_fvp(layers: np.ndarray, zr_register: int,
                depth: np.ndarray) -> FVPEntry:
    """End-of-tile FVP computation (Sections III-C and V-B) from the
    tile's Layer Buffer ``layers``, ZR register and Z-buffer ``depth``.

    ``L_far`` is the minimum stored layer, the oldest layer still visible
    anywhere in the tile.  The FVP-type is resolved by comparing the ZR
    register (layer of the last visible WOZ fragment) with ``L_far``:
    equality means the farthest visible layer belongs to WOZ geometry,
    so the useful depth is ``Z_far``, the maximum stored depth;
    otherwise it is the layer identifier ``L_far``.
    """
    l_far = int(layers.min())
    if zr_register == l_far:
        return FVPEntry(FVPType.WOZ, float(depth.max()))
    return FVPEntry(FVPType.NWOZ, l_far)


def predict_occluded(
    entry: Optional[FVPEntry],
    writes_z: bool,
    z_near: float,
    layer: int,
) -> bool:
    """Apply the Section III-C prediction rules for one (primitive, tile).

    Args:
        entry: the tile's FVP from the previous frame (None before the
            first frame completes -> predicted visible).
        writes_z: whether the primitive is WOZ.
        z_near: depth of the primitive's closest vertex.
        layer: layer identifier assigned to the primitive in this tile.
    """
    if entry is None:
        return False
    if entry.fvp_type is FVPType.NWOZ:
        return layer < int(entry.value)
    return writes_z and z_near > float(entry.value)


def predict_occluded_many(kinds: np.ndarray, values: np.ndarray,
                          writes_z: np.ndarray, z_near: np.ndarray,
                          layer: np.ndarray) -> np.ndarray:
    """:func:`predict_occluded` for many (primitive, tile) pairs, given
    each pair's FVP as :meth:`FVPTable.lookup_many` columns."""
    return np.where(kinds == KIND_NWOZ, layer < values,
                    (kinds == KIND_WOZ) & writes_z & (z_near > values))


@dataclass
class PredictionStats:
    """Counters for prediction quality reporting."""

    predictions: int = 0
    predicted_occluded: int = 0


class VisibilityPredictor:
    """Stateful wrapper: FVP Table + prediction counters.

    One instance lives inside the GPU when EVR is enabled; the Polygon
    List Builder calls :meth:`predict` per (primitive, tile) and the
    raster pipeline calls :meth:`record_tile` when a tile finishes.

    Args:
        num_tiles: tiles on screen.
        history: FVP history depth.  1 (the paper's design) predicts
            from the previous frame's FVP alone; ``history=k`` requires a
            primitive to be behind the FVPs of the last *k* frames — a
            more conservative predictor, for the DESIGN.md ablation.
    """

    def __init__(self, num_tiles: int, history: int = 1):
        if history < 1:
            raise ValueError("history must be >= 1")
        self.table = FVPTable(num_tiles)
        self.history = history
        self._past_entries: list = [[] for _ in range(num_tiles)]
        self.stats = PredictionStats()

    def predict(self, tile: int, writes_z: bool, z_near: float, layer: int,
                bbox: Optional[tuple] = None) -> bool:
        """Predict whether the primitive is occluded in ``tile``.

        ``bbox`` is accepted for interface compatibility with the
        sub-tile predictor and ignored: the whole tile shares one FVP.
        """
        entry = self.table.lookup(tile)
        occluded = predict_occluded(entry, writes_z, z_near, layer)
        if occluded and self.history > 1:
            occluded = all(
                predict_occluded(past, writes_z, z_near, layer)
                for past in self._past_entries[tile]
            )
        self.stats.predictions += 1
        if occluded:
            self.stats.predicted_occluded += 1
        return occluded

    def predict_many(self, tiles: np.ndarray, writes_z: np.ndarray,
                     z_near: np.ndarray, layers: np.ndarray,
                     bboxes: np.ndarray) -> np.ndarray:
        """:meth:`predict` for many (primitive, tile) pairs at once: one
        compare against the FVP Table's columns.  With ``history > 1``
        the pairs that pass it are checked against the older FVPs one
        by one.  ``bboxes`` is ignored, as in :meth:`predict`."""
        kinds, values = self.table.lookup_many(tiles)
        occluded = predict_occluded_many(kinds, values, writes_z, z_near,
                                         layers)
        if self.history > 1:
            for index in np.flatnonzero(occluded).tolist():
                woz = bool(writes_z[index])
                depth = float(z_near[index])
                layer = int(layers[index])
                occluded[index] = all(
                    predict_occluded(past, woz, depth, layer)
                    for past in self._past_entries[int(tiles[index])]
                )
        self.stats.predictions += len(tiles)
        self.stats.predicted_occluded += int(np.count_nonzero(occluded))
        return occluded

    def record_tile(self, tile: int, layers: np.ndarray, zr_register: int,
                    depth: np.ndarray) -> FVPEntry:
        """Compute (:func:`compute_fvp`) and store the tile's FVP for next
        frame's predictions."""
        entry = compute_fvp(layers, zr_register, depth)
        if self.history > 1:
            past = self._past_entries[tile]
            past.append(entry)
            if len(past) > self.history:
                past.pop(0)
        self.table.update(tile, entry)
        return entry

    @property
    def occluded_rate(self) -> float:
        if not self.stats.predictions:
            return 0.0
        return self.stats.predicted_occluded / self.stats.predictions
