"""Rendering Elimination, baseline and EVR-aided (Sections II and IV-B).

Baseline RE: every primitive sorted into a tile folds its CRC32 into the
tile's running signature; when the Raster Pipeline schedules the tile, the
running signature is compared with the previous frame's — a match means
the tile's inputs are unchanged, so its rendering is skipped and last
frame's colors are reused.

EVR-aided RE: primitives *predicted occluded* in a tile are left out of
that tile's signature.  Tiles whose only frame-to-frame change is hidden
geometry then still match and get skipped.  Table I's case analysis (and
:mod:`tests.test_visibility_casuistry`) shows this never skips a tile
whose visible colors changed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geom import ScreenTriangle
from ..hw.signature_buffer import (
    SignatureBuffer,
    primitive_signature,
    primitive_signatures,
)
from ..kernels.api import FrameGeometry


@dataclass
class REStats:
    """Counters for Figure 9-style reporting."""

    signature_updates: int = 0
    signature_skips: int = 0
    tiles_checked: int = 0
    tiles_matched: int = 0
    tiles_poisoned: int = 0


class RenderingElimination:
    """The RE controller owned by the GPU when RE is enabled."""

    def __init__(self, num_tiles: int, filter_occluded: bool = False):
        """
        Args:
            num_tiles: tiles on screen (Signature Buffer entries).
            filter_occluded: enable the EVR improvement — exclude
                predicted-occluded primitives from tile signatures.
        """
        self.signature_buffer = SignatureBuffer(num_tiles)
        self.filter_occluded = filter_occluded
        self.stats = REStats()

    @staticmethod
    def primitive_crc(primitive: ScreenTriangle) -> int:
        """CRC32 of the primitive's attributes (Figure 2, step 2)."""
        return primitive_signature(primitive)

    def on_primitive_binned(
        self, tile: int, primitive_crc: int, predicted_occluded: bool
    ) -> bool:
        """Fold a sorted primitive into the tile signature.

        Returns True when the signature was updated, False when the EVR
        filter skipped the update (saving the Signature Buffer
        read-modify-write and its Geometry Pipeline stall).
        """
        if self.filter_occluded and predicted_occluded:
            self.stats.signature_skips += 1
            return False
        self.signature_buffer.update(tile, primitive_crc)
        self.stats.signature_updates += 1
        return True

    @staticmethod
    def primitive_crcs(table: FrameGeometry) -> np.ndarray:
        """:meth:`primitive_crc` of every row of a frame's primitive
        table, as a ``uint32`` array (:func:`primitive_signatures`)."""
        return primitive_signatures(table)

    def on_primitives_binned(self, tiles: np.ndarray, primitive_crcs:
                             np.ndarray, predicted_occluded: np.ndarray
                             ) -> int:
        """:meth:`on_primitive_binned` for many (primitive, tile) pairs,
        grouped tile by tile and in binning order within a tile; returns
        how many updated a signature."""
        if self.filter_occluded:
            kept = ~predicted_occluded
            tiles = tiles[kept]
            primitive_crcs = primitive_crcs[kept]
        updates = len(tiles)
        self.signature_buffer.update_many(tiles, primitive_crcs)
        self.stats.signature_updates += updates
        self.stats.signature_skips += len(predicted_occluded) - updates
        return updates

    def poison_tile(self, tile: int) -> None:
        """Mark the tile's current signature as not describing its visible
        content (a predicted-occluded primitive was actually visible).

        The next frame's comparison against this signature will fail, so
        the tile re-renders — the conservative repair that keeps the
        EVR filter pixel-exact under mispredictions (see DESIGN.md).
        """
        self.signature_buffer.poison(tile)
        self.stats.tiles_poisoned += 1

    def should_skip_tile(self, tile: int) -> bool:
        """Signature comparison at tile-schedule time (Figure 2, step 3)."""
        self.stats.tiles_checked += 1
        if self.signature_buffer.matches_previous(tile):
            self.stats.tiles_matched += 1
            return True
        return False

    def end_frame(self) -> None:
        self.signature_buffer.rotate_frame()
