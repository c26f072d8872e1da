"""Oracle references used by the paper's Figures 8 and 9.

* **Oracle overshading** (Figure 8): a GPU whose Z-buffer is magically
  pre-initialized with each tile's *final* depth values before the tile
  renders, so the Early Depth Test only lets truly-visible (or
  translucent) fragments through.  Implemented in the raster pipeline as
  a silent depth-only pre-pass over the tile's WOZ geometry.

* **Oracle redundant-tile detection** (Figure 9): perfect knowledge of
  which tiles produce byte-identical colors to the previous frame.
  Implemented here by comparing rendered tile images across frames.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


class OracleTileComparator:
    """Pixel-exact frame-to-frame tile redundancy detection."""

    def __init__(self) -> None:
        self._previous: Dict[int, np.ndarray] = {}
        self._current: Dict[int, np.ndarray] = {}
        self.tiles_checked = 0
        self.tiles_equal = 0

    def record_tile(self, tile: int, colors: np.ndarray) -> bool:
        """Record this frame's colors for ``tile``; returns True when they
        are identical to the previous frame's (an oracle would have
        skipped the tile).

        The first frame records without matching (no reference yet).
        """
        previous = self._previous.get(tile)
        self._current[tile] = colors.copy()
        if previous is None:
            return False
        self.tiles_checked += 1
        equal = previous.shape == colors.shape and bool(
            np.array_equal(previous, colors)
        )
        if equal:
            self.tiles_equal += 1
        return equal

    def end_frame(self) -> None:
        """Rotate: current frame becomes the reference for the next."""
        # Tiles not re-recorded this frame (RE-skipped) keep their old
        # colors: carry them over explicitly.
        for tile, colors in self._previous.items():
            self._current.setdefault(tile, colors)
        self._previous = self._current
        self._current = {}

    @property
    def equal_rate(self) -> float:
        """Fraction of tiles (after frame 0) equal to the previous frame."""
        if not self.tiles_checked:
            return 0.0
        return self.tiles_equal / self.tiles_checked
