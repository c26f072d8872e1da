"""The FVP Table (Section V-C): per-tile farthest-visible-point depths.

At the end of a tile's rendering the FVP is computed from the Layer Buffer
and the Z-buffer and written here; during the *next* frame's binning, the
Polygon List Builder reads it to predict primitive visibility.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np


class FVPType(enum.Enum):
    """What kind of depth the tile's FVP is (the FVP-type bit)."""

    WOZ = "z"        # the FVP depth is a Z value (Z_far)
    NWOZ = "layer"   # the FVP depth is a layer identifier (L_far)


@dataclass(frozen=True)
class FVPEntry:
    """One FVP Table record.

    Attributes:
        fvp_type: whether ``value`` is a Z depth or a layer identifier.
        value: ``Z_far`` (float in [0, 1]) or ``L_far`` (int layer).
    """

    fvp_type: FVPType
    value: Union[float, int]


#: The FVP-type column of :meth:`FVPTable.lookup_many`: no entry yet,
#: a ``Z_far`` depth, or an ``L_far`` layer identifier.
KIND_EMPTY, KIND_WOZ, KIND_NWOZ = 0, 1, 2


class FVPTable:
    """One entry per tile; 4 bytes per entry in Table II.

    Besides the entries, the table keeps them as two columns, the
    FVP-type and the value (``L_far`` exactly, as a float), so that
    binning can look up a whole frame's pairs at once.
    """

    def __init__(self, num_tiles: int):
        self._entries: List[Optional[FVPEntry]] = [None] * num_tiles
        self._kinds = np.zeros(num_tiles, dtype=np.int8)
        self._values = np.zeros(num_tiles)
        self.lookups = 0
        self.updates = 0

    def lookup(self, tile: int) -> Optional[FVPEntry]:
        """The tile's FVP from the previous frame, or None before any
        frame has completed (in which case every primitive is predicted
        visible)."""
        self.lookups += 1
        return self._entries[tile]

    def lookup_many(self, tiles: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`lookup` for every tile of ``tiles``, as the FVP-type
        (``KIND_*``) and value columns."""
        self.lookups += len(tiles)
        return self._kinds[tiles], self._values[tiles]

    def update(self, tile: int, entry: FVPEntry) -> None:
        """End-of-tile write of the freshly computed FVP."""
        self._entries[tile] = entry
        self._kinds[tile] = (KIND_WOZ if entry.fvp_type is FVPType.WOZ
                             else KIND_NWOZ)
        self._values[tile] = entry.value
        self.updates += 1

    def invalidate(self) -> None:
        """Drop all predictions (e.g. on scene cuts or resolution change)."""
        self._entries = [None] * len(self._entries)
        self._kinds[:] = KIND_EMPTY
