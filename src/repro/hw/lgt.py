"""The Layer Generator Table (Section V-A).

A small on-chip LUT with one entry per tile that assigns layer identifiers
to primitives during binning.  Per entry it remembers the last draw
command seen, the last layer assigned and the last primitive type, and
implements the paper's increment rules:

* primitives of the same command reuse the tile's current layer;
* a new NWOZ command always opens a new layer;
* a new WOZ command opens a new layer only if the previous primitive in
  the tile was NWOZ (consecutive WOZ batches share one layer, because
  their mutual visibility is resolved by the Z-buffer, not by age).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np


@dataclass
class _LGTEntry:
    last_command: Optional[int] = None
    last_layer: int = 0
    last_was_woz: Optional[bool] = None


class LayerGeneratorTable:
    """One entry per tile; 3 bytes per entry in Table II."""

    def __init__(self, num_tiles: int):
        self._entries: List[_LGTEntry] = [_LGTEntry() for _ in range(num_tiles)]
        self.accesses = 0

    def assign_layer(self, tile: int, command_id: int, is_woz: bool) -> int:
        """Assign (and record) the layer for a primitive sorted into
        ``tile`` by draw command ``command_id``.

        Layer numbering starts at 0 per frame; the first command that
        touches a tile opens layer 1, so the Layer Buffer's clear value
        (0) is always strictly older than any real geometry.
        """
        entry = self._entries[tile]
        self.accesses += 1
        if entry.last_command != command_id:
            same_woz_batch = is_woz and entry.last_was_woz is True
            if not same_woz_batch:
                entry.last_layer += 1
            entry.last_command = command_id
        entry.last_was_woz = is_woz
        return entry.last_layer

    def assign_layers(self, tiles: np.ndarray, commands: np.ndarray,
                      is_woz: np.ndarray) -> np.ndarray:
        """:meth:`assign_layer` for many primitives at once: the layer of
        each, with the table left as the calls in order would leave it.

        The arrays hold one (primitive, tile) pair each, grouped tile by
        tile and in binning order within a tile.  A pair opens a layer
        when it starts a new command in its tile, unless both it and
        the tile's previous command are WOZ, so a tile's layers are a
        running count of its openings (a segmented cumsum) on top of its
        current layer.
        """
        count = len(tiles)
        if not count:
            return np.zeros(0, dtype=np.int64)
        starts = np.flatnonzero(np.diff(tiles, prepend=-1))
        entries = [self._entries[tile] for tile in tiles[starts].tolist()]
        previous_command = np.empty(count, dtype=np.int64)
        previous_command[1:] = commands[:-1]
        previous_command[starts] = [
            -1 if entry.last_command is None else entry.last_command
            for entry in entries]
        previous_woz = np.empty(count, dtype=bool)
        previous_woz[1:] = is_woz[:-1]
        previous_woz[starts] = [entry.last_was_woz is True
                                for entry in entries]
        opens = (commands != previous_command) & ~(is_woz & previous_woz)
        layers = np.cumsum(opens, dtype=np.int64)
        base = (np.array([entry.last_layer for entry in entries],
                         dtype=np.int64)
                - layers[starts] + opens[starts])
        layers += np.repeat(base, np.diff(np.append(starts, count)))
        ends = np.append(starts[1:], count) - 1
        for entry, command, layer, woz in zip(
                entries, commands[ends].tolist(), layers[ends].tolist(),
                is_woz[ends].tolist()):
            entry.last_command = command
            entry.last_layer = layer
            entry.last_was_woz = woz
        self.accesses += count
        return layers

    def current_layer(self, tile: int) -> int:
        """The tile's most recently assigned layer (0 if untouched)."""
        return self._entries[tile].last_layer

    def reset(self) -> None:
        """Start of frame: all counters back to zero."""
        for entry in self._entries:
            entry.last_command = None
            entry.last_layer = 0
            entry.last_was_woz = None
