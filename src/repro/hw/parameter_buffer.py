"""The Parameter Buffer and per-tile Display Lists.

The Polygon List Builder stores each primitive's attributes once in the
Parameter Buffer (a main-memory structure, cached by the tile cache) and
appends a pointer to them into the Display List of every tile the
primitive overlaps.

To support EVR's reordering (Algorithm 1), every Display List is *two*
lists: the raster pipeline drains the first list, then the second.  The
baseline pipeline simply never uses the second list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional

import numpy as np

from ..geom import ScreenTriangle
from ..kernels.api import FrameGeometry

POINTER_BYTES = 4
LAYER_ID_BYTES = 2


class DisplayListEntry(NamedTuple):
    """One Display List record: a primitive pointer plus EVR metadata,
    as the scalar Polygon List Builder places it (Algorithm 1).

    Attributes:
        row: the primitive's row in the frame's primitive table (stands
            in for dereferencing the Parameter Buffer pointer).
        offset: byte offset of the primitive's attributes in the
            Parameter Buffer, used to model pointer dereference traffic.
        layer: the layer identifier assigned to the primitive *in this
            tile* (stored alongside the pointer, Section V-A).
        predicted_occluded: EVR's visibility prediction for this tile.
        pointer_offset: byte address of this Display List record itself
            (the pointer the raster pipeline dereferences).
    """

    row: int
    offset: int
    layer: int
    predicted_occluded: bool = False
    pointer_offset: int = 0


@dataclass
class DisplayList:
    """The two-part display list of one tile (Section IV-A)."""

    first: List[DisplayListEntry] = field(default_factory=list)
    second: List[DisplayListEntry] = field(default_factory=list)

    def append_first(self, entry: DisplayListEntry) -> None:
        self.first.append(entry)

    def append_second(self, entry: DisplayListEntry) -> None:
        self.second.append(entry)

    def promote_second(self) -> None:
        """Move the second list to the end of the first (Algorithm 1's
        response to an arriving NWOZ primitive)."""
        self.first.extend(self.second)
        self.second.clear()

    def __len__(self) -> int:
        return len(self.first) + len(self.second)

    def __iter__(self) -> Iterator[DisplayListEntry]:
        """Render order: the whole first list, then the second."""
        yield from self.first
        yield from self.second


class DisplayLists(NamedTuple):
    """Every tile's display list for one frame, as columns in render
    order, tile by tile: tile ``t``'s entries are rows
    ``start[t]:start[t + 1]``, its first list ending at ``split[t]``
    (the rest is its second list)."""

    row: np.ndarray        # (p,) int64 — the primitive's table row
    offset: np.ndarray     # (p,) int64 — its attribute record's address
    layer: np.ndarray      # (p,) int64 — its layer id in this tile
    predicted: np.ndarray  # (p,) bool  — EVR's prediction for this tile
    pointer: np.ndarray    # (p,) int64 — this record's own address
    start: np.ndarray      # (tiles + 1,) int64
    split: np.ndarray      # (tiles,) int64


class ParameterBuffer:
    """Frame-lifetime storage of primitive attributes and Display Lists.

    The Polygon List Builder stores the frame's primitive table and its
    display lists; raster reads both as columns (:attr:`primitives`,
    :attr:`lists`).  The scalar builder places entries into per-tile
    :class:`DisplayList` objects first (Algorithm 1 one pair at a time)
    and then :meth:`close_display_lists` turns them into the same
    columns the array builder fills directly.
    """

    def __init__(self, num_tiles: int, attribute_bytes_per_primitive: int = 144):
        self._attribute_bytes = attribute_bytes_per_primitive
        self._next_offset = 0
        self._display_lists: Dict[int, DisplayList] = {
            tile: DisplayList() for tile in range(num_tiles)
        }
        self.stored_primitives = 0
        self.primitives: Optional[FrameGeometry] = None
        self.lists: Optional[DisplayLists] = None

    @property
    def attribute_bytes_per_primitive(self) -> int:
        return self._attribute_bytes

    def store_primitive(self, primitive: ScreenTriangle) -> int:
        """Store a primitive's attributes; returns its byte offset."""
        offset = self._next_offset
        self._next_offset += self._attribute_bytes
        self.stored_primitives += 1
        return offset

    def store_primitives(self, count: int) -> np.ndarray:
        """Store ``count`` primitives' attributes at once; returns their
        byte offsets, as ``count`` :meth:`store_primitive` calls would."""
        offsets = (self._next_offset
                   + self._attribute_bytes * np.arange(count, dtype=np.int64))
        self._next_offset += self._attribute_bytes * count
        self.stored_primitives += count
        return offsets

    def display_list(self, tile: int) -> DisplayList:
        """The scalar builder's list for ``tile``."""
        return self._display_lists[tile]

    def fill_display_lists(self, primitives: FrameGeometry,
                           tiles: np.ndarray, second: np.ndarray,
                           row: np.ndarray, offset: np.ndarray,
                           layer: np.ndarray, predicted: np.ndarray,
                           pointer: np.ndarray) -> None:
        """Store a frame's primitive table and its display lists at once.

        ``tiles`` holds each entry's tile, grouped tile by tile and in
        render order within a tile; ``second`` marks the entries of a
        tile's second list, which are a suffix of its group (Algorithm
        1's order is already resolved).  The other columns are the
        entries' :class:`DisplayLists` fields.
        """
        num_tiles = len(self._display_lists)
        counts = np.bincount(tiles, minlength=num_tiles)
        start = np.concatenate(([0], np.cumsum(counts)))
        split = start[1:] - np.bincount(tiles[second], minlength=num_tiles)
        self.primitives = primitives
        self.lists = DisplayLists(row, offset, layer, predicted, pointer,
                                  start, split)

    def close_display_lists(self, primitives: FrameGeometry) -> None:
        """Store the frame's primitive table and turn the scalar
        builder's per-tile lists into :attr:`lists`."""
        lists = self._display_lists.values()          # in tile order
        lengths = np.array([(len(display_list.first), len(display_list))
                            for display_list in lists],
                           dtype=np.int64).reshape(-1, 2)
        entries = [entry for display_list in lists for entry in display_list]
        row, offset, layer, predicted, pointer = np.array(
            entries, dtype=np.int64).reshape(-1, 5).T.copy()
        start = np.concatenate(([0], np.cumsum(lengths[:, 1])))
        self.primitives = primitives
        self.lists = DisplayLists(row, offset, layer, predicted.astype(bool),
                                  pointer, start, start[:-1] + lengths[:, 0])

    @property
    def total_bytes(self) -> int:
        """Attribute bytes written so far (excludes pointers/layers)."""
        return self._next_offset

    def reset(self) -> None:
        """Recycle the buffer for the next frame."""
        self._next_offset = 0
        self.stored_primitives = 0
        self.primitives = None
        self.lists = None
        for display_list in self._display_lists.values():
            display_list.first.clear()
            display_list.second.clear()
