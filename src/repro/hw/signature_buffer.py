"""Rendering Elimination's Signature Buffer and CRC32 signatures.

The Signature Buffer holds, per tile, the finalized signature of the
previous frame and the in-progress signature of the current frame.  A
tile's signature is the streaming CRC32 of the byte encodings of every
primitive sorted into it, in sorting order — so any change in attributes,
order, count or render state changes the signature.

This module alone packs a primitive's encoding: its render state's
``pack()``, then per vertex ``struct.pack('<3d', x, y, z)`` of the
window-space position and clamped depth and the attributes' ``pack()``.
It is post-transform, so motion through the model matrix changes it
even when the object-space mesh is static.  Positions are f64: the
rasterizer interpolates in f64, so motion below f32 epsilon still
changes blended colours, and an f32-quantized signature would wrongly
match across such a frame pair and skip a tile whose colours differ.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..geom import ScreenTriangle
from ..kernels.api import FrameGeometry

EMPTY_SIGNATURE = 0


def primitive_signature(primitive: ScreenTriangle) -> int:
    """CRC32 of one primitive's encoding (computed once, at the end of
    the Geometry Pipeline, as in Figure 2 step 2)."""
    parts = [primitive.state.pack()]
    for position, depth, attributes in zip(primitive.xy, primitive.z,
                                           primitive.attributes):
        parts.append(struct.pack("<3d", position.x, position.y, depth))
        parts.append(attributes.pack())
    return zlib.crc32(b"".join(parts))


def primitive_signatures(table: FrameGeometry) -> np.ndarray:
    """:func:`primitive_signature` of every row of a frame's primitive
    table, as a ``uint32`` array: per vertex the window-space row as
    ``<f8`` and the attribute row as ``<f4`` (the assembly check keeps
    every finite attribute within float32 range, so the cast is
    ``struct.pack('<f')`` value for value)."""
    count = len(table.state)
    with np.errstate(invalid="ignore"):       # signalling NaNs, quieted
        attributes = table.attributes.astype("<f4")
    vertices = np.concatenate((
        np.ascontiguousarray(table.window, dtype="<f8").view(np.uint8)
        .reshape(count, 3, 24),
        attributes.view(np.uint8).reshape(count, 3, 36)), axis=2)
    return row_signatures(table, vertices.reshape(count, 3 * 60))


def row_signatures(table: FrameGeometry, rows: np.ndarray) -> np.ndarray:
    """CRC32 of each table row's encoding: its render state's
    ``pack()``, then that row of ``rows`` (an ``(s, k)`` uint8 matrix),
    as a ``uint32`` array.  A render state packs to a fixed size, so
    every row's encoding has the same length and the frame's encodings
    are one byte matrix: each distinct state packed once, gathered by
    state id."""
    count = len(rows)
    if not count:
        return np.zeros(0, dtype=np.uint32)
    states = np.frombuffer(b"".join(state.pack() for state in table.states),
                           dtype=np.uint8).reshape(len(table.states), -1)
    records = np.concatenate((states[table.state], rows), axis=1)
    size = records.shape[1]
    data = records.tobytes()
    return np.fromiter(
        (zlib.crc32(data[start:start + size])
         for start in range(0, size * count, size)),
        dtype=np.uint32, count=count)


def combine_signature(running: int, primitive_crc: int) -> int:
    """Fold a primitive's CRC into a tile's running signature.

    The paper shifts the running hash by the primitive size and combines;
    an order-sensitive equivalent is to CRC the primitive's CRC bytes into
    the running value.  The running signature additionally carries the
    combine *count* in its upper bits (a count register next to the CRC
    register in hardware terms): the CRC state update ``x -> crc32(b, x)``
    is affine over GF(2) and has fixed points for some blocks ``b`` —
    e.g. ``crc32(b'\\x00' * 4, 0xFFFFFFFF) == 0xFFFFFFFF`` — so without
    the count, appending a primitive could leave a tile's signature
    unchanged and let RE skip a tile whose content changed.
    """
    count = (running >> 32) + 1
    state = zlib.crc32(primitive_crc.to_bytes(4, "little"),
                       running & 0xFFFFFFFF)
    return (count << 32) | state


@dataclass
class _TileSignatures:
    previous: Optional[int] = None   # None: no previous frame, or poisoned
    current: Optional[int] = EMPTY_SIGNATURE  # None: poisoned this frame


class SignatureBuffer:
    """On-chip lookup table with one signature pair per tile."""

    def __init__(self, num_tiles: int):
        self._entries: List[_TileSignatures] = [
            _TileSignatures() for _ in range(num_tiles)
        ]
        self.updates = 0
        self.reads = 0

    def update(self, tile: int, primitive_crc: int) -> None:
        """Fold a primitive's CRC into the tile's current signature
        (Figure 2 step 2)."""
        entry = self._entries[tile]
        if entry.current is not None:
            entry.current = combine_signature(entry.current, primitive_crc)
        self.updates += 1

    def update_many(self, tiles: np.ndarray, primitive_crcs: np.ndarray
                    ) -> None:
        """:meth:`update` for many (tile, CRC) pairs, grouped tile by tile
        and in binning order within a tile.

        :func:`combine_signature` is a streaming CRC plus a count, so a
        tile's whole group folds in one ``zlib.crc32`` call over the
        group's little-endian CRC bytes, and the count grows by the
        group's size.
        """
        count = len(tiles)
        if not count:
            return
        data = primitive_crcs.astype("<u4").tobytes()
        starts = np.flatnonzero(np.diff(tiles, prepend=-1))
        stops = np.append(starts[1:], count)
        entries = self._entries
        for tile, start, stop in zip(tiles[starts].tolist(), starts.tolist(),
                                     stops.tolist()):
            entry = entries[tile]
            running = entry.current
            if running is not None:
                entry.current = (
                    ((running >> 32) + stop - start) << 32
                    | zlib.crc32(data[4 * start:4 * stop],
                                 running & 0xFFFFFFFF))
        self.updates += count

    def poison(self, tile: int) -> None:
        """Invalidate the tile's current signature.

        Called by the raster pipeline when a *predicted-occluded*
        primitive turned out to contribute to the tile's final image
        (a visibility misprediction).  The signature then no longer
        describes the visible content, so the next frame must not be
        allowed to match against it.  This repair is required for
        pixel-exact correctness — see DESIGN.md ("Correctness repair").
        """
        self._entries[tile].current = None

    def matches_previous(self, tile: int) -> bool:
        """Compare the current and previous frame signatures (step 3).

        Returns False on the first frame (no previous signature) and for
        tiles whose previous-frame signature was poisoned, so no tile is
        ever skipped without evidence.
        """
        entry = self._entries[tile]
        self.reads += 1
        return entry.previous is not None and entry.previous == entry.current

    def current_signature(self, tile: int) -> Optional[int]:
        """The tile's in-progress signature (None when poisoned)."""
        return self._entries[tile].current

    def rotate_frame(self) -> None:
        """End of frame: current signatures become the previous ones."""
        for entry in self._entries:
            entry.previous = entry.current
            entry.current = EMPTY_SIGNATURE
