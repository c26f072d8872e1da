"""Dynamic Sampling Rate (DSR): per-tile fractional shading rates.

A functional model of Anglada et al.'s follow-up technique: instead of
skipping *whole* redundant tiles (Rendering Elimination), DSR lowers the
fragment-shading rate of tiles whose content has been *stable* across
recent frames, shading one fragment per 1x2 or 2x2 block and replicating
its color to the block's other fragments.

The model reuses the paper's signature machinery (:class:`SignatureBuffer`)
but feeds it a *coarse* signature — window positions quantized to whole
pixels, depths and attributes to small steps — so slow sub-pixel motion
still reads as "stable" and gets downsampled.  That is the essential
difference from RE: RE's exact signature must never false-match (a skip
is all-or-nothing), while DSR's coarse signature is allowed to match
across visually-similar frames because the cost of being wrong is bounded
blur, not a wrong tile.

Per frame, each tile's stability streak selects a rate:

=========  ====  ==================================
streak     rate  meaning
=========  ====  ==================================
0          1.0   full shading (content changing)
>= 1       0.5   1x2 blocks: one shaded, one reused
>= 3       0.25  2x2 blocks: one shaded, three reused
=========  ====  ==================================

The rate is resolved parent-side when tile jobs are scheduled (never
inside workers), so process-pool and serial schedulers stay
bit-identical.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Sequence

import numpy as np

from ..errors import PipelineError
from ..hw.signature_buffer import SignatureBuffer, row_signatures
from ..kernels.api import FrameGeometry, attribute_values

__all__ = ["coarse_overflow", "dsr_signature", "dsr_signatures",
           "DSRController", "DSR_RATES"]

#: Quantization steps for the coarse stability signature.
_QUANT_XY = 1.0        # window-space pixels
_QUANT_Z = 1.0 / 128.0
_QUANT_ATTR = 1.0 / 256.0

#: The discrete sampling rates the controller can select.
DSR_RATES = (1.0, 0.5, 0.25)


def _quantize(value: float, step: float) -> int:
    return int(round(value / step))


def _coarse_encoding(packed_state: bytes, window: Sequence,
                     attributes: Sequence) -> bytes:
    """The coarse byte encoding of a primitive with window-space
    ``(x, y, z)`` per vertex ``window`` and the attribute-table row per
    vertex ``attributes``."""
    parts: List[bytes] = [packed_state]
    for (x, y, depth), attrs in zip(window, attributes):
        parts.append(struct.pack(
            "<3i",
            _quantize(x, _QUANT_XY),
            _quantize(y, _QUANT_XY),
            _quantize(depth, _QUANT_Z),
        ))
        parts.append(struct.pack(
            "<9i", *(_quantize(value, _QUANT_ATTR) for value in attrs)))
    return b"".join(parts)


def coarse_overflow(command_id: int, survivor: int) -> PipelineError:
    """The error both DSR encoders raise for surviving primitive
    ``survivor`` of draw command ``command_id`` (its index among the
    command's survivors) when a quantized window coordinate or
    attribute does not fit the signature's ``<i`` fields, a non-finite
    attribute included."""
    return PipelineError(
        f"draw command {command_id}: surviving triangle {survivor} has a "
        f"window coordinate or attribute beyond the DSR signature's "
        f"int32 range")


def dsr_signature(triangle) -> int:
    """Coarse CRC32 of a :class:`ScreenTriangle` for stability tracking.

    Unlike ``RenderingElimination.primitive_crc`` (full f64 positions —
    must never false-match), this quantizes positions to whole pixels,
    depths to 1/128 and attributes to 1/256 so near-identical frames
    produce equal signatures.  Raises :func:`coarse_overflow`'s error
    for a value that does not quantize into ``<i``.
    """
    try:
        encoding = _coarse_encoding(
            triangle.state.pack(),
            [(p.x, p.y, z) for p, z in zip(triangle.xy, triangle.z)],
            [attribute_values(a) for a in triangle.attributes])
    except (struct.error, ValueError, OverflowError):
        # ``round`` raises for NaN (ValueError) and infinities
        # (OverflowError), ``struct.pack`` for integers beyond ``<i``.
        raise coarse_overflow(triangle.command_id,
                              triangle.primitive_id) from None
    return zlib.crc32(encoding)


#: Each window-space and attribute column's quantization step.
_STEPS = np.array((_QUANT_XY, _QUANT_XY, _QUANT_Z) + (_QUANT_ATTR,) * 9)


def dsr_signatures(table: FrameGeometry) -> np.ndarray:
    """:func:`dsr_signature` of every row of a frame's primitive table,
    as a ``uint32`` array.  ``np.rint`` rounds half to even, as
    ``round`` does.  The first row with a quantized value outside
    ``<i`` (or not finite) raises the error :func:`dsr_signature`
    raises for its primitive."""
    values = np.concatenate((table.window, table.attributes), axis=2)
    with np.errstate(invalid="ignore"):
        quantized = np.rint(values / _STEPS)
        fits = ((quantized >= -2 ** 31)
                & (quantized <= 2 ** 31 - 1)).all(axis=(1, 2))
    if not fits.all():
        row = int(np.argmin(fits))
        command_id = int(table.command[row])
        raise coarse_overflow(
            command_id,
            row - int(np.searchsorted(table.command, command_id)))
    # Per vertex 12 quantized values, packed as <i4.
    return row_signatures(table, quantized.astype("<i4").view(np.uint8)
                          .reshape(len(quantized), 3 * 48))


class DSRController:
    """Tracks per-tile coarse-signature stability and selects rates.

    Lives on the GPU (parent process) next to ``RenderingElimination``:
    the geometry pipeline feeds it one coarse CRC per (primitive, tile)
    during binning, the raster pipeline asks :meth:`rate_for_tile` when
    building each :class:`TileJob`, and the GPU calls :meth:`end_frame`
    after every frame.
    """

    HALF_RATE_STREAK = 1
    QUARTER_RATE_STREAK = 3

    def __init__(self, num_tiles: int) -> None:
        self.num_tiles = num_tiles
        self.signatures = SignatureBuffer(num_tiles)
        #: consecutive frames each tile's coarse signature has matched.
        self.stability: List[int] = [0] * num_tiles

    def on_primitive_binned(self, tile: int, coarse_crc: int) -> None:
        """Fold one primitive's coarse signature into the tile."""
        self.signatures.update(tile, coarse_crc)

    def on_primitives_binned(self, tiles: np.ndarray,
                             coarse_crcs: np.ndarray) -> None:
        """:meth:`on_primitive_binned` for many (primitive, tile) pairs,
        grouped tile by tile and in binning order within a tile."""
        self.signatures.update_many(tiles, coarse_crcs)

    def rate_for_tile(self, tile: int) -> float:
        """The sampling rate for this tile *this* frame (from streaks
        established by previous frames' :meth:`end_frame`)."""
        streak = self.stability[tile]
        if streak >= self.QUARTER_RATE_STREAK:
            return 0.25
        if streak >= self.HALF_RATE_STREAK:
            return 0.5
        return 1.0

    def end_frame(self) -> None:
        """Advance stability streaks and rotate the signature buffer."""
        for tile in range(self.num_tiles):
            if self.signatures.matches_previous(tile):
                self.stability[tile] += 1
            else:
                self.stability[tile] = 0
        self.signatures.rotate_frame()
