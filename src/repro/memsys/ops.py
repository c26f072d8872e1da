"""Columnar memory traces: the recorded form of memory traffic.

Each phase of a frame hands its memory traffic to the memory system as
one trace of columns: the geometry phase its vertex fetches and
Parameter Buffer writes (:class:`GeometryTrace`), the raster phase its
Parameter Buffer reads, texture bursts and tile flushes
(:class:`RasterTrace`).  ``replay_ops`` is the only way traffic reaches
either model: the scalar :class:`~repro.memsys.MemorySystem` has the
trace replay itself, one method call per op in op order
(:meth:`RasterTrace.replay`), and the
:class:`~repro.memsys.BatchedMemorySystem` joins the columns to its
pending batch as arrays.

The trace types live here, not in the pipeline that records them, so
the memory system can consume them without a layering cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class TextureBursts(NamedTuple):
    """Texture bursts as columns, one row per entry that shaded textured
    fragments, in entry order: its ``count`` fragments sample texture
    ``texture_id`` (of ``texture_size`` texels a side) ``samples`` times
    each, at the coordinates ``u``/``v`` hold for every burst back to
    back.  A raster job numbers ``entry`` within the job, a frame's
    :class:`RasterTrace` within the frame."""

    entry: np.ndarray         # (k,) int64, ascending
    texture_id: np.ndarray    # (k,) int64
    texture_size: np.ndarray  # (k,) int64
    samples: np.ndarray       # (k,) int64 — samples per fragment
    count: np.ndarray         # (k,) int64 — fragments per burst
    u: np.ndarray             # (sum of count,) float64
    v: np.ndarray


@dataclass(frozen=True)
class RasterTrace:
    """A frame's raster memory trace as columns.

    The op sequence is fixed by the rendered tiles' display lists, in
    tile order: tile ``i``'s entries are rows ``bounds[i]`` to
    ``bounds[i + 1]``, and each entry reads its pointer
    (``pointer_bytes`` at ``pointer``) and its attribute record
    (``record_bytes`` at ``offset``), then, if it shaded textured
    fragments, samples its texture; each tile ends with one
    ``flush_bytes`` colour flush.  ``bursts`` holds the entries' texture
    bursts, each entry numbered within the frame.
    """

    pointer: np.ndarray          # (n,) int64
    offset: np.ndarray           # (n,) int64
    pointer_bytes: int
    record_bytes: int
    bounds: np.ndarray           # (t + 1,) int64
    flush_bytes: int
    bursts: TextureBursts

    @property
    def ops(self) -> int:
        """The ops the trace stands for: two reads per entry, one
        texture burst per row, one flush per tile."""
        return (2 * self.pointer.size + self.bursts.entry.size
                + self.bounds.size - 1)

    def replay(self, memory) -> None:
        """Call ``memory``'s methods once per op, in op order."""
        pointers = self.pointer.tolist()
        offsets = self.offset.tolist()
        texture = self.bursts
        bursts = dict(zip(texture.entry.tolist(), zip(
            texture.texture_id.tolist(), texture.texture_size.tolist(),
            texture.samples.tolist(), np.cumsum(texture.count).tolist(),
            texture.count.tolist())))
        bounds = self.bounds.tolist()
        for start, stop in zip(bounds[:-1], bounds[1:]):
            for entry in range(start, stop):
                memory.parameter_buffer_read(pointers[entry],
                                             self.pointer_bytes)
                memory.parameter_buffer_read(offsets[entry],
                                             self.record_bytes)
                burst = bursts.get(entry)
                if burst is not None:
                    texture_id, size, samples, end, count = burst
                    memory.texture_batch(texture_id, size,
                                         texture.u[end - count:end],
                                         texture.v[end - count:end],
                                         samples)
            memory.framebuffer_flush(self.flush_bytes)


@dataclass(frozen=True)
class GeometryTrace:
    """The geometry phase's memory trace as columns.

    Row ``i`` is the phase's ``i``-th op.  The rows in ``vertex_at``
    (ascending) are the draw commands' vertex-range fetches: ``count``
    vertices of ``vertex_bytes`` each from vertex ``start``.  Every
    other row is a Parameter Buffer write of ``count`` bytes at offset
    ``start``.
    """

    start: np.ndarray       # (k,) int64
    count: np.ndarray       # (k,) int64
    vertex_at: np.ndarray   # (c,) int64, ascending
    vertex_bytes: int

    @property
    def ops(self) -> int:
        """The ops the trace stands for: one per row."""
        return self.start.size

    def replay(self, memory) -> None:
        """Call ``memory``'s methods once per row, in row order."""
        vertex_rows = set(self.vertex_at.tolist())
        for row, (start, count) in enumerate(zip(self.start.tolist(),
                                                 self.count.tolist())):
            if row in vertex_rows:
                memory.fetch_vertex_range(start, count, self.vertex_bytes)
            else:
                memory.parameter_buffer_write(start, count)
