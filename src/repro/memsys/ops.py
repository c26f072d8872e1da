"""Typed memory-trace operations: the recorded form of memory traffic.

Every public :class:`~repro.memsys.MemorySystem` entry point has a
matching op type here, so a full run's memory traffic — raster-side tile
traces *and* geometry-side vertex/parameter-buffer traffic — can be
recorded as one flat op list and replayed later, either through the
scalar reference model (one method call per op) or through the batched
model (one structure-of-arrays drain per phase).

The op types live here, not in :mod:`repro.engine.tile_job` (which
records them), so the memory system can consume traces natively without
an engine/memsys layering cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import repeat
from typing import NamedTuple, Tuple

import numpy as np

# Memory-trace opcodes: small ints dispatch faster than strings.
OP_PB_READ = 0
OP_TEXTURE = 1
OP_FLUSH = 2
OP_VERTEX = 3
OP_VERTEX_RANGE = 4
OP_PB_WRITE = 5
OP_FB_LOAD = 6
OP_END_FRAME = 7
OP_RESET_STATS = 8
OP_RASTER = 9
OP_GEOMETRY = 10


class PBReadOp(NamedTuple):
    """Parameter Buffer read (display-list pointer or attribute fetch)."""

    offset: int
    size: int


class TextureOp(NamedTuple):
    """One batched texture-sampling burst for a shaded fragment set."""

    texture_id: int
    texture_size: int
    u: np.ndarray
    v: np.ndarray
    samples_per_fragment: int


class FlushOp(NamedTuple):
    """End-of-tile color flush to DRAM."""

    num_bytes: int


class VertexOp(NamedTuple):
    """Geometry pipeline fetch of one vertex's data."""

    vertex_index: int
    vertex_bytes: int


class VertexRangeOp(NamedTuple):
    """A whole command's vertex-stream fetch: ``count`` consecutive
    vertices starting at ``start`` — the closed-form batch of the
    per-vertex fetch loop."""

    start: int
    count: int
    vertex_bytes: int


class PBWriteOp(NamedTuple):
    """Polygon List Builder store of primitive attributes / pointers."""

    offset: int
    size: int


class FBLoadOp(NamedTuple):
    """Preload of a tile's previous color contents from DRAM."""

    num_bytes: int


class EndFrameOp(NamedTuple):
    """Frame boundary marker (Parameter Buffer retirement)."""


class ResetStatsOp(NamedTuple):
    """Phase boundary marker (counters zeroed, cache state kept)."""


PBReadOp.code = OP_PB_READ
TextureOp.code = OP_TEXTURE
FlushOp.code = OP_FLUSH
VertexOp.code = OP_VERTEX
VertexRangeOp.code = OP_VERTEX_RANGE
PBWriteOp.code = OP_PB_WRITE
FBLoadOp.code = OP_FB_LOAD
EndFrameOp.code = OP_END_FRAME
ResetStatsOp.code = OP_RESET_STATS

#: Any recorded memory-trace operation.
MemOp = Tuple  # typing alias: PBReadOp | TextureOp | ... | ResetStatsOp


@dataclass(frozen=True)
class RasterTrace:
    """A raster job's memory trace as columns.

    The op sequence is fixed by the job's display lists: tile ``i``'s
    entries are rows ``bounds[i]`` to ``bounds[i + 1]``, and each entry
    reads its pointer (``pointer_bytes`` at ``pointer``) and its
    attribute record (``record_bytes`` at ``offset``), then, if it
    shaded textured fragments, samples its texture; each tile ends with
    one ``flush_bytes`` colour flush.  The texture bursts are rows of
    the ``texture_*`` columns, in entry order: ``texture_entry`` is the
    entry, ``texture_count`` its fragment count, and ``u``/``v`` hold
    every burst's coordinates back to back.  Iterating yields the
    equivalent op objects in that order; :class:`BatchedMemorySystem`
    consumes the columns as they are.
    """

    pointer: np.ndarray          # (n,) int64
    offset: np.ndarray           # (n,) int64
    pointer_bytes: int
    record_bytes: int
    bounds: np.ndarray           # (t + 1,) int64
    flush_bytes: int
    texture_entry: np.ndarray    # (k,) int64, ascending
    texture_id: np.ndarray       # (k,) int64
    texture_size: np.ndarray     # (k,) int64
    texture_samples: np.ndarray  # (k,) int64 — samples per fragment
    texture_count: np.ndarray    # (k,) int64 — fragments per burst
    u: np.ndarray                # (sum of texture_count,) float64
    v: np.ndarray

    code = OP_RASTER

    def __iter__(self):
        pointers = self.pointer.tolist()
        offsets = self.offset.tolist()
        bursts = dict(zip(self.texture_entry.tolist(), zip(
            self.texture_id.tolist(), self.texture_size.tolist(),
            self.texture_samples.tolist(),
            np.cumsum(self.texture_count).tolist(),
            self.texture_count.tolist())))
        bounds = self.bounds.tolist()
        for start, stop in zip(bounds[:-1], bounds[1:]):
            for entry in range(start, stop):
                yield PBReadOp(pointers[entry], self.pointer_bytes)
                yield PBReadOp(offsets[entry], self.record_bytes)
                burst = bursts.get(entry)
                if burst is not None:
                    texture_id, size, samples, end, count = burst
                    yield TextureOp(texture_id, size,
                                    self.u[end - count:end],
                                    self.v[end - count:end], samples)
            yield FlushOp(self.flush_bytes)

    def fingerprint(self) -> tuple:
        """Every column as exact bits."""
        return tuple((value.dtype.str, value.tobytes())
                     if isinstance(value, np.ndarray) else value
                     for value in map(getattr, repeat(self),
                                      _TRACE_FIELDS))


_TRACE_FIELDS = tuple(field.name for field in fields(RasterTrace))


@dataclass(frozen=True)
class GeometryTrace:
    """The geometry phase's memory trace as columns.

    Row ``i`` is the phase's ``i``-th op.  The rows in ``vertex_at``
    (ascending) are the draw commands' vertex-range fetches: ``count``
    vertices of ``vertex_bytes`` each from vertex ``start``.  Every
    other row is a Parameter Buffer write of ``count`` bytes at offset
    ``start``.  Iterating yields the equivalent op objects in row
    order; :class:`BatchedMemorySystem` consumes the columns as they
    are.
    """

    start: np.ndarray       # (k,) int64
    count: np.ndarray       # (k,) int64
    vertex_at: np.ndarray   # (c,) int64, ascending
    vertex_bytes: int

    code = OP_GEOMETRY

    def __iter__(self):
        vertex_rows = set(self.vertex_at.tolist())
        for row, (start, count) in enumerate(zip(self.start.tolist(),
                                                 self.count.tolist())):
            if row in vertex_rows:
                yield VertexRangeOp(start, count, self.vertex_bytes)
            else:
                yield PBWriteOp(start, count)


def replay_memory_trace(ops, memory) -> None:
    """Replay recorded accesses into a memory system, in op order.

    The scalar reference model executes one method call per op — the
    exact sequence the historical inline loops produced.  A batched
    model advertises :meth:`replay_ops` and takes the whole list, or a
    :class:`RasterTrace`'s or :class:`GeometryTrace`'s columns, in one
    append (the structure-of-arrays drain happens at the next counter
    observation), so the per-op Python dispatch disappears from the
    replay hot path.
    """
    replay = getattr(memory, "replay_ops", None)
    if replay is not None:
        replay(ops)
        return
    for op in ops:
        code = op.code
        if code == OP_PB_READ:
            memory.parameter_buffer_read(op.offset, op.size)
        elif code == OP_TEXTURE:
            memory.texture_batch(op.texture_id, op.texture_size,
                                 op.u, op.v, op.samples_per_fragment)
        elif code == OP_FLUSH:
            memory.framebuffer_flush(op.num_bytes)
        elif code == OP_VERTEX:
            memory.fetch_vertex(op.vertex_index, op.vertex_bytes)
        elif code == OP_VERTEX_RANGE:
            memory.fetch_vertex_range(op.start, op.count, op.vertex_bytes)
        elif code == OP_PB_WRITE:
            memory.parameter_buffer_write(op.offset, op.size)
        elif code == OP_FB_LOAD:
            memory.framebuffer_load(op.num_bytes)
        elif code == OP_END_FRAME:
            memory.end_frame()
        elif code == OP_RESET_STATS:
            memory.reset_stats()
        else:  # pragma: no cover - trace is produced in-house
            raise ValueError(f"unknown memory-trace op {op!r}")
