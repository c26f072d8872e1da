"""Typed memory-trace operations: the wire format of recorded traffic.

Every public :class:`~repro.memsys.MemorySystem` entry point has a
matching op type here, so a full run's memory traffic — raster-side tile
traces *and* geometry-side vertex/parameter-buffer traffic — can be
recorded as one flat op list and replayed later, either through the
scalar reference model (one method call per op) or through the batched
model (one structure-of-arrays drain per phase).

The op types live here, not in :mod:`repro.engine.tile_job` (which
records them), so the memory system can consume traces natively without
an engine/memsys layering cycle.

``MemOps`` lists pickle in packed form (one code byte per op, all int
operands in one flat tuple) because tile results cross process
boundaries under the pool scheduler; ``tests/test_memtrace_ops.py`` pins
the "never larger than the raw tuples" property.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

import numpy as np

# Memory-trace opcodes: small ints dispatch faster than strings and pack
# to one byte each on the wire (see MemOps).
OP_PB_READ = 0
OP_TEXTURE = 1
OP_FLUSH = 2
OP_VERTEX = 3
OP_VERTEX_RANGE = 4
OP_PB_WRITE = 5
OP_FB_LOAD = 6
OP_END_FRAME = 7
OP_RESET_STATS = 8


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

# Int-only op types by code, for the generic pack/unpack paths.
_INT_OP_TYPES = {
    OP_PB_READ: PBReadOp,
    OP_FLUSH: FlushOp,
    OP_VERTEX: VertexOp,
    OP_VERTEX_RANGE: VertexRangeOp,
    OP_PB_WRITE: PBWriteOp,
    OP_FB_LOAD: FBLoadOp,
    OP_END_FRAME: EndFrameOp,
    OP_RESET_STATS: ResetStatsOp,
}


def _pack_memory_ops(ops: "MemOps") -> Tuple[bytes, Tuple, Tuple]:
    """Compact wire form: one code byte per op, all int operands in one
    flat tuple, texture coordinate arrays kept as-is."""
    codes = bytearray()
    ints: List[int] = []
    arrays: List[np.ndarray] = []
    for op in ops:
        code = op.code
        codes.append(code)
        if code == OP_TEXTURE:
            ints.extend((op.texture_id, op.texture_size,
                         op.samples_per_fragment))
            arrays.append(op.u)
            arrays.append(op.v)
        else:
            ints.extend(op)
    return bytes(codes), tuple(ints), tuple(arrays)


def _unpack_memory_ops(codes: bytes, ints: Tuple, arrays: Tuple) -> "MemOps":
    """Inverse of :func:`_pack_memory_ops` (the pickle reconstructor)."""
    ops = MemOps()
    cursor = 0
    array_cursor = 0
    for code in codes:
        if code == OP_TEXTURE:
            ops.append(TextureOp(
                ints[cursor], ints[cursor + 1],
                arrays[array_cursor], arrays[array_cursor + 1],
                ints[cursor + 2],
            ))
            cursor += 3
            array_cursor += 2
        else:
            op_type = _INT_OP_TYPES[code]
            width = len(op_type._fields)
            ops.append(op_type(*ints[cursor:cursor + width]))
            cursor += width
    return ops


class MemOps(list):
    """An op list that pickles in packed form.

    Tile results cross process boundaries under the pool scheduler, so
    the trace's wire size matters.  Packing (code bytes + one int tuple)
    undercuts both the historical raw-tuple encoding and naive
    NamedTuple pickling.
    """

    def __reduce__(self):
        return (_unpack_memory_ops, _pack_memory_ops(self))


def replay_memory_trace(ops, memory) -> None:
    """Replay recorded accesses into a memory system, in op order.

    The scalar reference model executes one method call per op — the
    exact sequence the historical inline loops produced.  A batched
    model advertises :meth:`replay_ops` and consumes the whole list in
    one append (the structure-of-arrays drain happens at the next
    counter observation), so the per-op Python dispatch disappears from
    the replay hot path.
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
