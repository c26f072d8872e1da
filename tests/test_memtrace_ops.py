"""Tests for the typed memory-trace ops (``repro.memsys.ops``).

``repro bench``'s recorded trace is a plain op list, and the geometry
and raster phases' traces are columns that iterate as op lists; all are
replayed in the process that recorded them: a scalar memory system
receives one method call per op, in op order.
"""

from __future__ import annotations

import numpy as np

from repro.memsys.ops import (
    EndFrameOp,
    FBLoadOp,
    FlushOp,
    GeometryTrace,
    PBReadOp,
    PBWriteOp,
    RasterTrace,
    ResetStatsOp,
    TextureOp,
    VertexOp,
    VertexRangeOp,
    replay_memory_trace,
)


class _RecordingMemory:
    """Duck-typed MemorySystem stand-in that logs the calls it receives."""

    def __init__(self) -> None:
        self.calls = []

    def parameter_buffer_read(self, offset, size):
        self.calls.append(("pb", offset, size))

    def texture_batch(self, texture_id, texture_size, u, v,
                      samples_per_fragment):
        self.calls.append(("tex", texture_id, texture_size,
                           u.tobytes(), v.tobytes(), samples_per_fragment))

    def framebuffer_flush(self, num_bytes):
        self.calls.append(("flush", num_bytes))


class TestReplay:
    def test_scalar_memory_receives_ops_in_order(self):
        u = np.array([0.25, 0.5])
        v = np.array([0.75, 1.0])
        ops = [PBReadOp(64, 48), TextureOp(3, 256, u, v, 2),
               PBReadOp(128, 16), FlushOp(16 * 16 * 4)]
        memory = _RecordingMemory()
        replay_memory_trace(ops, memory)
        assert memory.calls == [
            ("pb", 64, 48),
            ("tex", 3, 256, u.tobytes(), v.tobytes(), 2),
            ("pb", 128, 16),
            ("flush", 1024),
        ]


class TestOpCodes:
    def test_codes_are_distinct_single_bytes(self):
        kinds = (PBReadOp, TextureOp, FlushOp, VertexOp, VertexRangeOp,
                 PBWriteOp, FBLoadOp, EndFrameOp, ResetStatsOp,
                 RasterTrace, GeometryTrace)
        codes = {kind.code for kind in kinds}
        assert len(codes) == len(kinds)
        assert all(0 <= code <= 255 for code in codes)
