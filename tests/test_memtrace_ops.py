"""Tests for the columnar memory traces (``repro.memsys.ops``).

A phase hands its memory traffic over as one trace of columns.  The
scalar memory system takes a trace by having it replay itself: one
method call per op, in op order.
"""

from __future__ import annotations

import numpy as np

from repro import GPUConfig
from repro.memsys import MemorySystem
from repro.memsys.ops import GeometryTrace, RasterTrace, TextureBursts


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

    def fetch_vertex_range(self, start, count, vertex_bytes):
        self.calls.append(("vertices", start, count, vertex_bytes))

    def parameter_buffer_write(self, offset, size):
        self.calls.append(("pb_write", offset, size))


def _raster_trace() -> RasterTrace:
    """Two tiles: entries 0 and 1 in the first (entry 1 textured), entry
    2 in the second (textured); then an empty third tile."""
    return RasterTrace(
        pointer=np.array([64, 72, 80]), offset=np.array([128, 256, 384]),
        pointer_bytes=8, record_bytes=48,
        bounds=np.array([0, 2, 3, 3]), flush_bytes=1024,
        bursts=TextureBursts(
            entry=np.array([1, 2]), texture_id=np.array([3, 0]),
            texture_size=np.array([256, 16]), samples=np.array([2, 1]),
            count=np.array([2, 1]), u=np.array([0.25, 0.5, 0.125]),
            v=np.array([0.75, 1.0, 0.0])))


class TestReplay:
    def test_scalar_memory_receives_ops_in_order(self):
        """Per entry its pointer read, its record read and its texture
        burst (its own slice of ``u``/``v``); per tile one flush."""
        trace = _raster_trace()
        memory = _RecordingMemory()
        trace.replay(memory)
        u, v = trace.bursts.u, trace.bursts.v
        assert memory.calls == [
            ("pb", 64, 8), ("pb", 128, 48),
            ("pb", 72, 8), ("pb", 256, 48),
            ("tex", 3, 256, u[:2].tobytes(), v[:2].tobytes(), 2),
            ("flush", 1024),
            ("pb", 80, 8), ("pb", 384, 48),
            ("tex", 0, 16, u[2:].tobytes(), v[2:].tobytes(), 1),
            ("flush", 1024),
            ("flush", 1024),
        ]
        assert trace.ops == len(memory.calls)

    def test_geometry_trace_replays_rows_in_order(self):
        """The ``vertex_at`` rows are vertex-range fetches, every other
        row a Parameter Buffer write, in row order."""
        trace = GeometryTrace(start=np.array([0, 4096, 4104, 3, 4200]),
                              count=np.array([3, 48, 8, 6, 48]),
                              vertex_at=np.array([0, 3]), vertex_bytes=32)
        memory = _RecordingMemory()
        trace.replay(memory)
        assert memory.calls == [
            ("vertices", 0, 3, 32), ("pb_write", 4096, 48),
            ("pb_write", 4104, 8), ("vertices", 3, 6, 32),
            ("pb_write", 4200, 48),
        ]
        assert trace.ops == len(memory.calls)

    def test_scalar_model_takes_a_trace_through_replay_ops(self):
        """``MemorySystem.replay_ops`` is the trace's own replay."""
        config = GPUConfig.default()
        direct, replayed = MemorySystem(config), MemorySystem(config)
        _raster_trace().replay(direct)
        replayed.replay_ops(_raster_trace())
        assert direct.snapshot() == replayed.snapshot()
        assert direct.snapshot()["dram"]["write_bytes"] == 3 * 1024
