"""Tests for the typed memory-trace ops (``repro.memsys.ops``).

Tile jobs record their memory accesses as typed NamedTuples and replay
them in tile order; under the pool scheduler the trace crosses a
process boundary, so ``MemOps`` pickles itself in a packed wire form.
These tests pin (a) replay equivalence through a pickle round-trip and
(b) the "never larger than the historical raw-tuple encoding" size
property that justified the packing.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.engine.tile_job import MemoryTrace
from repro.memsys.ops import (
    FlushOp,
    MemOps,
    PBReadOp,
    TextureOp,
    replay_memory_trace,
)


def _sample_trace() -> MemOps:
    """A representative tile trace: pointer reads, texture bursts, flush."""
    trace = MemoryTrace()
    rng = np.random.default_rng(11)
    for index in range(40):
        trace.parameter_buffer_read(index * 64, 48)
    for _ in range(4):
        u = rng.random(37)
        v = rng.random(37)
        trace.texture_batch(3, 256, u, v, samples_per_fragment=2)
    trace.framebuffer_flush(16 * 16 * 4)
    return trace.ops


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


class TestReplayEquivalence:
    def test_pickle_roundtrip_replays_identically(self):
        ops = _sample_trace()
        restored = pickle.loads(pickle.dumps(ops))
        assert isinstance(restored, MemOps)
        assert len(restored) == len(ops)

        direct, roundtripped = _RecordingMemory(), _RecordingMemory()
        replay_memory_trace(ops, direct)
        replay_memory_trace(restored, roundtripped)
        assert direct.calls == roundtripped.calls

    def test_roundtrip_preserves_types_and_fields(self):
        ops = _sample_trace()
        restored = pickle.loads(pickle.dumps(ops))
        for original, copy in zip(ops, restored):
            assert type(original) is type(copy)
            if isinstance(original, TextureOp):
                assert (original.texture_id, original.texture_size,
                        original.samples_per_fragment) == (
                            copy.texture_id, copy.texture_size,
                            copy.samples_per_fragment)
                np.testing.assert_array_equal(original.u, copy.u)
                np.testing.assert_array_equal(original.v, copy.v)
            else:
                assert original == copy

    def test_empty_trace(self):
        restored = pickle.loads(pickle.dumps(MemOps()))
        assert isinstance(restored, MemOps)
        assert restored == []


class TestWireSize:
    def test_packed_never_larger_than_raw_tuples(self):
        """The packed form must beat the historical string-tagged tuples."""
        ops = _sample_trace()
        raw = []
        for op in ops:
            if isinstance(op, PBReadOp):
                raw.append(("pb_read", op.offset, op.size))
            elif isinstance(op, TextureOp):
                raw.append(("texture", op.texture_id, op.texture_size,
                            op.u, op.v, op.samples_per_fragment))
            else:
                raw.append(("flush", op.num_bytes))
        for protocol in (2, pickle.HIGHEST_PROTOCOL):
            packed = len(pickle.dumps(ops, protocol))
            legacy = len(pickle.dumps(raw, protocol))
            assert packed <= legacy, (
                f"protocol {protocol}: packed {packed} > legacy {legacy}")

    def test_packed_beats_naive_namedtuple_pickle(self):
        ops = _sample_trace()
        packed = len(pickle.dumps(ops, pickle.HIGHEST_PROTOCOL))
        naive = len(pickle.dumps(list(ops), pickle.HIGHEST_PROTOCOL))
        assert packed < naive


class TestOpCodes:
    def test_codes_are_distinct_single_bytes(self):
        codes = {PBReadOp.code, TextureOp.code, FlushOp.code}
        assert len(codes) == 3
        assert all(0 <= code <= 255 for code in codes)
