"""Cross-backend bit-identity of the batched memory system.

The scalar :class:`~repro.memsys.MemorySystem` defines the semantics;
the batched model must reproduce every observable — per-cache counters,
snapshots, DRAM traffic and cycle estimates, frame-flush behaviour —
bit for bit on arbitrary traces.  Random op sequences (mixed streams,
line-straddling sizes, frame boundaries, mid-sequence counter
observations) are the proof; a handful of directed tests pin the
mechanisms (exact LRU via rank stepping, run collapse, L2 cursor
continuity).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GPUConfig
from repro.config import CacheConfig
from repro.memsys import BatchedMemorySystem, MemorySystem
from repro.memsys.batched import _LaneLRU
from repro.memsys.cache import Cache
from repro.obs.metrics import global_registry
from repro.memsys.ops import (
    EndFrameOp,
    FBLoadOp,
    FlushOp,
    MemOps,
    PBReadOp,
    PBWriteOp,
    RasterTrace,
    ResetStatsOp,
    TextureOp,
    VertexOp,
    VertexRangeOp,
    replay_memory_trace,
)

from tests.strategies import edge_floats

#: A deliberately tiny hierarchy: single-digit sets and constant
#: evictions, so the fuzzer exercises victim selection and writebacks
#: far harder than the real geometry would.
_TINY = dataclasses.replace(
    GPUConfig.default(),
    caches=(
        CacheConfig("vertex", 256, 64, 2, 1, 1),
        CacheConfig("texture0", 128, 64, 2, 1, 1),
        CacheConfig("texture1", 128, 64, 2, 1, 1),
        CacheConfig("texture2", 128, 64, 2, 1, 1),
        CacheConfig("texture3", 128, 64, 2, 1, 1),
        CacheConfig("tile", 512, 64, 8, 8, 1),
        CacheConfig("l2", 1024, 64, 8, 8, 2),
        CacheConfig("color_buffer", 1024, 64, 1, 1, 1),
        CacheConfig("depth_buffer", 1024, 64, 1, 1, 1),
    ),
)

_CONFIGS = {"default": GPUConfig.default(), "tiny": _TINY}


def _uv_lists():
    # Interpolated coordinates can round a hair below 0: both signed
    # zeros, negative subnormals and exact repeats included.
    floats = edge_floats(-2.2250738585072014e-308, 1.0, ties=(0.5,))
    return st.lists(floats, min_size=1, max_size=40)


def _op_strategy():
    return st.one_of(
        st.tuples(st.just("vertex"), st.integers(0, 200),
                  st.sampled_from([4, 30, 48, 100])),
        st.tuples(st.just("vertex_range"), st.integers(0, 100),
                  st.integers(0, 20), st.sampled_from([30, 48])),
        st.tuples(st.just("pb_write"), st.integers(0, 5000),
                  st.integers(1, 300)),
        st.tuples(st.just("pb_read"), st.integers(0, 5000),
                  st.integers(1, 300)),
        st.tuples(st.just("texture"), st.integers(0, 5),
                  st.sampled_from([4, 16, 100, 256]), _uv_lists(),
                  st.integers(1, 4), st.booleans()),
        st.tuples(st.just("fb_flush"), st.integers(1, 4096)),
        st.tuples(st.just("fb_load"), st.integers(1, 4096)),
        st.tuples(st.just("end_frame")),
        st.tuples(st.just("reset_stats")),
    )


def _apply(memory, op) -> None:
    kind = op[0]
    if kind == "vertex":
        memory.fetch_vertex(op[1], op[2])
    elif kind == "vertex_range":
        memory.fetch_vertex_range(op[1], op[2], op[3])
    elif kind == "pb_write":
        memory.parameter_buffer_write(op[1], op[2])
    elif kind == "pb_read":
        memory.parameter_buffer_read(op[1], op[2])
    elif kind == "texture":
        u = np.array(op[3], np.float64)
        memory.texture_batch(op[1], op[2], u, u[::-1].copy(),
                             samples_per_fragment=op[4], bilinear=op[5])
    elif kind == "fb_flush":
        memory.framebuffer_flush(op[1])
    elif kind == "fb_load":
        memory.framebuffer_load(op[1])
    elif kind == "end_frame":
        memory.end_frame()
    elif kind == "reset_stats":
        memory.reset_stats()
    else:  # pragma: no cover
        raise AssertionError(kind)


def _observe(memory):
    return memory.snapshot(), memory.dram.cycles()


@st.composite
def _raster_trace(draw):
    """A raster job's columnar trace and, built independently, the op
    list it stands for: per entry its pointer read, its record read and
    its texture burst if it has one; one flush per tile."""
    sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=5))
    pointer_bytes = draw(st.sampled_from([8, 100]))
    record_bytes = draw(st.sampled_from([48, 144, 200]))
    flush_bytes = draw(st.sampled_from([64, 1024]))
    count = sum(sizes)
    pointers = draw(st.lists(st.integers(0, 5000), min_size=count,
                             max_size=count))
    offsets = draw(st.lists(st.integers(0, 5000), min_size=count,
                            max_size=count))
    bursts = {entry: draw(st.tuples(st.integers(0, 5),
                                    st.sampled_from([4, 16, 256]),
                                    st.integers(1, 3), _uv_lists()))
              for entry in range(count) if draw(st.booleans())}
    ops = MemOps()
    entry = 0
    for size in sizes:
        for _ in range(size):
            ops.append(PBReadOp(pointers[entry], pointer_bytes))
            ops.append(PBReadOp(offsets[entry], record_bytes))
            if entry in bursts:
                texture_id, texture_size, samples, uv = bursts[entry]
                u = np.array(uv)
                ops.append(TextureOp(texture_id, texture_size, u,
                                     u[::-1].copy(), samples))
            entry += 1
        ops.append(FlushOp(flush_bytes))
    textured = sorted(bursts)
    column = [np.array([bursts[entry][k] for entry in textured],
                       dtype=np.int64) for k in range(3)]
    uv = [np.array(bursts[entry][3]) for entry in textured]
    trace = RasterTrace(
        pointer=np.array(pointers, dtype=np.int64),
        offset=np.array(offsets, dtype=np.int64),
        pointer_bytes=pointer_bytes, record_bytes=record_bytes,
        bounds=np.concatenate(([0], np.cumsum(sizes))).astype(np.int64),
        flush_bytes=flush_bytes,
        texture_entry=np.array(textured, dtype=np.int64),
        texture_id=column[0], texture_size=column[1],
        texture_samples=column[2],
        texture_count=np.array([u.size for u in uv], dtype=np.int64),
        u=np.concatenate(uv) if uv else np.empty(0),
        v=np.concatenate([u[::-1] for u in uv]) if uv else np.empty(0))
    return trace, ops


class TestRasterTraceColumns:
    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(st.one_of(_raster_trace(), _op_strategy()),
                          max_size=12),
           config_name=st.sampled_from(sorted(_CONFIGS)))
    def test_columns_match_the_scalar_op_list(self, parts, config_name):
        """Raster traces replayed as columns into the batched model,
        between other traffic, leave the snapshots the scalar model
        reaches from the op lists they stand for; and a trace iterates
        as that op list."""
        config = _CONFIGS[config_name]
        scalar = MemorySystem(config)
        batched = BatchedMemorySystem(config)
        for part in parts:
            if isinstance(part[0], RasterTrace):
                trace, ops = part
                assert ([_op_key(op) for op in trace]
                        == [_op_key(op) for op in ops])
                replay_memory_trace(ops, scalar)
                replay_memory_trace(trace, batched)
            else:
                _apply(scalar, part)
                _apply(batched, part)
        assert _observe(scalar) == _observe(batched)
        assert scalar._l2_cursor == batched._l2_cursor


def _op_key(op):
    """An op as comparable values (texture coordinates by their bits)."""
    return tuple(value.tobytes() if isinstance(value, np.ndarray) else value
                 for value in op) + (op.code,)


class TestFuzzBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(_op_strategy(), max_size=60),
           config_name=st.sampled_from(sorted(_CONFIGS)),
           observe_every=st.integers(5, 25))
    def test_direct_calls_match(self, ops, config_name, observe_every):
        """Op-by-op public-API calls: every counter matches, including
        at observation points *inside* the sequence (which force the
        batched model to drain mid-stream)."""
        config = _CONFIGS[config_name]
        scalar = MemorySystem(config)
        batched = BatchedMemorySystem(config)
        for index, op in enumerate(ops):
            _apply(scalar, op)
            _apply(batched, op)
            if index % observe_every == 0:
                assert _observe(scalar) == _observe(batched)
        assert _observe(scalar) == _observe(batched)
        assert scalar._l2_cursor == batched._l2_cursor

    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(_op_strategy(), max_size=80),
           config_name=st.sampled_from(sorted(_CONFIGS)))
    def test_recorded_trace_replay_matches(self, ops, config_name):
        """A whole recorded trace (markers included) replayed through
        ``replay_memory_trace``: the scalar model dispatches per op, the
        batched model consumes the list in one drain."""
        trace = MemOps()
        for op in ops:
            kind = op[0]
            if kind == "vertex":
                trace.append(VertexOp(op[1], op[2]))
            elif kind == "vertex_range":
                trace.append(VertexRangeOp(op[1], op[2], op[3]))
            elif kind == "pb_write":
                trace.append(PBWriteOp(op[1], op[2]))
            elif kind == "pb_read":
                trace.append(PBReadOp(op[1], op[2]))
            elif kind == "texture":
                u = np.array(op[3], np.float64)
                trace.append(TextureOp(op[1], op[2], u, u[::-1].copy(),
                                       op[4]))
            elif kind == "fb_flush":
                trace.append(FlushOp(op[1]))
            elif kind == "fb_load":
                trace.append(FBLoadOp(op[1]))
            elif kind == "end_frame":
                trace.append(EndFrameOp())
            elif kind == "reset_stats":
                trace.append(ResetStatsOp())
        config = _CONFIGS[config_name]
        scalar = MemorySystem(config)
        batched = BatchedMemorySystem(config)
        replay_memory_trace(trace, scalar)
        replay_memory_trace(trace, batched)
        assert _observe(scalar) == _observe(batched)
        assert scalar._l2_cursor == batched._l2_cursor


class TestLaneLRU:
    """The rank-stepping LRU against the OrderedDict reference."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           sets=st.sampled_from([1, 2, 8]),
           ways=st.sampled_from([1, 2, 8]))
    def test_matches_scalar_cache(self, data, sets, ways):
        n = data.draw(st.integers(0, 120))
        lines = data.draw(st.lists(
            st.integers(0, 4 * sets * ways), min_size=n, max_size=n))
        writes = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))

        cache = Cache(CacheConfig("ref", sets * ways * 64, 64, ways, 1, 1))
        expected = []
        for line, write in zip(lines, writes):
            result = cache.access(line * 64, 64, write=write)
            expected.append((bool(result.hits), bool(result.writebacks)))

        lru = _LaneLRU(np.full(sets, ways, np.int64))
        line_arr = np.array(lines, np.int64)
        hit, wb = lru.simulate(line_arr % sets, line_arr // sets,
                               np.array(writes, bool))
        assert list(zip(hit.tolist(), wb.tolist())) == expected

    def test_chunked_equals_single_shot(self):
        """State carries across simulate() calls: splitting a stream at
        arbitrary points (as drains do) must not change any outcome."""
        rng = np.random.default_rng(7)
        lanes = rng.integers(0, 4, 300)
        tags = rng.integers(0, 6, 300)
        writes = rng.random(300) < 0.3

        one = _LaneLRU(np.full(4, 2, np.int64))
        hit_a, wb_a = one.simulate(lanes, tags, writes)

        chunked = _LaneLRU(np.full(4, 2, np.int64))
        hits, wbs = [], []
        for lo, hi in [(0, 1), (1, 50), (50, 51), (51, 300)]:
            h, w = chunked.simulate(lanes[lo:hi], tags[lo:hi], writes[lo:hi])
            hits.append(h)
            wbs.append(w)
        assert np.array_equal(np.concatenate(hits), hit_a)
        assert np.array_equal(np.concatenate(wbs), wb_a)
        assert np.array_equal(one.tags, chunked.tags)
        assert np.array_equal(one.dirty, chunked.dirty)

    def test_run_collapse_counts_dirty_correctly(self):
        """A same-line run with one write anywhere leaves the line dirty
        (the collapse ORs the run's write flags)."""
        lru = _LaneLRU(np.full(1, 1, np.int64))
        lanes = np.zeros(3, np.int64)
        tags = np.zeros(3, np.int64)
        hit, _ = lru.simulate(lanes, tags, np.array([False, True, False]))
        assert hit.tolist() == [False, True, True]
        # Evict by touching another tag: the dirty line must write back.
        _, wb = lru.simulate(np.zeros(1, np.int64), np.ones(1, np.int64),
                             np.zeros(1, bool))
        assert wb.tolist() == [True]


class TestDrainBoundaries:
    def test_l2_cursor_survives_drains_and_frames(self):
        config = GPUConfig.default()
        scalar = MemorySystem(config)
        batched = BatchedMemorySystem(config)
        for memory in (scalar, batched):
            memory.fetch_vertex_range(0, 64, 48)
            memory.snapshot()  # force a drain mid-frame
            memory.parameter_buffer_write(0, 4096)
            memory.end_frame()
            memory.fetch_vertex_range(64, 64, 48)
        assert _observe(scalar) == _observe(batched)
        assert scalar._l2_cursor == batched._l2_cursor

    def test_end_frame_flushes_dirty_parameter_buffer(self):
        batched = BatchedMemorySystem(GPUConfig.default())
        batched.parameter_buffer_write(0, 4096)
        batched.end_frame()
        snap = batched.snapshot()
        assert snap["tile"]["writebacks"] > 0
        assert snap["dram"]["write_bytes"] > 0

    def test_counter_reads_force_drain(self):
        batched = BatchedMemorySystem(GPUConfig.default())
        batched.fetch_vertex(0)
        assert batched.vertex_cache.accesses == 1
        assert batched.vertex_cache.misses == 1
        batched.fetch_vertex(0)
        assert batched.vertex_cache.hits == 1
        assert batched.vertex_cache.hit_rate == 0.5

    def test_eager_validation_matches_scalar(self):
        from repro import MemoryModelError

        scalar = MemorySystem(GPUConfig.default())
        batched = BatchedMemorySystem(GPUConfig.default())
        for memory in (scalar, batched):
            with pytest.raises(MemoryModelError):
                memory.fetch_vertex(0, 0)
            with pytest.raises(MemoryModelError):
                memory.fetch_vertex_range(0, -1)
            with pytest.raises(MemoryModelError):
                memory.parameter_buffer_read(0, -5)
            with pytest.raises(MemoryModelError):
                memory.framebuffer_flush(0)
        # Nothing leaked into the counters on either side.
        assert _observe(scalar) == _observe(batched)


class TestBatchingTelemetry:
    """The batched model reports its vectorization quality to the
    global metrics registry (surfaced via ``--metrics`` and the
    dashboard's memsys panel) without perturbing simulation."""

    def setup_method(self):
        global_registry().reset()

    def test_drain_batch_sizes_are_observed(self):
        batched = BatchedMemorySystem(GPUConfig.default())
        for vertex in range(5):
            batched.fetch_vertex(vertex)
        batched.snapshot()  # forces one drain of 5 pending ops
        summary = global_registry().as_dict()
        histogram = summary["histograms"]["memsys.drain_batch_ops"]
        assert histogram["count"] == 1
        assert histogram["max"] >= 5

    def test_lane_collapse_counters(self):
        batched = BatchedMemorySystem(GPUConfig.default())
        # Same vertex fetched repeatedly: consecutive same-line accesses
        # collapse into runs inside one lane.
        for _ in range(8):
            batched.fetch_vertex(0)
        batched.snapshot()
        counters = global_registry().as_dict()["counters"]
        assert counters["memsys.line_accesses"] >= 8
        assert counters["memsys.collapsed_runs"] >= 1
        assert counters["memsys.batch_lanes"] >= 1
        assert "memsys.scalar_tail_lanes" in counters

    def test_telemetry_never_changes_results(self):
        config = GPUConfig.default()
        first = BatchedMemorySystem(config)
        for vertex in range(32):
            first.fetch_vertex(vertex % 7)
        baseline = _observe(first)
        global_registry().reset()
        second = BatchedMemorySystem(config)
        for vertex in range(32):
            second.fetch_vertex(vertex % 7)
        assert _observe(second) == baseline
