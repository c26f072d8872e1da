"""Cross-backend bit-identity of the batched memory system.

The scalar :class:`~repro.memsys.MemorySystem` defines the semantics;
the batched model must reproduce every observable — per-cache counters,
snapshots, DRAM traffic and cycle estimates, frame-flush behaviour —
bit for bit on arbitrary traces.  Random op sequences (mixed streams,
line-straddling sizes, frame boundaries, mid-sequence counter
observations) are the proof; a handful of directed tests pin the
mechanisms (the closed-form LRU of sets of at most two ways and the
rank stepping of wider ones, run collapse, the texture runs' sample
counts, L2 cursor continuity).
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
    ops = []
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


@st.composite
def _geometry_trace(draw):
    """A geometry phase's columnar trace and, built independently, the
    op list it stands for: per draw command its vertex-range fetch, then
    its Parameter Buffer writes (records and display-list pointers)."""
    vertex_bytes = draw(st.sampled_from([30, 48]))
    commands = draw(st.lists(st.tuples(
        st.integers(0, 100), st.integers(0, 20),
        st.lists(st.tuples(st.integers(0, 5000), st.integers(1, 300)),
                 max_size=8)), max_size=5))
    ops = []
    vertex_at = []
    for start, count, writes in commands:
        vertex_at.append(len(ops))
        ops.append(VertexRangeOp(start, count, vertex_bytes))
        ops.extend(PBWriteOp(offset, size) for offset, size in writes)
    trace = GeometryTrace(
        start=np.array([op[0] for op in ops], dtype=np.int64),
        count=np.array([op[1] for op in ops], dtype=np.int64),
        vertex_at=np.array(vertex_at, dtype=np.int64),
        vertex_bytes=vertex_bytes)
    return trace, ops


def _replay_parts(parts, config_name):
    """Replay ``parts`` (columnar traces with their op lists, or single
    ops) into both models: the scalar one takes each trace's op list,
    the batched one its columns.  Each trace must iterate as its op
    list, and both models must end in the same state."""
    config = _CONFIGS[config_name]
    scalar = MemorySystem(config)
    batched = BatchedMemorySystem(config)
    for part in parts:
        if isinstance(part[0], (RasterTrace, GeometryTrace)):
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
        _replay_parts(parts, config_name)


class TestGeometryTraceColumns:
    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(st.one_of(_geometry_trace(), _raster_trace(),
                                    _op_strategy()), max_size=10),
           config_name=st.sampled_from(sorted(_CONFIGS)))
    def test_columns_match_the_scalar_op_list(self, parts, config_name):
        """Geometry traces replayed as columns into the batched model,
        between raster traces and other traffic, leave the snapshots
        and L2 cursor the scalar model reaches from the op lists they
        stand for; and a trace iterates as that op list."""
        _replay_parts(parts, config_name)


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
        trace = []
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
    """The lane LRU against the OrderedDict reference: sets of at most
    two ways settle in closed form, wider sets step rank by rank."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(),
           ways=st.lists(st.sampled_from([1, 2, 8]), min_size=1,
                         max_size=6),
           span=st.integers(1, 12))
    def test_matches_scalar_cache(self, data, ways, span):
        """Sets of mixed associativity share one lane space, as the
        first-level caches do, and the stream is split over several
        calls, so sets enter a call holding 0, 1 or 2 lines, clean and
        dirty.  Every hit and writeback, and every set's resident lines
        in recency order with their dirty bits, match one OrderedDict
        cache per set."""
        caches = [Cache(CacheConfig("ref", w * 64, 64, w, 1, 1))
                  for w in ways]
        lru = _LaneLRU(np.array(ways, np.int64))
        for _ in range(data.draw(st.integers(1, 4))):
            n = data.draw(st.integers(0, 60))
            lanes = data.draw(st.lists(st.integers(0, len(ways) - 1),
                                       min_size=n, max_size=n))
            tags = data.draw(st.lists(st.integers(0, span), min_size=n,
                                      max_size=n))
            writes = data.draw(st.lists(st.booleans(), min_size=n,
                                        max_size=n))
            expected = []
            for lane, tag, write in zip(lanes, tags, writes):
                result = caches[lane].access(tag * 64, 64, write=write)
                expected.append((bool(result.hits),
                                 bool(result.writebacks)))
            hit, wb = lru.simulate(np.array(lanes, np.int64),
                                   np.array(tags, np.int64),
                                   np.array(writes, bool))
            assert list(zip(hit.tolist(), wb.tolist())) == expected
            for lane, cache in enumerate(caches):
                # OrderedDict order is LRU first; the lane state is MRU
                # first, padded with empties.
                lines = list(cache._sets[0].lines.items())[::-1]
                live = lru.tags[lane] != -1
                assert lru.tags[lane][live].tolist() == [
                    tag for tag, _ in lines]
                assert lru.dirty[lane][live].tolist() == [
                    dirty for _, dirty in lines]

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

    @staticmethod
    def _two_way(*calls):
        """Run each ``(tags, writes)`` call through one 2-way set and
        return each call's ``(hits, writebacks)`` lists."""
        lru = _LaneLRU(np.full(1, 2, np.int64))
        out = []
        for tags, writes in calls:
            hit, wb = lru.simulate(np.zeros(len(tags), np.int64),
                                   np.array(tags, np.int64),
                                   np.array(writes, bool))
            out.append((hit.tolist(), wb.tolist()))
        return out

    def test_writeback_charged_to_the_evicting_access(self):
        """A dirty line two accesses back is written back by exactly the
        access that evicts it; the miss that refilled its way starts a
        clean residency, so the eviction after that writes nothing."""
        [(hits, wbs)] = self._two_way(
            ([0, 1, 2, 3, 4], [True, False, False, False, False]))
        assert hits == [False] * 5
        assert wbs == [False, False, True, False, False]

    def test_hit_at_distance_two_extends_the_residency(self):
        """Re-touching the line two accesses back is a hit that keeps the
        line resident, so a write earlier in its chain still dirties
        the eviction that finally ends it."""
        [(hits, wbs)] = self._two_way(
            ([0, 1, 0, 2, 3], [True, False, False, False, False]))
        assert hits == [False, False, True, False, False]
        assert wbs == [False, False, False, False, True]

    def test_carried_mru_line_retouched_first_is_a_hit(self):
        """A batch whose first access is the line the set carries as MRU
        hits, and that access's write dirties the carried line; the
        carried LRU line is the one the next miss evicts."""
        first, second = self._two_way(([0, 1], [False, False]),
                                      ([1, 2, 3], [True, False, False]))
        assert first == ([False, False], [False, False])
        assert second == ([True, False, False], [False, False, True])

    def test_carried_lines_enter_lru_first(self):
        """The first miss of a batch evicts the carried LRU line (here
        dirty, so it is written back), and the next miss the carried
        MRU line."""
        _, second = self._two_way(([0, 1], [True, False]),
                                  ([2, 0], [False, False]))
        assert second == ([False, False], [True, False])

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


class TestTextureExpansion:
    def test_runs_count_base_samples_only(self):
        """One bilinear burst whose fragments form long runs of a single
        line, with footprint lines that equal base lines: each line's
        extra hits count its base samples (all its runs together), and
        a line only the footprint reaches is charged its first touch."""
        # A 16-texel texture row is one 64-byte line, so a fragment's
        # line is its texel row; row 15's footprint clamps to row 15.
        v = np.array([0.99] * 30 + [0.2] * 10 + [0.99] * 5)
        u = np.full(v.size, 0.5)
        batched = BatchedMemorySystem(GPUConfig.default())
        columns = batched._expand_textures(
            np.array([0]), np.array([1]), np.array([16]), np.array([2]),
            np.array([True]), np.array([v.size]), u, v)
        line = (columns[4] - columns[4][0]) // 64
        assert line.tolist() == [0, 1, 12]   # rows 3, 4 (footprint), 15
        assert columns[7].tolist() == [2 * 10 - 1, 0, 2 * 35 - 1]
        scalar = MemorySystem(GPUConfig.default())
        for memory in (scalar, batched):
            memory.texture_batch(1, 16, u, v, samples_per_fragment=2)
        assert _observe(scalar) == _observe(batched)


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
        # collapse into runs inside one lane of the 2-way vertex cache,
        # which settles in closed form.  The one L2 refill goes to an
        # 8-way set, which is stepped: a lone straggler, so the scalar
        # tail takes it.
        for _ in range(8):
            batched.fetch_vertex(0)
        batched.snapshot()
        counters = global_registry().as_dict()["counters"]
        assert counters["memsys.line_accesses"] == 8 + 1
        assert counters["memsys.collapsed_runs"] == 7
        assert counters["memsys.closed_form_lanes"] == 1
        assert counters["memsys.batch_lanes"] == 2
        assert counters["memsys.scalar_tail_lanes"] == 1

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
