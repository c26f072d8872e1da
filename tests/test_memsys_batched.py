"""Cross-backend bit-identity of the batched memory system.

The scalar :class:`~repro.memsys.MemorySystem` defines the semantics;
the batched model must reproduce every observable — per-cache counters,
snapshots, DRAM traffic and cycle estimates, frame-flush behaviour —
bit for bit on arbitrary traces.  Random geometry and raster traces
(mixed streams, line-straddling sizes, frame boundaries, mid-sequence
counter observations) are the proof; a handful of directed tests pin
the mechanisms (the closed-form LRU of sets of at most two ways and the
rank stepping of wider ones, run collapse, the texture runs' sample
counts, L2 cursor continuity).  Traffic reaches either model only
through ``replay_ops``: the scalar model replays a trace one method
call per op, which is what each trace is checked against.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GPUConfig
from repro.config import CacheConfig
from repro.pipeline import GPU
from repro.scenes import benchmark_stream
from repro.techniques import technique_names
from repro.engine.scheduler import SerialScheduler
from repro.memsys import BatchedMemorySystem, MemorySystem
from repro.memsys.batched import _TAIL_LANES, _LaneLRU
from repro.memsys.cache import Cache
from repro.obs.metrics import global_registry
from repro.memsys.ops import GeometryTrace, RasterTrace, TextureBursts
from repro.pipeline import raster

from tests.memtraces import parameter_writes, raster_trace, vertex_fetches
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


def _lifecycle():
    """The calls between traces: a frame boundary or a counter reset."""
    return st.tuples(st.sampled_from(["end_frame", "reset_stats"]))


def _apply(memory, op) -> None:
    """One call a trace stands for (the scalar model's per-op methods),
    or a lifecycle call."""
    kind = op[0]
    if kind == "vertex_range":
        memory.fetch_vertex_range(op[1], op[2], op[3])
    elif kind == "pb_write":
        memory.parameter_buffer_write(op[1], op[2])
    elif kind == "pb_read":
        memory.parameter_buffer_read(op[1], op[2])
    elif kind == "texture":
        u = np.array(op[3], np.float64)
        memory.texture_batch(op[1], op[2], u, u[::-1].copy(),
                             samples_per_fragment=op[4])
    elif kind == "fb_flush":
        memory.framebuffer_flush(op[1])
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
    """A raster job's columnar trace and, built independently, the calls
    it stands for (as :func:`_apply` takes them): per entry its pointer
    read, its record read and its texture burst if it has one; one
    flush per tile."""
    sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=5))
    # Line-straddling sizes among the pipeline's own (8 and 144).
    pointer_bytes = draw(st.integers(1, 300))
    record_bytes = draw(st.integers(1, 300))
    flush_bytes = draw(st.integers(1, 4096))
    count = sum(sizes)
    pointers = draw(st.lists(st.integers(0, 5000), min_size=count,
                             max_size=count))
    offsets = draw(st.lists(st.integers(0, 5000), min_size=count,
                            max_size=count))
    # Non-power-of-two sizes take other mip and base arithmetic.
    bursts = {entry: draw(st.tuples(st.integers(0, 5),
                                    st.sampled_from([4, 16, 100, 256]),
                                    st.integers(1, 4), _uv_lists()))
              for entry in range(count) if draw(st.booleans())}
    calls = []
    entry = 0
    for size in sizes:
        for _ in range(size):
            calls.append(("pb_read", pointers[entry], pointer_bytes))
            calls.append(("pb_read", offsets[entry], record_bytes))
            if entry in bursts:
                texture_id, texture_size, samples, uv = bursts[entry]
                calls.append(("texture", texture_id, texture_size, uv,
                              samples))
            entry += 1
        calls.append(("fb_flush", flush_bytes))
    textured = sorted(bursts)
    column = [np.array([bursts[entry][k] for entry in textured],
                       dtype=np.int64) for k in range(3)]
    uv = [np.array(bursts[entry][3], np.float64) for entry in textured]
    trace = RasterTrace(
        pointer=np.array(pointers, dtype=np.int64),
        offset=np.array(offsets, dtype=np.int64),
        pointer_bytes=pointer_bytes, record_bytes=record_bytes,
        bounds=np.concatenate(([0], np.cumsum(sizes))).astype(np.int64),
        flush_bytes=flush_bytes,
        bursts=TextureBursts(
            entry=np.array(textured, dtype=np.int64),
            texture_id=column[0], texture_size=column[1],
            samples=column[2],
            count=np.array([u.size for u in uv], dtype=np.int64),
            u=np.concatenate(uv) if uv else np.empty(0),
            v=np.concatenate([u[::-1] for u in uv]) if uv else np.empty(0)))
    return trace, calls


@st.composite
def _geometry_trace(draw):
    """A geometry phase's columnar trace and, built independently, the
    calls it stands for: per draw command its vertex-range fetch, then
    its Parameter Buffer writes (records and display-list pointers)."""
    vertex_bytes = draw(st.sampled_from([4, 30, 48, 100]))
    commands = draw(st.lists(st.tuples(
        st.integers(0, 200), st.integers(0, 20),
        st.lists(st.tuples(st.integers(0, 5000), st.integers(1, 300)),
                 max_size=8)), max_size=5))
    calls = []
    vertex_at = []
    for start, count, writes in commands:
        vertex_at.append(len(calls))
        calls.append(("vertex_range", start, count, vertex_bytes))
        calls.extend(("pb_write", offset, size) for offset, size in writes)
    trace = GeometryTrace(
        start=np.array([call[1] for call in calls], dtype=np.int64),
        count=np.array([call[2] for call in calls], dtype=np.int64),
        vertex_at=np.array(vertex_at, dtype=np.int64),
        vertex_bytes=vertex_bytes)
    return trace, calls


class _CallLog:
    """Duck-typed memory system logging the calls a trace replays, in
    the form :func:`_call_key` gives :func:`_apply`'s tuples."""

    def __init__(self) -> None:
        self.calls = []

    def fetch_vertex_range(self, start, count, vertex_bytes=48):
        self.calls.append(("vertex_range", start, count, vertex_bytes))

    def parameter_buffer_write(self, offset, size):
        self.calls.append(("pb_write", offset, size))

    def parameter_buffer_read(self, offset, size):
        self.calls.append(("pb_read", offset, size))

    def texture_batch(self, texture_id, texture_size, u, v,
                      samples_per_fragment=1):
        self.calls.append(("texture", texture_id, texture_size, u.tobytes(),
                           v.tobytes(), samples_per_fragment))

    def framebuffer_flush(self, num_bytes):
        self.calls.append(("fb_flush", num_bytes))


def _call_key(call):
    """A call tuple as :class:`_CallLog` logs it (texture coordinates as
    the bits of the arrays :func:`_apply` builds)."""
    if call[0] != "texture":
        return call
    u = np.array(call[3], np.float64)
    return call[:3] + (u.tobytes(), u[::-1].tobytes()) + call[4:]


def _replay_parts(parts, config_name, observe_every=None):
    """Replay ``parts`` (columnar traces with the calls they stand for,
    or lifecycle calls) into both models: the scalar one takes each
    trace's calls, the batched one its columns.  Each trace must replay
    as its calls, and both models must end in the same state — and be
    in the same state after every ``observe_every``-th part, an
    observation that drains the batched model mid-stream."""
    config = _CONFIGS[config_name]
    scalar = MemorySystem(config)
    batched = BatchedMemorySystem(config)
    for index, part in enumerate(parts):
        if isinstance(part[0], (RasterTrace, GeometryTrace)):
            trace, calls = part
            log = _CallLog()
            trace.replay(log)
            assert log.calls == [_call_key(call) for call in calls]
            assert trace.ops == len(calls)
            for call in calls:
                _apply(scalar, call)
            batched.replay_ops(trace)
        else:
            _apply(scalar, part)
            _apply(batched, part)
        if observe_every and index % observe_every == 0:
            assert _observe(scalar) == _observe(batched)
    assert _observe(scalar) == _observe(batched)
    assert scalar._l2_cursor == batched._l2_cursor


class TestRasterTraceColumns:
    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(st.one_of(_raster_trace(), _lifecycle()),
                          max_size=12),
           config_name=st.sampled_from(sorted(_CONFIGS)))
    def test_columns_match_the_scalar_op_list(self, parts, config_name):
        """Raster traces replayed as columns into the batched model,
        between other traffic, leave the snapshots the scalar model
        reaches from the calls they stand for; and a trace replays as
        those calls."""
        _replay_parts(parts, config_name)


class TestGeometryTraceColumns:
    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(st.one_of(_geometry_trace(), _raster_trace(),
                                    _lifecycle()), max_size=10),
           config_name=st.sampled_from(sorted(_CONFIGS)))
    def test_columns_match_the_scalar_op_list(self, parts, config_name):
        """Geometry traces replayed as columns into the batched model,
        between raster traces and other traffic, leave the snapshots
        and L2 cursor the scalar model reaches from the calls they
        stand for; and a trace replays as those calls."""
        _replay_parts(parts, config_name)


class TestFuzzBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(st.one_of(_geometry_trace(), _raster_trace(),
                                    _lifecycle()), max_size=30),
           config_name=st.sampled_from(sorted(_CONFIGS)),
           observe_every=st.integers(1, 8))
    def test_direct_calls_match(self, parts, config_name, observe_every):
        """Long runs of geometry and raster traces with frame boundaries
        and counter resets: every counter matches, including at
        observation points *inside* the sequence (which force the
        batched model to drain mid-stream)."""
        _replay_parts(parts, config_name, observe_every)


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

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           narrow=st.integers(0, 6),
           skew=st.floats(0.5, 2.5),
           span=st.integers(9, 24),
           calls=st.lists(st.integers(0, 1500), min_size=1, max_size=3))
    def test_rank_stepping_matches_scalar_cache(self, seed, narrow, skew,
                                                span, calls):
        """More than ``_TAIL_LANES`` 8-way sets (some 2-way ones among
        them) with Zipf-skewed access counts, so the active prefix
        shrinks rank by rank and the deepest sets finish in the scalar
        tail.  A first call fills every 8-way set with eight dirty
        lines, so the random calls after it open on full, dirty sets
        and evict from them; the stream is split over those calls.
        Every hit, writeback and resident line matches one OrderedDict
        cache per set."""
        rng = np.random.default_rng(seed)
        ways = [2] * narrow + [8] * (2 * _TAIL_LANES)
        rng.shuffle(ways)
        caches = [Cache(CacheConfig("ref", w * 64, 64, w, 1, 1))
                  for w in ways]
        lru = _LaneLRU(np.array(ways, np.int64))
        wide = [lane for lane, w in enumerate(ways) if w == 8]
        fill = (np.repeat(wide, 8),
                np.tile(np.arange(span - 8, span), len(wide)),
                np.ones(8 * len(wide), bool))
        # Lane popularity falls off as 1 / rank^skew, in a random order.
        weight = 1.0 / np.arange(1, len(ways) + 1) ** skew
        popular = rng.permutation(len(ways))
        streams = [fill] + [
            (rng.choice(popular, size=n, p=weight / weight.sum()),
             rng.integers(0, span, n), rng.random(n) < 0.4)
            for n in calls]
        registry = global_registry()
        tail_before = registry.counter("memsys.scalar_tail_lanes").value
        for lanes, tags, writes in streams:
            expected = [
                (bool(result.hits), bool(result.writebacks))
                for result in (
                    caches[lane].access(tag * 64, 64, write=bool(write))
                    for lane, tag, write in zip(lanes.tolist(),
                                                tags.tolist(),
                                                writes.tolist()))]
            hit, wb = lru.simulate(np.asarray(lanes, np.int64),
                                   np.asarray(tags, np.int64),
                                   np.asarray(writes, bool))
            assert list(zip(hit.tolist(), wb.tolist())) == expected
        for lane, cache in enumerate(caches):
            lines = list(cache._sets[0].lines.items())[::-1]
            live = lru.tags[lane] != -1
            assert lru.tags[lane][live].tolist() == [
                tag for tag, _ in lines]
            assert lru.dirty[lane][live].tolist() == [
                dirty for _, dirty in lines]
        if max(calls) >= 1000 and skew >= 1.5:
            # A long, skewed call leaves stragglers to the scalar tail.
            assert (registry.counter("memsys.scalar_tail_lanes").value
                    > tail_before)

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

    def test_lane_space_wider_than_16_bits(self):
        """Lanes 0 and 65536 share their low 16 bits; a lane space that
        wide must still keep them apart (the lane sort takes a 16-bit
        key only when every lane fits)."""
        lru = _LaneLRU(np.full(65537, 1, np.int64))
        lanes = np.array([0, 65536, 0, 65536], np.int64)
        hit, wb = lru.simulate(lanes, np.array([1, 2, 3, 2], np.int64),
                               np.array([True, False, False, False]))
        assert hit.tolist() == [False, False, False, True]
        assert wb.tolist() == [False, False, True, False]
        assert lru.tags[[0, 65536], 0].tolist() == [3, 2]


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
            np.array([v.size]), u, v)
        line = (columns[4] - columns[4][0]) // 64
        assert line.tolist() == [0, 1, 12]   # rows 3, 4 (footprint), 15
        assert columns[7].tolist() == [2 * 10 - 1, 0, 2 * 35 - 1]
        scalar = MemorySystem(GPUConfig.default())
        for memory in (scalar, batched):
            memory.replay_ops(raster_trace([(0, 0)], burst=(1, 16, u, v, 2)))
        assert _observe(scalar) == _observe(batched)

    def test_bursts_without_fragments_or_samples_touch_nothing(self):
        """A burst with no fragments, or none of its fragments' samples,
        is no traffic on either model (the scalar ``texture_batch``
        returns early for it), beside a live burst of the same trace."""
        u = np.linspace(0.0, 1.0, 8)
        trace = dataclasses.replace(
            raster_trace([(0, 0)] * 3),
            bursts=TextureBursts(
                entry=np.array([0, 1, 2], dtype=np.int64),
                texture_id=np.array([0, 1, 2], dtype=np.int64),
                texture_size=np.array([16, 16, 16], dtype=np.int64),
                samples=np.array([1, 0, 2], dtype=np.int64),
                count=np.array([0, 8, 8], dtype=np.int64),
                u=np.concatenate([u, u]), v=np.concatenate([u, u])))
        scalar = MemorySystem(GPUConfig.default())
        batched = BatchedMemorySystem(GPUConfig.default())
        for memory in (scalar, batched):
            memory.replay_ops(trace)
        assert _observe(scalar) == _observe(batched)
        snap = batched.snapshot()
        assert [snap[f"texture{index}"]["accesses"] > 0
                for index in range(3)] == [False, False, True]


class TestDrainBoundaries:
    def test_l2_cursor_survives_drains_and_frames(self):
        config = GPUConfig.default()
        scalar = MemorySystem(config)
        batched = BatchedMemorySystem(config)
        for memory in (scalar, batched):
            memory.replay_ops(vertex_fetches((0, 64)))
            memory.snapshot()  # force a drain mid-frame
            memory.replay_ops(parameter_writes((0, 4096)))
            memory.end_frame()
            memory.replay_ops(vertex_fetches((64, 64)))
        assert _observe(scalar) == _observe(batched)
        assert scalar._l2_cursor == batched._l2_cursor

    def test_end_frame_flushes_dirty_parameter_buffer(self):
        batched = BatchedMemorySystem(GPUConfig.default())
        batched.replay_ops(parameter_writes((0, 4096)))
        batched.end_frame()
        snap = batched.snapshot()
        assert snap["tile"]["writebacks"] > 0
        assert snap["dram"]["write_bytes"] > 0

    def test_counter_reads_force_drain(self):
        batched = BatchedMemorySystem(GPUConfig.default())
        batched.replay_ops(vertex_fetches((0, 1)))
        assert batched.vertex_cache.accesses == 1
        assert batched.vertex_cache.misses == 1
        batched.replay_ops(vertex_fetches((0, 1)))
        assert batched.vertex_cache.hits == 1
        assert batched.vertex_cache.hit_rate == 0.5

    def test_eager_validation_matches_scalar(self):
        """A trace with an invalid op raises the scalar model's
        ``MemoryModelError`` on both models: the scalar one as it
        replays the op, the batched one when it drains the trace."""
        from repro import MemoryModelError

        invalid = [vertex_fetches((0, 1), vertex_bytes=0),
                   vertex_fetches((0, -1)),
                   parameter_writes((0, -5)),
                   parameter_writes((-(1 << 31), 8)),
                   raster_trace([(0, 0)], pointer_bytes=0),
                   raster_trace(flush_bytes=0),
                   raster_trace([(0, 0)], flush_bytes=-1)]
        for trace in invalid:
            scalar = MemorySystem(GPUConfig.default())
            batched = BatchedMemorySystem(GPUConfig.default())
            with pytest.raises(MemoryModelError):
                scalar.replay_ops(trace)
            batched.replay_ops(trace)
            with pytest.raises(MemoryModelError):
                batched.drain()

    def test_invalid_batch_leaves_the_model_untouched(self):
        """The batched model validates a whole batch before it changes
        any state, so an invalid batch is dropped whole: neither the
        valid traces queued before the invalid one nor a trace's valid
        first tile are applied.  The scalar model has applied every op
        before the invalid one: here the first tile's reads and
        burst."""
        from repro import MemoryModelError

        u = np.linspace(0.0, 1.0, 32)
        two_tiles = dataclasses.replace(
            raster_trace([(0, 0), (512, 1024)], burst=(1, 16, u, u, 1),
                         flush_bytes=0),
            bounds=np.array([0, 1, 2], dtype=np.int64))
        batches = (
            [two_tiles],
            [vertex_fetches((64, 8)), raster_trace([(0, 0)],
                                                   flush_bytes=-1)],
            [raster_trace([(0, 0)], burst=(2, 100, u, u, 4)),
             parameter_writes((0, -5))],
        )
        batched = BatchedMemorySystem(GPUConfig.default())
        batched.replay_ops(vertex_fetches((0, 64)))
        before = _observe(batched)
        for traces in batches:
            for trace in traces:
                batched.replay_ops(trace)
            with pytest.raises(MemoryModelError):
                batched.drain()
            assert _observe(batched) == before

        scalar = MemorySystem(GPUConfig.default())
        with pytest.raises(MemoryModelError):
            scalar.replay_ops(two_tiles)
        snap = scalar.snapshot()
        assert snap["tile"]["accesses"] == 2
        assert snap["texture1"]["accesses"] > 0
        assert snap["dram"]["write_bytes"] == 0


class TestBatchingTelemetry:
    """The batched model reports its vectorization quality to the
    global metrics registry (surfaced via ``--metrics`` and the
    dashboard's memsys panel) without perturbing simulation."""

    def setup_method(self):
        global_registry().reset()

    def test_drain_batch_sizes_are_observed(self):
        batched = BatchedMemorySystem(GPUConfig.default())
        batched.replay_ops(vertex_fetches(*((vertex, 1)
                                            for vertex in range(5))))
        batched.snapshot()  # forces one drain of 5 pending ops
        summary = global_registry().as_dict()
        histogram = summary["histograms"]["memsys.drain_batch_ops"]
        assert histogram["count"] == 1
        assert histogram["max"] == 5

    def test_drain_counts_every_op_a_trace_stands_for(self):
        """One drain observes the ops of its batch: a raster trace's two
        reads per entry, texture bursts and tile flushes, and each
        geometry trace's rows; ``end_frame`` drains and queues
        nothing."""
        batched = BatchedMemorySystem(GPUConfig.default())
        u = np.array([0.25, 0.5])
        batched.replay_ops(GeometryTrace(
            start=np.array([0, 64, 128]), count=np.array([3, 48, 8]),
            vertex_at=np.array([0]), vertex_bytes=48))
        batched.replay_ops(RasterTrace(
            pointer=np.array([0, 8, 16]), offset=np.array([64, 128, 192]),
            pointer_bytes=8, record_bytes=48, bounds=np.array([0, 2, 3]),
            flush_bytes=1024, bursts=TextureBursts(
                entry=np.array([1]), texture_id=np.array([0]),
                texture_size=np.array([16]), samples=np.array([1]),
                count=np.array([2]), u=u, v=u)))
        batched.replay_ops(parameter_writes((0, 8), (8, 8)))
        batched.end_frame()
        histogram = global_registry().as_dict()["histograms"][
            "memsys.drain_batch_ops"]
        assert histogram["count"] == 1
        assert histogram["max"] == 3 + (2 * 3 + 1 + 2) + 2

    def test_lane_collapse_counters(self):
        batched = BatchedMemorySystem(GPUConfig.default())
        # Same vertex fetched repeatedly: consecutive same-line accesses
        # collapse into runs inside one lane of the 2-way vertex cache,
        # which settles in closed form.  The one L2 refill goes to an
        # 8-way set, which is stepped: a lone straggler, so the scalar
        # tail takes it.
        batched.replay_ops(vertex_fetches(*[(0, 1)] * 8))
        batched.snapshot()
        counters = global_registry().as_dict()["counters"]
        assert counters["memsys.line_accesses"] == 8 + 1
        assert counters["memsys.collapsed_runs"] == 7
        assert counters["memsys.closed_form_lanes"] == 1
        assert counters["memsys.batch_lanes"] == 2
        assert counters["memsys.scalar_tail_lanes"] == 1

    def test_telemetry_never_changes_results(self):
        config = GPUConfig.default()
        trace = vertex_fetches(*((vertex % 7, 1) for vertex in range(32)))
        first = BatchedMemorySystem(config)
        first.replay_ops(trace)
        baseline = _observe(first)
        global_registry().reset()
        second = BatchedMemorySystem(config)
        second.replay_ops(trace)
        assert _observe(second) == baseline


class _CountJobs(SerialScheduler):
    """Serial scheduler that also counts each frame's raster jobs."""

    def __init__(self):
        super().__init__()
        self.jobs = []

    def map(self, fn, items):
        self.jobs.append(len(items))
        return super().map(fn, items)


class TestPipelineTraffic:
    _PER_OP = ("fetch_vertex", "fetch_vertex_range", "parameter_buffer_write",
               "parameter_buffer_read", "texture_batch", "framebuffer_flush")

    @classmethod
    def _one_trace_per_phase(cls, monkeypatch, technique, backend):
        """With several raster jobs a frame, each frame hands the memory
        system one geometry trace, then at most one raster trace (none
        when every tile was skipped), and nothing else: every per-op
        method of the scalar model fails outside ``replay_ops``.  The
        frames render as they do without the checks."""
        config = GPUConfig.tiny(frames=2)
        monkeypatch.setattr(raster, "RANGE_ENTRIES", 64)

        def render(scheduler=None):
            result = GPU(config, technique, backend=backend,
                         scheduler=scheduler).render_stream(
                benchmark_stream("tib", config))
            return [(frame.image.tobytes(), frame.stats, frame.geometry,
                     frame.raster) for frame in result.frames]

        expected = render()
        handed = []
        replaying = []

        def recording(replay_ops):
            def recorded(self, trace):
                handed.append(type(trace))
                replaying.append(trace)
                try:
                    return replay_ops(self, trace)
                finally:
                    replaying.pop()
            return recorded

        def frame_end(end_frame):
            def ended(self):
                handed.append("end_frame")
                return end_frame(self)
            return ended

        def inside_replay(method):
            def guarded(self, *args, **kwargs):
                assert replaying, "per-op memory traffic from the pipeline"
                return method(self, *args, **kwargs)
            return guarded

        for system in (MemorySystem, BatchedMemorySystem):
            monkeypatch.setattr(system, "replay_ops",
                                recording(system.replay_ops))
            monkeypatch.setattr(system, "end_frame",
                                frame_end(system.end_frame))
        for name in cls._PER_OP:
            monkeypatch.setattr(MemorySystem, name,
                                inside_replay(getattr(MemorySystem, name)))
        count = _CountJobs()
        assert render(count) == expected
        assert min(count.jobs) > 1
        frames, kinds = [], []
        for kind in handed:
            if kind == "end_frame":
                frames.append(kinds)
                kinds = []
            else:
                kinds.append(kind)
        assert not kinds and len(frames) == config.frames
        for kinds in frames:
            assert kinds in ([GeometryTrace, RasterTrace], [GeometryTrace])

    @pytest.mark.parametrize("technique", technique_names())
    def test_numpy_frames_hand_over_only_traces(self, monkeypatch,
                                                technique):
        self._one_trace_per_phase(monkeypatch, technique, "numpy")

    @pytest.mark.parametrize("technique", technique_names())
    def test_python_frames_hand_over_only_traces(self, monkeypatch,
                                                 technique):
        self._one_trace_per_phase(monkeypatch, technique, "python")
