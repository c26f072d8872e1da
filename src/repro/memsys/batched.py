"""Batched memory-system model: bit-identical to the scalar reference.

This is the ``numpy`` backend of the memory-system seam.  The scalar
:class:`~repro.memsys.MemorySystem` walks every cache line through an
``OrderedDict`` per access; this implementation consumes whole *phases*
of recorded traffic as structure-of-arrays and replays them through an
array-based exact-LRU model:

* **Deferred drain** — traffic arrives only through ``replay_ops``, one
  trace per phase: a :class:`~repro.memsys.ops.GeometryTrace`'s or a
  :class:`~repro.memsys.ops.RasterTrace`'s columns join the pending
  batch as arrays, numbered in op order.  The batch is drained —
  validated, expanded, grouped and simulated — the first time counters
  are observed (``snapshot`` / ``instrumentation`` / a counter
  property) and before ``end_frame`` and ``reset_stats``, which then
  act at once.  The pipeline reads counters only at phase boundaries,
  so a whole phase's traffic is one batch.

* **SoA expansion** — the batch's requests become flat arrays
  (address, size, write, stream base) in exact scalar call order, and
  requests expand into per-line accesses with closed-form arithmetic;
  no op is scanned one at a time.  A texture batch's fragments
  collapse into runs of equal lines before its unique lines are sorted
  out.

* **Exact LRU without per-line walks** — per set, LRU has the stack
  property: the resident lines are exactly the ``ways`` most recently
  used distinct lines.  An immediate re-reference to the set's MRU line
  is an unconditional hit, so such runs are collapsed out of the stream
  up front and counted as hits wholesale.  A collapsed stream never
  repeats its previous line, so a set of at most two ways (the vertex
  and texture caches) holds exactly its last ``ways`` accesses: access
  ``k`` hits iff it repeats access ``k - ways``, a miss evicts that
  access's line, and its dirty bit is the OR of the writes along the
  stride-``ways`` chain that kept it resident.  Those sets settle in
  closed form, a fixed number of array passes per batch.  Wider sets
  (the tile cache and L2) are stepped *rank by rank*: iteration ``r``
  applies the ``r``-th surviving access of every such set at once as a
  vectorized update of their state rows — the Python loop runs over
  within-set ranks (tens per phase), not over millions of lines.  The
  stepped sets are laid out once per call, most accesses first, so the
  sets active at rank ``r`` are a prefix: their rows copied into one
  contiguous matrix and their accesses gathered rank-major, so a rank
  reads and writes contiguous slices and picks only the hit or victim
  way per row; state, hits and writebacks go back once after the loop.
  Below 24 active sets the stragglers finish in a scalar loop.  All
  first-level caches share one lane space; each set's associativity
  picks its path.

* **Closed-form L2 refill stream** — the scalar model forwards each
  first-level miss/writeback to L2 at a round-robin cursor address.
  The cursor sequence is arithmetic, so a batch of per-request
  miss/writeback counts expands to the exact L2 address stream in one
  shot; the same lane simulation then runs once for L2, and the DRAM
  model receives the summed line traffic (its counters are additive,
  so totals are order-independent).  No access of that stream ever
  hits: a stream's cursor line recurs only after 16,384 of its forwards
  (its 1 MiB window in 64-byte lines), by when its set of the 256 KiB
  8-way L2 (one of 512) has taken 31 other lines of the same stream,
  so every first-level miss is a DRAM read and perfbench's
  ``memsys.l2_hit_rate`` reads 0.0.  ROADMAP.md item 3 forwards each
  line's own address instead.

Counters, snapshots, DRAM cycle estimates and ``end_frame`` flush
behaviour match the scalar model bit for bit; the cross-backend fuzz
suite (``tests/test_memsys_batched.py``) enforces it on random traces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import CacheConfig, GPUConfig
from ..errors import MemoryModelError
from ..obs.metrics import global_registry
from .dram import DRAMChannelModel
from .hierarchy import (
    _PARAMETER_BASE,
    _TEXEL_BYTES,
    _TEXTURE_BASE,
    _VERTEX_BASE,
)
from .ops import GeometryTrace, RasterTrace

#: First-level cache slots (index into the unified lane space).
_VERTEX, _TILE, _TEX0 = 0, 1, 2
_NUM_L1 = 6  # vertex, tile, texture0..3

# Simple-request kinds in the flat scan buffer.
_K_VRANGE, _K_PBR, _K_PBW = 0, 1, 2

_L2_WINDOW = 1 << 20

#: Rank stepping stays vectorized while this many lanes are active;
#: below it, straggler lanes finish in the exact scalar tail loop.
_TAIL_LANES = 24

#: A way's state ``tag << 1 | dirty`` ANDed with this is 1 exactly when
#: it holds a dirty line (an empty way, -1, has the sign bit set).
_RESIDENT_DIRTY = np.int64(-(1 << 63) | 1)


class _LaneLRU:
    """Exact LRU state for a group of cache sets ("lanes").

    ``tags``/``dirty`` are ``(lanes, max_ways)`` matrices whose columns
    are recency-ordered (column 0 = MRU); ``ways[lane]`` bounds the live
    columns for lanes belonging to caches with lower associativity.
    """

    def __init__(self, ways_per_lane: np.ndarray):
        self.ways = ways_per_lane.astype(np.int64)
        self.num_lanes = int(ways_per_lane.size)
        self.max_ways = int(ways_per_lane.max()) if ways_per_lane.size else 1
        # Sets of at most two ways settle in closed form; wider sets are
        # stepped rank by rank.
        self._narrow = self.ways <= 2
        # One matrix carries both tag and dirty bit per way
        # (``tag << 1 | dirty``, -1 = empty): the rank loop then costs a
        # single gather/scatter per iteration instead of two.
        self.state = np.full((self.num_lanes, self.max_ways), -1, np.int64)

    @property
    def tags(self) -> np.ndarray:
        # -1 >> 1 == -1 under arithmetic shift, so empties stay -1.
        return self.state >> 1

    @property
    def dirty(self) -> np.ndarray:
        return (self.state >= 0) & ((self.state & 1) == 1)

    def flush_lanes(self, start: int, stop: int) -> int:
        """Invalidate lanes [start, stop); return dirty lines evicted."""
        block = self.state[start:stop]
        dirty = int(((block >= 0) & ((block & 1) == 1)).sum())
        block[:] = -1
        return dirty

    def simulate(self, lane_idx: np.ndarray, tags: np.ndarray,
                 writes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Run a stream of line accesses (in order) through exact LRU.

        Returns ``(hit, writeback)`` bool arrays aligned with the input
        stream; the lane state is updated in place.
        """
        n = lane_idx.size
        hit_out = np.zeros(n, bool)
        wb_out = np.zeros(n, bool)
        if n == 0:
            return hit_out, wb_out

        # numpy's stable sort is a radix sort on 16-bit keys (a timsort
        # on int64), and every lane space here fits in 16 bits.
        key = (lane_idx.astype(np.uint16) if self.num_lanes <= 1 << 16
               else lane_idx)
        order = np.argsort(key, kind="stable")
        s_lane = lane_idx[order]
        s_tag = tags[order]
        s_wr = writes[order]

        # Collapse within-lane runs of the same tag: a re-reference to
        # the lane's MRU line is a guaranteed hit (reuse distance 0) and
        # leaves the recency order unchanged; only the OR of the run's
        # write flags matters for the dirty bit.
        dup = np.zeros(n, bool)
        if n > 1:
            dup[1:] = (s_lane[1:] == s_lane[:-1]) & (s_tag[1:] == s_tag[:-1])
        hit_out[order[dup]] = True
        starts = np.flatnonzero(~dup)
        c_lane = s_lane[starts]
        c_tag = s_tag[starts]
        c_wr = np.maximum.reduceat(s_wr, starts)
        c_pos = order[starts]

        # The collapsed stream is lane-major; a lane's associativity
        # picks its path.
        narrow = self._narrow[c_lane]
        wide = ~narrow
        settled = stepped = tail_lanes = 0
        if narrow.any():
            settled = self._settle(c_lane[narrow], c_tag[narrow],
                                   c_wr[narrow], c_pos[narrow],
                                   hit_out, wb_out)
        if wide.any():
            stepped, tail_lanes = self._step(c_lane[wide], c_tag[wide],
                                             c_wr[wide], c_pos[wide],
                                             hit_out, wb_out)

        # Batching telemetry (observability-only): how much of the
        # stream the run-collapse absorbed, how many sets settled in
        # closed form and how many fell to the scalar tail — the
        # dashboard's memsys panel reads these.
        registry = global_registry()
        registry.counter("memsys.line_accesses").inc(n)
        registry.counter("memsys.collapsed_runs").inc(int(dup.sum()))
        registry.counter("memsys.batch_lanes").inc(settled + stepped)
        registry.counter("memsys.closed_form_lanes").inc(settled)
        registry.counter("memsys.scalar_tail_lanes").inc(tail_lanes)
        return hit_out, wb_out

    def _settle(self, c_lane, c_tag, c_wr, c_pos, hit_out, wb_out) -> int:
        """Closed-form LRU for lanes of at most two ways; returns the
        number of lanes settled.

        With runs collapsed, a set's stream never repeats its previous
        line, so a ``w``-way set (``w <= 2``) holds exactly its last
        ``w`` accesses.  The lines it carries in enter the stream first
        as pseudo-accesses, LRU first.  Access ``k`` then hits iff it
        repeats access ``k - w``, and a miss evicts the line of access
        ``k - w``.  A line stays resident along a chain of accesses at
        stride ``w`` from its miss: the chain's writes (the carried
        dirty bit included) make the line dirty, and the access that
        evicts it is charged the writeback.  The set ends holding its
        last ``w`` entries.
        """
        m = c_lane.size
        first = np.flatnonzero(np.concatenate(
            ([True], c_lane[1:] != c_lane[:-1])))
        lanes = c_lane[first]
        count = np.diff(np.append(first, m))
        ways = self.ways[lanes]
        mru = self.state[lanes, 0]
        lru = (self.state[lanes, 1] if self.max_ways > 1
               else np.full(lanes.size, -1, np.int64))
        # A batch opening on the carried MRU line extends that line's
        # run: the access hits and stands in for the carried line,
        # taking over its dirty bit.
        join = (mru >> 1) == c_tag[first]

        # The extended stream, lane-major: per lane the lines it carries
        # (``head`` of them, LRU first), then its accesses.
        has_lru = lru != -1
        has_mru = (mru != -1) & ~join
        head = has_lru.astype(np.int64) + has_mru
        ext = head + count
        ext_start = _exclusive_cumsum(ext)
        lane_start = ext_start[:-1]
        total = int(ext_start[-1])
        e_tag = np.empty(total, np.int64)
        e_wr = np.empty(total, bool)
        at = np.arange(m) + np.repeat(lane_start + head - first, count)
        e_tag[at] = c_tag
        e_wr[at] = c_wr
        for line, where in ((lru[has_lru], lane_start[has_lru]),
                            (mru[has_mru], (lane_start + has_lru)[has_mru])):
            e_tag[where] = line >> 1
            e_wr[where] = (line & 1) == 1
        e_wr[at[first[join]]] |= (mru[join] & 1) == 1

        # Access k hits iff it repeats access k - w of its lane; a 1-way
        # set never hits, since the stream never repeats its last line.
        rank = np.arange(total) - np.repeat(lane_start, ext)
        e_ways = np.repeat(ways, ext)
        full = rank >= e_ways
        hit = np.zeros(total, bool)
        hit[2:] = e_tag[2:] == e_tag[:-2]
        hit &= full & (e_ways == 2)
        # Each entry's residency chain decides its line's dirty bit.
        # Only a write or a dirty carried line makes a chain dirty, so a
        # batch with neither (all of the pipeline's vertex and texture
        # traffic) skips the chains.
        dirty = np.zeros(total, bool)
        wb = dirty
        if e_wr.any():
            # Laying each lane out by ``rank % w`` makes every
            # stride-``w`` chain contiguous; each non-hit opens one.
            lane_of = np.repeat(np.arange(lanes.size), ext)
            slot = (lane_start[lane_of] + (rank % e_ways)
                    * ((ext[lane_of] + e_ways - 1) // e_ways)
                    + rank // e_ways)
            laid = np.empty(total, np.int64)
            laid[slot] = np.arange(total)
            opens = ~hit[laid]
            chain = (np.cumsum(opens) - 1)[slot]
            chain_dirty = np.zeros(int(np.count_nonzero(opens)), bool)
            chain_dirty[chain[e_wr]] = True
            dirty = chain_dirty[chain]
            back = np.maximum(np.arange(total) - e_ways, 0)
            wb = full & ~hit & dirty[back]
        hit_out[c_pos] = hit[at]
        hit_out[c_pos[first[join]]] = True
        wb_out[c_pos] = wb[at]

        # Final state: each lane's last ``w`` entries, MRU first.
        last = ext_start[1:] - 1
        self.state[lanes, 0] = (e_tag[last] << 1) | dirty[last]
        if self.max_ways > 1:
            pair = ways == 2
            prev = last[pair] - 1
            self.state[lanes[pair], 1] = np.where(
                ext[pair] >= 2, (e_tag[prev] << 1) | dirty[prev], -1)
        return int(lanes.size)

    def _step(self, c_lane, c_tag, c_wr, c_pos, hit_out, wb_out
              ) -> Tuple[int, int]:
        """Exact LRU by rank stepping, for lanes of any associativity;
        returns the number of lanes stepped and of scalar stragglers.

        Iteration ``r`` applies the ``r``-th access of every lane at
        once as a vectorized update of the ``(lanes, ways)`` state
        matrix, so the Python loop runs over within-lane ranks, not
        over lines.  The stepped lanes are laid out once per call:
        sorted by how many accesses they carry, so rank ``r``'s active
        lanes are a prefix; their state rows copied into one contiguous
        matrix; their accesses gathered rank-major, so rank ``r``'s are
        one contiguous slice.  A rank then works on slices and on one
        per-row pick of the hit or victim way; state, hits and
        writebacks go back once after the loop.
        """
        counts = np.bincount(c_lane, minlength=self.num_lanes)
        lane_start = _exclusive_cumsum(counts)[:-1]
        # The collapsed stream is lane-major (stable sort), so lane L's
        # accesses occupy [lane_start[L], lane_start[L] + counts[L]).
        lane_order = np.argsort(-counts, kind="stable")
        sorted_counts = counts[lane_order]
        max_count = int(sorted_counts[0])
        # Rank stepping amortizes beautifully while many lanes are
        # active, but a skewed batch leaves a long tail of ranks with a
        # handful of straggler lanes — there the fixed cost of the array
        # ops per rank dwarfs the work.  Vectorize while at least
        # _TAIL_LANES lanes participate; hand the stragglers' remaining
        # accesses to an exact per-lane scalar loop.
        if counts.size > _TAIL_LANES:
            vec_ranks = int(sorted_counts[_TAIL_LANES - 1])
        else:
            vec_ranks = max_count
        stepped = int(np.count_nonzero(counts))
        ranks = min(vec_ranks, max_count)
        if ranks:
            lanes = lane_order[:stepped]
            # Rank-major gather: rank r's accesses are the r-th of every
            # lane with more than r, and those lanes are a prefix.
            rank = np.arange(ranks)[:, None]
            live = rank < sorted_counts[:stepped]
            take = (lane_start[lanes] + rank)[live]
            bounds = _exclusive_cumsum(
                np.count_nonzero(live, axis=1)).tolist()
            tag = c_tag[take]
            insert = (tag << 1) | c_wr[take]       # the MRU entry on a miss
            state = self.state[lanes]
            flat = state.reshape(-1)
            row_base = np.arange(stepped) * self.max_ways
            last_way = self.ways[lanes] - 1
            col1 = np.arange(1, self.max_ways)
            hit = np.empty(tag.size, bool)
            wb = np.empty(tag.size, bool)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                num = hi - lo
                rows = state[:num]
                match = (rows >> 1) == tag[lo:hi, None]
                # A set never holds a tag twice: the first match is the
                # hit, and a row without one picks its last way.
                way = match.argmax(axis=1)
                base = row_base[:num]
                hit_r = match.reshape(-1).take(base + way)
                way = np.where(hit_r, way, last_way[:num])
                # One pick serves both cases: the hit way's state (for
                # its dirty bit) or, on a miss, the victim way's state.
                chosen = flat.take(base + way)
                victim_dirty = (chosen & _RESIDENT_DIRTY) == 1
                hit[lo:hi] = hit_r
                wb[lo:hi] = victim_dirty & ~hit_r
                # Insert at MRU (column 0), shifting columns 1..way
                # right; a hit keeps its dirty bit.
                first = insert[lo:hi] | (chosen & hit_r)
                np.copyto(rows[:, 1:], rows[:, :-1],
                          where=col1 <= way[:, None])
                rows[:, 0] = first
            self.state[lanes] = state
            position = c_pos[take]
            hit_out[position] = hit
            wb_out[position] = wb

        tail_lanes = 0
        if vec_ranks < max_count:
            stragglers = np.flatnonzero(counts > vec_ranks)
            tail_lanes = int(stragglers.size)
            for lane in stragglers:
                self._simulate_tail(int(lane), c_tag, c_wr, c_pos,
                                    int(lane_start[lane]) + vec_ranks,
                                    int(lane_start[lane] + counts[lane]),
                                    hit_out, wb_out)
        return stepped, tail_lanes

    def _simulate_tail(self, lane: int, c_tag, c_wr, c_pos,
                       lo: int, hi: int, hit_out, wb_out) -> None:
        """Scalar LRU for one straggler lane's remaining accesses.

        Operates on Python lists (MRU first, no padding) extracted from
        the lane's matrix row — the same state machine the vectorized
        rank step implements, just one access at a time.
        """
        ways = int(self.ways[lane])
        row = [s for s in self.state[lane].tolist() if s != -1]
        row_t = [s >> 1 for s in row]
        row_d = [bool(s & 1) for s in row]
        tags = c_tag[lo:hi].tolist()
        writes = c_wr[lo:hi].tolist()
        positions = c_pos[lo:hi].tolist()
        for tag, write, pos in zip(tags, writes, positions):
            try:
                way = row_t.index(tag)
            except ValueError:
                if len(row_t) >= ways:
                    row_t.pop()
                    if row_d.pop():
                        wb_out[pos] = True
                row_t.insert(0, tag)
                row_d.insert(0, bool(write))
            else:
                hit_out[pos] = True
                row_t.insert(0, row_t.pop(way))
                row_d.insert(0, row_d.pop(way) or bool(write))
        packed = [(t << 1) | d for t, d in zip(row_t, row_d)]
        self.state[lane] = packed + [-1] * (self.max_ways - len(packed))


class BatchedCache:
    """Counter façade over a slice of the batched lane state.

    Mirrors the scalar :class:`~repro.memsys.Cache` surface (counters,
    ``snapshot``, ``flush``, ``reset_stats``, ``hit_rate``); reading any
    counter first drains the owning memory system so deferred traffic
    is never observable.
    """

    def __init__(self, config: CacheConfig, owner: "BatchedMemorySystem",
                 lru: _LaneLRU, lane_offset: int):
        self.config = config
        self._owner = owner
        self._lru = lru
        self._lane_offset = lane_offset
        self._num_sets = config.num_sets
        self._line_bytes = config.line_bytes
        self._accesses = 0
        self._line_accesses = 0
        self._hits = 0
        self._misses = 0
        self._writebacks = 0

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def accesses(self) -> int:
        self._owner._drain()
        return self._accesses

    @property
    def line_accesses(self) -> int:
        self._owner._drain()
        return self._line_accesses

    @property
    def hits(self) -> int:
        self._owner._drain()
        return self._hits

    @property
    def misses(self) -> int:
        self._owner._drain()
        return self._misses

    @property
    def writebacks(self) -> int:
        self._owner._drain()
        return self._writebacks

    @property
    def hit_rate(self) -> float:
        total = self.hits + self._misses
        return self._hits / total if total else 0.0

    def flush(self) -> int:
        """Write back and invalidate everything; returns dirty lines."""
        self._owner._drain()
        dirty = self._lru.flush_lanes(self._lane_offset,
                                      self._lane_offset + self._num_sets)
        self._writebacks += dirty
        return dirty

    def reset_stats(self) -> None:
        self._owner._drain()
        self._zero()

    def _zero(self) -> None:
        self._accesses = 0
        self._line_accesses = 0
        self._hits = 0
        self._misses = 0
        self._writebacks = 0

    def snapshot(self) -> Dict[str, int]:
        self._owner._drain()
        return {
            "accesses": self._accesses,
            "hits": self._hits,
            "misses": self._misses,
            "writebacks": self._writebacks,
        }


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    out = np.empty(counts.size + 1, np.int64)
    out[0] = 0
    np.cumsum(counts, out=out[1:])
    return out


def _runs(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each run of equal neighbours in ``values`` as (value, length)."""
    if values.size == 0:
        return values, np.empty(0, np.int64)
    heads = np.flatnonzero(np.concatenate(([True],
                                           values[1:] != values[:-1])))
    return values[heads], np.diff(np.append(heads, values.size))


def _segment_expand(reps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Expand per-row repeat counts into (row_of_item, rank_in_row)."""
    offsets = _exclusive_cumsum(reps)
    total = int(offsets[-1])
    row = np.repeat(np.arange(reps.size), reps)
    rank = np.arange(total) - offsets[row]
    return row, rank


class _Batch:
    """The traces queued since the last drain, their ops numbered in op
    order: the Parameter Buffer and vertex-range rows and the texture
    bursts as column chunks, and the tile flushes the raster traces
    carry."""

    def __init__(self) -> None:
        self.ops = 0   # ops queued; a trace counts the ops it stands for
        self._next = 0  # the next op number
        self._rows: List[np.ndarray] = []
        self._texture_chunks: List[Tuple[np.ndarray, ...]] = []
        self.flushes: List[Tuple[int, int]] = []  # (bytes, tiles)

    def raster(self, trace: RasterTrace) -> None:
        """Add ``trace``'s ops: entry ``e``'s pointer read, record read
        and texture burst take numbers ``3e``, ``3e + 1`` and ``3e + 2``
        after the ops already queued."""
        base = self._next
        n = trace.pointer.size
        rows = np.empty((2 * n, 5), np.int64)
        rows[:, 0] = base + np.arange(2 * n) // 2 * 3 + np.arange(2 * n) % 2
        rows[:, 1] = _K_PBR
        rows[0::2, 2] = trace.pointer
        rows[1::2, 2] = trace.offset
        rows[0::2, 3] = trace.pointer_bytes
        rows[1::2, 3] = trace.record_bytes
        rows[:, 4] = 0
        self._rows.append(rows)
        bursts = trace.bursts
        columns = (base + 3 * bursts.entry + 2, bursts.texture_id,
                   bursts.texture_size, bursts.samples, bursts.count)
        u, v = bursts.u, bursts.v
        # A burst without fragments or samples touches nothing, as the
        # scalar ``texture_batch`` returns early for it.
        live = (bursts.count > 0) & (bursts.samples > 0)
        if not live.all():
            sampled = np.repeat(live, bursts.count)
            columns = tuple(column[live] for column in columns)
            u, v = u[sampled], v[sampled]
        if columns[0].size:
            self._texture_chunks.append(columns + (u, v))
        if trace.bounds.size > 1:
            self.flushes.append((trace.flush_bytes, trace.bounds.size - 1))
        self._next += 3 * n
        self.ops += trace.ops

    def geometry(self, trace: GeometryTrace) -> None:
        """Add ``trace``'s rows as the next ops."""
        n = trace.start.size
        rows = np.zeros((n, 5), np.int64)
        rows[:, 0] = self._next + np.arange(n)
        rows[:, 1] = _K_PBW
        rows[trace.vertex_at, 1] = _K_VRANGE
        rows[:, 2] = trace.start
        rows[:, 3] = trace.count
        rows[trace.vertex_at, 4] = trace.vertex_bytes
        self._rows.append(rows)
        self._next += n
        self.ops += trace.ops

    def simple_rows(self) -> Optional[np.ndarray]:
        """Every Parameter Buffer and vertex-range request as
        ``(op_idx, kind, f0, f1, f2)`` rows."""
        return _joined(self._rows) if self._rows else None

    def texture_columns(self) -> Optional[Tuple[np.ndarray, ...]]:
        """Every texture burst as the columns of
        :meth:`BatchedMemorySystem._expand_textures`."""
        if not self._texture_chunks:
            return None
        return tuple(map(_joined, zip(*self._texture_chunks)))


def _joined(arrays) -> np.ndarray:
    """``arrays`` end to end (the array itself when there is one)."""
    return np.concatenate(arrays) if len(arrays) > 1 else arrays[0]


class BatchedMemorySystem:
    """Drop-in :class:`~repro.memsys.MemorySystem` with deferred,
    vectorized trace consumption.  Public surface and observable
    behaviour are bit-identical; only the execution strategy differs,
    which is why backend selection is execution policy
    (``scheduler.backend``) and not part of the spec hash."""

    def __init__(self, config: GPUConfig):
        self.config = config
        l1_configs = [config.cache("vertex"), config.cache("tile")] + [
            config.cache(f"texture{i}") for i in range(4)
        ]
        ways = np.concatenate([
            np.full(c.num_sets, c.associativity, np.int64)
            for c in l1_configs
        ])
        self._l1 = _LaneLRU(ways)
        offsets = np.concatenate(
            ([0], np.cumsum([c.num_sets for c in l1_configs])[:-1])
        ).astype(np.int64)
        self._lane_offset = offsets          # by cache slot
        self._num_sets = np.array([c.num_sets for c in l1_configs],
                                  np.int64)
        self._line_bytes = np.array([c.line_bytes for c in l1_configs],
                                    np.int64)
        caches = [
            BatchedCache(c, self, self._l1, int(offsets[slot]))
            for slot, c in enumerate(l1_configs)
        ]
        self.vertex_cache = caches[_VERTEX]
        self.tile_cache = caches[_TILE]
        self.texture_caches = caches[_TEX0:]
        self._l1_caches = caches

        l2_config = config.cache("l2")
        self._l2_lru = _LaneLRU(
            np.full(l2_config.num_sets, l2_config.associativity, np.int64)
        )
        self.l2 = BatchedCache(l2_config, self, self._l2_lru, 0)

        self.dram = DRAMChannelModel(config)
        self._line = 64
        self._l2_cursor: Dict[int, int] = {}
        self._batch = _Batch()

    def replay_ops(self, trace) -> None:
        """Take a phase's recorded traffic: a
        :class:`~repro.memsys.ops.RasterTrace`'s or
        :class:`~repro.memsys.ops.GeometryTrace`'s columns join the
        pending batch as arrays.  They are validated when the batch
        drains: an op the scalar model rejects with a
        :class:`MemoryModelError` makes the drain raise one, before the
        batch changes any state."""
        if isinstance(trace, RasterTrace):
            self._batch.raster(trace)
        else:
            self._batch.geometry(trace)

    # -- frame lifecycle -----------------------------------------------------

    def end_frame(self) -> None:
        """Frame boundary: retire the Parameter Buffer (see
        :meth:`MemorySystem.end_frame <repro.memsys.MemorySystem.end_frame>`),
        after draining what came before."""
        self._drain()
        self.dram.write_lines(self.tile_cache.flush(), self._line)

    def reset_stats(self) -> None:
        """Zero every counter, after draining what came before; cache
        contents survive."""
        self._drain()
        for cache in self._l1_caches:
            cache._zero()
        self.l2._zero()
        self.dram.reset_stats()

    # -- draining ------------------------------------------------------------

    def drain(self) -> None:
        """Apply all deferred traffic now (phase-accounting hook)."""
        self._drain()

    def _drain(self) -> None:
        batch = self._batch
        if not batch.ops:
            return
        self._batch = _Batch()
        global_registry().histogram(
            "memsys.drain_batch_ops").observe(batch.ops)
        # The whole batch is validated before any state changes: an
        # invalid one raises and is dropped, leaving the model as it was
        # before the batch.  The tile flushes reach the additive DRAM
        # counters last.
        if any(num_bytes <= 0 for num_bytes, _ in batch.flushes):
            raise MemoryModelError("framebuffer flush of non-positive size")
        self._apply_batch(batch)
        for num_bytes, tiles in batch.flushes:
            for _ in range(tiles):
                self.dram.write(num_bytes)

    # -- the vectorized core -------------------------------------------------

    def _apply_batch(self, batch: "_Batch") -> None:
        """Expand one batch of ops and simulate it."""
        rows = batch.simple_rows()
        texture_columns = batch.texture_columns()
        if rows is None and texture_columns is None:
            return

        # -- B1: simple requests (vertex stream + Parameter Buffer) ---------
        req_parts = []
        if rows is not None:
            op_idx, kind, f0, f1, f2 = rows.T
            reps = np.where(kind == _K_VRANGE, f1, 1)
            if np.any(reps < 0):
                raise MemoryModelError("vertex range with negative count")
            row, rank = _segment_expand(reps)
            r_kind = kind[row]
            is_v = r_kind == _K_VRANGE
            addr = np.where(
                is_v,
                _VERTEX_BASE + (f0[row] + rank) * f2[row],
                _PARAMETER_BASE + f0[row],
            )
            size = np.where(is_v, f2[row], f1[row])
            if np.any(size <= 0) or np.any(addr < 0):
                raise MemoryModelError(
                    "replayed trace contains an invalid access "
                    "(non-positive size or negative address)")
            slot = np.where(is_v, _VERTEX, _TILE)
            base = np.where(is_v, _VERTEX_BASE, _PARAMETER_BASE)
            write = r_kind == _K_PBW
            req_parts.append((op_idx[row], rank, slot, base, addr, size,
                              write, np.zeros(row.size, np.int64)))

        # -- B2: texture batches --------------------------------------------
        if texture_columns is not None:
            req_parts.append(self._expand_textures(*texture_columns))

        parts = list(zip(*req_parts))
        req_op = np.concatenate(parts[0])
        req_rank = np.concatenate(parts[1])
        req_slot = np.concatenate(parts[2])
        req_base = np.concatenate(parts[3])
        req_addr = np.concatenate(parts[4])
        req_size = np.concatenate(parts[5])
        req_write = np.concatenate(parts[6])
        req_extra = np.concatenate(parts[7])

        # -- B3: global scalar call order -----------------------------------
        order = np.argsort((req_op << 32) | req_rank, kind="stable")
        req_slot = req_slot[order]
        req_base = req_base[order]
        req_addr = req_addr[order]
        req_size = req_size[order]
        req_write = req_write[order]
        req_extra = req_extra[order]
        num_req = req_addr.size

        # -- B4: per-line expansion -----------------------------------------
        lb = self._line_bytes[req_slot]
        first = req_addr // lb
        last = (req_addr + req_size - 1) // lb
        nlines = last - first + 1
        line_req, line_rank = _segment_expand(nlines)
        line_idx = first[line_req] + line_rank
        line_slot = req_slot[line_req]
        line_write = req_write[line_req]

        # -- B5: first-level LRU over the unified lane space ----------------
        sets = self._num_sets[line_slot]
        lane = self._lane_offset[line_slot] + line_idx % sets
        tag = line_idx // sets
        hit, wb = self._l1.simulate(lane, tag, line_write)

        # -- B6: counters ----------------------------------------------------
        req_per_slot = np.bincount(req_slot, minlength=_NUM_L1)
        extra_per_slot = np.bincount(req_slot, weights=req_extra,
                                     minlength=_NUM_L1).astype(np.int64)
        line_per_slot = np.bincount(line_slot, minlength=_NUM_L1)
        hit_per_slot = np.bincount(line_slot[hit], minlength=_NUM_L1)
        wb_per_slot = np.bincount(line_slot[wb], minlength=_NUM_L1)
        for slot, cache in enumerate(self._l1_caches):
            extra = int(extra_per_slot[slot])
            cache._accesses += int(req_per_slot[slot]) + extra
            cache._line_accesses += int(line_per_slot[slot]) + extra
            hits = int(hit_per_slot[slot])
            cache._hits += hits + extra
            cache._misses += int(line_per_slot[slot]) - hits
            cache._writebacks += int(wb_per_slot[slot])

        # -- B7: the L2 refill/writeback stream -----------------------------
        miss_per_req = np.bincount(line_req[~hit], minlength=num_req)
        wb_per_req = np.bincount(line_req[wb], minlength=num_req)
        l2_req, l2_rank = _segment_expand(miss_per_req + wb_per_req)
        if l2_req.size:
            l2_write = l2_rank >= miss_per_req[l2_req]
            l2_base = req_base[l2_req]
            # Per-base round-robin cursor: the k-th forward of a stream
            # in this batch sits at (cursor + k * line) mod 1 MiB.
            border = np.argsort(l2_base, kind="stable")
            sorted_base = l2_base[border]
            boundaries = np.flatnonzero(
                np.concatenate(([True], sorted_base[1:] != sorted_base[:-1]))
            )
            stream_rank = np.empty(l2_req.size, np.int64)
            group_rank = (np.arange(l2_req.size)
                          - np.repeat(boundaries, np.diff(
                              np.concatenate((boundaries,
                                              [l2_req.size])))))
            stream_rank[border] = group_rank
            cursor0 = np.zeros(l2_req.size, np.int64)
            for b in np.unique(sorted_base):
                b = int(b)
                sel = l2_base == b
                count = int(sel.sum())
                start = self._l2_cursor.get(b, 0)
                cursor0[sel] = start
                self._l2_cursor[b] = (
                    (start + count * self._line) % _L2_WINDOW
                )
            l2_addr = l2_base + (
                (cursor0 + stream_rank * self._line) % _L2_WINDOW
            )
            self._apply_l2(l2_addr, l2_write)

    def _apply_l2(self, addr: np.ndarray, write: np.ndarray) -> None:
        """Simulate the L2 access stream and charge DRAM for misses and
        writebacks (the DRAM model's counters are additive, so the
        summed line traffic is bit-identical to per-access calls)."""
        l2cfg = self.l2.config
        lb = l2cfg.line_bytes
        first = addr // lb
        last = (addr + self._line - 1) // lb
        nlines = last - first + 1
        line_req, line_rank = _segment_expand(nlines)
        line_idx = first[line_req] + line_rank
        lane = line_idx % l2cfg.num_sets
        tag = line_idx // l2cfg.num_sets
        hit, wb = self._l2_lru.simulate(lane, tag, write[line_req])
        hits = int(np.count_nonzero(hit))
        misses = int(line_idx.size - hits)
        writebacks = int(np.count_nonzero(wb))
        l2 = self.l2
        l2._accesses += int(addr.size)
        l2._line_accesses += int(line_idx.size)
        l2._hits += hits
        l2._misses += misses
        l2._writebacks += writebacks
        self.dram.read_lines(misses, self._line)
        self.dram.write_lines(writebacks, self._line)

    def _expand_textures(self, op_idx: np.ndarray, tid: np.ndarray,
                         tsize: np.ndarray, spf: np.ndarray,
                         frags: np.ndarray, u_all: np.ndarray,
                         v_all: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Vectorize texture batches across ops: mip selection, texel
        footprints and per-op unique-line reduction, reproducing the
        scalar per-op arithmetic expression for expression order.  Op
        ``i`` samples ``frags[i]`` fragments, its coordinates back to
        back in ``u_all``/``v_all``."""
        seg_start = _exclusive_cumsum(frags)[:-1]

        # Mip level, exactly as MemorySystem._select_mip_level computes
        # it per op.
        ts_f = tsize.astype(np.float64)
        span_u = (np.maximum.reduceat(u_all, seg_start)
                  - np.minimum.reduceat(u_all, seg_start)) + 1.0 / ts_f
        span_v = (np.maximum.reduceat(v_all, seg_start)
                  - np.minimum.reduceat(v_all, seg_start)) + 1.0 / ts_f
        texels = ((span_u * span_v) * ts_f) * ts_f
        frags_f = frags.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            raw_level = np.trunc(
                np.log2(texels / frags_f) / 2.0).astype(np.int64)
        max_level = np.maximum(0, np.trunc(np.log2(ts_f)).astype(np.int64) - 2)
        level = np.where(
            texels <= frags_f, 0,
            np.minimum(np.maximum(raw_level, 0), max_level),
        )
        level_size = np.maximum(4, tsize >> level)

        # Each fragment's base line and bilinear footprint line, as
        # composite (op, line) keys.  Per-op values reach the fragments
        # by ``np.repeat``, and the texel columns are updated in place.
        shift = 44  # lines < 2^44 (texel_index * 4 / 64 of any sane size)
        ls_el = np.repeat(level_size, frags)
        top = np.repeat(level_size - 1, frags)
        scale = np.repeat(level_size.astype(np.float64), frags)
        tx = (u_all * scale).astype(np.int64)
        np.clip(tx, 0, top, out=tx)
        ty = (v_all * scale).astype(np.int64)
        np.clip(ty, 0, top, out=ty)
        seg_key = np.repeat(np.arange(op_idx.size) << shift, frags)
        base_keys = seg_key | (ty * ls_el + tx) * _TEXEL_BYTES // self._line
        np.minimum(tx + 1, top, out=tx)
        np.minimum(ty + 1, top, out=ty)
        foot_keys = seg_key | (ty * ls_el + tx) * _TEXEL_BYTES // self._line

        # Per-op unique lines, ascending (scalar np.unique order): sort
        # the keys once across every batch.  Neighbouring fragments
        # mostly share a line, so runs of equal keys collapse first, in
        # fragment order; a line's base-sample count is the sum of its
        # base runs' lengths (footprint runs weigh nothing).
        base_keys, base_runs = _runs(base_keys)
        foot_keys, _ = _runs(foot_keys)
        keys = np.concatenate([base_keys, foot_keys])
        weights = np.zeros(keys.size, np.int64)
        weights[:base_keys.size] = base_runs
        by_key = np.argsort(keys)
        keys = keys[by_key]
        uniq = np.flatnonzero(
            np.concatenate(([True], keys[1:] != keys[:-1])))
        ukeys = keys[uniq]
        useg = ukeys >> shift
        uline = ukeys & ((1 << shift) - 1)
        counts = np.add.reduceat(weights[by_key], uniq)

        # Request metadata, in scalar call order: op order, then line
        # ascending within each op (= rank within the op's uniques).
        per_op = np.bincount(useg, minlength=op_idx.size)
        rank = np.arange(ukeys.size) - _exclusive_cumsum(per_op)[useg]
        tex_base = (
            _TEXTURE_BASE
            + ((tid * 2) * tsize) * tsize * _TEXEL_BYTES
            + ((level * tsize) * tsize) * _TEXEL_BYTES // 2
        )[useg]
        addr = tex_base + uline * self._line
        slot = (_TEX0 + (tid % len(self.texture_caches)))[useg]
        extra = np.maximum(counts * spf[useg] - 1, 0)
        return (
            op_idx[useg],
            rank,
            slot,
            np.full(ukeys.size, _TEXTURE_BASE, np.int64),
            addr,
            np.full(ukeys.size, self._line, np.int64),
            np.zeros(ukeys.size, bool),
            extra,
        )

    # -- bookkeeping ---------------------------------------------------------

    def instrumentation(self):
        """The phase's counters as one mergeable engine record."""
        from ..engine.instrumentation import Instrumentation

        self._drain()
        return Instrumentation(units=self.snapshot(),
                               dram_cycles=self.dram.cycles())

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        self._drain()
        snap: Dict[str, Dict[str, int]] = {
            "vertex": self.vertex_cache.snapshot(),
            "tile": self.tile_cache.snapshot(),
            "l2": self.l2.snapshot(),
            "dram": self.dram.snapshot(),
        }
        for i, cache in enumerate(self.texture_caches):
            snap[f"texture{i}"] = cache.snapshot()
        return snap
