"""The GPU's memory hierarchy wired together.

Topology (Figure 1 of the paper / Mali-450-like):

* Vertex cache        -> L2 -> DRAM    (geometry pipeline vertex fetches)
* 4x texture caches   -> L2 -> DRAM    (fragment shading samples)
* Tile cache          -> L2 -> DRAM    (Parameter Buffer and Display Lists)
* Color/Depth buffers: on-chip per-tile SRAM; only the end-of-tile color
  flush travels to DRAM.

Every public method both updates the functional counters and forwards miss
traffic down the hierarchy, so after a run the caches and the DRAM model
hold a consistent picture of the frame's memory behaviour.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from ..config import GPUConfig
from ..errors import MemoryModelError
from .cache import AccessResult, Cache
from .dram import DRAMChannelModel

# Address-space bases keep the different data streams from aliasing in L2.
_VERTEX_BASE = 0x0000_0000
_PARAMETER_BASE = 0x4000_0000
_TEXTURE_BASE = 0x8000_0000

_TEXEL_BYTES = 4


class MemorySystem:
    """All caches plus the DRAM model, with traffic forwarding."""

    def __init__(self, config: GPUConfig):
        self.config = config
        self.vertex_cache = Cache(config.cache("vertex"))
        self.texture_caches = [
            Cache(config.cache(f"texture{i}")) for i in range(4)
        ]
        self.tile_cache = Cache(config.cache("tile"))
        self.l2 = Cache(config.cache("l2"))
        self.dram = DRAMChannelModel(config)
        self._line = 64
        self._l2_cursor: Dict[int, int] = {}

    # -- internal forwarding -------------------------------------------------

    def _forward_to_l2(self, result: AccessResult, base: int) -> None:
        """Send first-level misses and writebacks down to L2, then DRAM.

        Addresses of refills are approximated by fresh line-granular
        addresses inside the stream's region (:meth:`_next_l2_address`).
        That keeps the traffic's volume but models no L2 reuse: with the
        default 256 KiB 8-way L2, no access ever hits (see
        :meth:`_next_l2_address`), so every first-level miss is a DRAM
        read.  Forwarding each line's own address instead is ROADMAP.md
        item 3.
        """
        for _ in range(result.misses):
            l2_result = self.l2.access(self._next_l2_address(base), self._line)
            self.dram.read_lines(l2_result.misses, self._line)
            self.dram.write_lines(l2_result.writebacks, self._line)
        if result.writebacks:
            for _ in range(result.writebacks):
                l2_result = self.l2.access(
                    self._next_l2_address(base), self._line, write=True
                )
                self.dram.read_lines(l2_result.misses, self._line)
                self.dram.write_lines(l2_result.writebacks, self._line)

    def _next_l2_address(self, base: int) -> int:
        # Round-robin addresses within a 1 MiB window per stream, which
        # keeps the streams apart but never repeats a line in reach of
        # the L2: a stream's cursor line recurs only after 16,384 of its
        # forwards (1 MiB / 64 B), by when its 8-way set (one of 512) has
        # taken 31 other lines of the same stream.  So the L2 never hits
        # (ROADMAP.md, item 3).
        cursor = self._l2_cursor.get(base, 0)
        self._l2_cursor[base] = (cursor + self._line) % (1 << 20)
        return base + cursor

    # -- vertex stream --------------------------------------------------------

    def fetch_vertex(self, vertex_index: int, vertex_bytes: int = 48) -> None:
        """Geometry pipeline fetches one vertex's data from memory."""
        address = _VERTEX_BASE + vertex_index * vertex_bytes
        result = self.vertex_cache.access(address, vertex_bytes)
        self._forward_to_l2(result, _VERTEX_BASE)

    def fetch_vertex_range(self, start: int, count: int,
                           vertex_bytes: int = 48) -> None:
        """Fetch ``count`` consecutive vertices starting at ``start``.

        One call per draw command replaces the per-vertex loop in the
        geometry pipeline; the reference semantics are *defined* as the
        equivalent sequence of :meth:`fetch_vertex` calls (the batched
        model expands the same closed-form address sequence in one
        shot).
        """
        if count < 0:
            raise MemoryModelError("vertex range with negative count")
        for index in range(start, start + count):
            self.fetch_vertex(index, vertex_bytes)

    # -- parameter buffer ------------------------------------------------------

    def parameter_buffer_write(self, offset: int, size: int) -> None:
        """Polygon List Builder stores primitive attributes / pointers."""
        result = self.tile_cache.access(_PARAMETER_BASE + offset, size, write=True)
        self._forward_to_l2(result, _PARAMETER_BASE)

    def parameter_buffer_read(self, offset: int, size: int) -> None:
        """Raster pipeline dereferences Display List pointers."""
        result = self.tile_cache.access(_PARAMETER_BASE + offset, size)
        self._forward_to_l2(result, _PARAMETER_BASE)

    # -- textures ---------------------------------------------------------------

    @staticmethod
    def _select_mip_level(texture_size: int, u: np.ndarray,
                          v: np.ndarray) -> int:
        """Batch-granular LOD selection.

        Real samplers pick the mip level whose texel density matches the
        screen-space derivative of the texture coordinates.  At batch
        granularity the equivalent signal is the UV area the batch spans
        per fragment: when the batch covers many texels per fragment the
        base level would thrash the cache, so a real GPU reads a coarser
        level.  ``level = log2(texels_spanned / fragments) / 2``, clamped
        so at least a 4x4 level remains.
        """
        fragments = u.size
        span_u = float(u.max() - u.min()) + 1.0 / texture_size
        span_v = float(v.max() - v.min()) + 1.0 / texture_size
        texels_spanned = span_u * span_v * texture_size * texture_size
        if texels_spanned <= fragments:
            return 0
        level = int(math.log2(texels_spanned / fragments) / 2.0)
        max_level = max(0, int(math.log2(texture_size)) - 2)
        return min(max(level, 0), max_level)

    def texture_batch(
        self,
        texture_id: int,
        texture_size: int,
        u: np.ndarray,
        v: np.ndarray,
        samples_per_fragment: int = 1,
        bilinear: bool = True,
    ) -> None:
        """Sample a (mipmapped) texture for a batch of fragments.

        ``u``/``v`` are arrays of texture coordinates in [0, 1] for every
        shaded fragment.  The batch picks a mip level from its UV density
        (see :meth:`_select_mip_level`); bilinear filtering widens each
        sample to its 2x2 texel footprint.  Fragments of one batch
        exhibit strong spatial locality, so the batch is reduced to its
        unique cache lines: each unique line is accessed once (modelling
        the first touch) and repeats are counted as hits without
        re-walking the LRU state.
        """
        if u.size == 0 or samples_per_fragment <= 0:
            return
        cache = self.texture_caches[texture_id % len(self.texture_caches)]
        level = self._select_mip_level(texture_size, u, v)
        level_size = max(4, texture_size >> level)

        texel_x = np.clip((u * level_size).astype(np.int64), 0, level_size - 1)
        texel_y = np.clip((v * level_size).astype(np.int64), 0, level_size - 1)
        base_lines = (
            (texel_y * level_size + texel_x) * _TEXEL_BYTES // self._line
        )
        touched = base_lines
        if bilinear:
            # 2x2 footprint: the filter also reads the neighbors to the
            # right and below (clamped), widening the set of lines the
            # batch *touches*.  A bilinear sample is still one cache
            # access — the footprint must not inflate the per-line
            # repeat counts below, only the unique-line set.
            foot_x = np.minimum(texel_x + 1, level_size - 1)
            foot_y = np.minimum(texel_y + 1, level_size - 1)
            foot_lines = (
                (foot_y * level_size + foot_x) * _TEXEL_BYTES // self._line
            )
            touched = np.concatenate([base_lines, foot_lines])
        line_index = np.unique(touched)
        # Repeat counts come from the fragments' *base* texels alone:
        # each fragment performs ``samples_per_fragment`` accesses, and
        # a line touched only by footprint widening is charged just its
        # first touch.
        counts = np.zeros(line_index.size, dtype=np.int64)
        np.add.at(counts, np.searchsorted(line_index, base_lines), 1)
        # Each mip level lives in its own region of the texture's
        # allocation (offset by the sum of the larger levels).
        texture_base = (
            _TEXTURE_BASE
            + texture_id * 2 * texture_size * texture_size * _TEXEL_BYTES
            + level * texture_size * texture_size * _TEXEL_BYTES // 2
        )
        for line, count in zip(line_index.tolist(), counts.tolist()):
            result = cache.access(texture_base + line * self._line, self._line)
            self._forward_to_l2(result, _TEXTURE_BASE)
            extra_hits = max(count * samples_per_fragment - 1, 0)
            cache.hits += extra_hits
            cache.accesses += extra_hits
            cache.line_accesses += extra_hits

    # -- framebuffer -------------------------------------------------------------

    def framebuffer_flush(self, num_bytes: int) -> None:
        """End-of-tile Color Buffer flush to main memory (write-only)."""
        if num_bytes <= 0:
            raise MemoryModelError("framebuffer flush of non-positive size")
        self.dram.write(num_bytes)

    def replay_ops(self, trace) -> None:
        """Take a phase's recorded traffic (a
        :class:`~repro.memsys.ops.RasterTrace` or
        :class:`~repro.memsys.ops.GeometryTrace`): the trace calls this
        model's methods once per op, in op order."""
        trace.replay(self)

    # -- frame lifecycle ---------------------------------------------------------

    def end_frame(self) -> None:
        """Frame boundary: retire the Parameter Buffer.

        The Parameter Buffer is rebuilt from scratch every frame, so its
        cached lines are dead at the frame boundary; the dirty ones must
        still be written back to DRAM (they were produced by the
        Geometry Pipeline and the buffer lives in main memory).  Without
        this flush a small scene's Parameter Buffer would live entirely
        in the 128 KB tile cache across frames — traffic a real trace
        would pay every frame.
        """
        dirty_lines = self.tile_cache.flush()
        self.dram.write_lines(dirty_lines, self._line)

    # -- bookkeeping ---------------------------------------------------------------

    def drain(self) -> None:
        """Apply any deferred traffic.  The scalar model applies every
        access eagerly, so this is a no-op; the batched model overrides
        it.  Callers that want phase timings to include the cost of
        queued traffic (the bench's reduce breakdown) call it at phase
        boundaries without caring which implementation they hold."""

    def reset_stats(self) -> None:
        self.vertex_cache.reset_stats()
        for cache in self.texture_caches:
            cache.reset_stats()
        self.tile_cache.reset_stats()
        self.l2.reset_stats()
        self.dram.reset_stats()

    def instrumentation(self):
        """The phase's counters as one mergeable engine record.

        Packages :meth:`snapshot` and the DRAM cycle estimate into an
        :class:`~repro.engine.Instrumentation`, the unit the execution
        engine reduces.  (Imported lazily: the engine sits above the
        memory system in the layer diagram.)
        """
        from ..engine.instrumentation import Instrumentation

        return Instrumentation(units=self.snapshot(),
                               dram_cycles=self.dram.cycles())

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        snap: Dict[str, Dict[str, int]] = {
            "vertex": self.vertex_cache.snapshot(),
            "tile": self.tile_cache.snapshot(),
            "l2": self.l2.snapshot(),
            "dram": self.dram.snapshot(),
        }
        for i, cache in enumerate(self.texture_caches):
            snap[f"texture{i}"] = cache.snapshot()
        return snap
