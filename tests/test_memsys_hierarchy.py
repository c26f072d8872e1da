"""Tests for the wired memory hierarchy.

Traffic reaches either model only as a trace (``replay_ops``); the
scalar model replays it one method call per op, the batched model
drains it when a counter is observed.
"""

import numpy as np
import pytest

from repro import GPUConfig, MemoryModelError
from repro.memsys import BatchedMemorySystem, MemorySystem

from tests.memtraces import parameter_writes, raster_trace, vertex_fetches


@pytest.fixture(params=[MemorySystem, BatchedMemorySystem],
                ids=["scalar", "batched"])
def memory(request):
    return request.param(GPUConfig.default())


def _sample(memory, texture_id, texture_size, u, v, samples=1):
    """One entry's texture burst (its display-list reads go to the tile
    cache, its flush to DRAM)."""
    memory.replay_ops(raster_trace(
        [(0, 0)], burst=(texture_id, texture_size, u, v, samples)))


class TestVertexPath:
    def test_fetch_counts_and_forwards(self, memory):
        memory.replay_ops(vertex_fetches((0, 1)))
        assert memory.vertex_cache.accesses == 1
        assert memory.vertex_cache.misses >= 1
        assert memory.l2.accesses >= 1
        assert memory.dram.stats.read_bytes > 0

    def test_repeat_fetch_hits(self, memory):
        memory.replay_ops(vertex_fetches((0, 1)))
        misses_before = memory.vertex_cache.misses
        memory.replay_ops(vertex_fetches((0, 1)))
        assert memory.vertex_cache.misses == misses_before


class TestParameterBufferPath:
    def test_write_then_read(self, memory):
        """A record written in the geometry phase is read twice in the
        raster phase (as a pointer and as a record): both reads hit
        its three lines."""
        memory.replay_ops(parameter_writes((0, 144)))
        memory.replay_ops(raster_trace([(0, 0)], pointer_bytes=144,
                                       record_bytes=144))
        assert memory.tile_cache.accesses == 3
        assert memory.tile_cache.misses == 3
        assert memory.tile_cache.hits == 6


class TestTexturePath:
    def test_empty_batch_is_noop(self, memory):
        """An entry that shades no textured fragment has no burst and
        touches no texture cache."""
        memory.replay_ops(raster_trace([(0, 0)]))
        assert memory.texture_caches[0].accesses == 0

    def test_batch_locality_collapses_to_unique_lines(self, memory):
        # A 16-texel row is one 64-byte line, and the last row's 2x2
        # footprint clamps to that row: 100 fragments on texel (8, 15)
        # touch one line -> 1 miss, 99 extra hits.
        u = np.full(100, 0.5)
        v = np.full(100, 0.99)
        _sample(memory, 0, 16, u, v)
        cache = memory.texture_caches[0]
        assert cache.misses == 1
        assert cache.hits == 99

    def test_bilinear_widens_footprint(self, memory):
        u = np.full(100, 0.5)
        v = np.full(100, 0.5)
        _sample(memory, 0, 256, u, v)
        cache = memory.texture_caches[0]
        # Filtering widens the *touched line set* (the base texel
        # (128, 128)'s line 2056 plus the footprint neighbour (129,
        # 129)'s line 2072) but a bilinear sample is still one access:
        # repeat counts come from the 100 base texels alone.  100
        # identical fragments -> 2 first-touch lines, 99 repeat hits on
        # the base line, nothing double-counted.
        assert cache.misses == 2
        assert cache.hits == 99
        assert cache.accesses == 101

    def test_bilinear_does_not_inflate_repeat_counts(self, memory):
        """The footprint must not feed the per-line repeat counts: 64
        fragments x 4 samples on texel (64, 64) are 255 repeat hits on
        its line, and the footprint texel (65, 65)'s line (another row)
        is charged its first touch alone."""
        u = np.full(64, 0.25)
        v = np.full(64, 0.25)
        _sample(memory, 1, 256, u, v, samples=4)
        assert memory.texture_caches[1].snapshot() == {
            "accesses": 2 + 255, "hits": 255, "misses": 2, "writebacks": 0}

    def test_texture_id_selects_cache(self, memory):
        u = np.array([0.1])
        v = np.array([0.1])
        _sample(memory, 2, 256, u, v)
        assert memory.texture_caches[2].accesses >= 1
        assert memory.texture_caches[0].accesses == 0

    def test_spread_coordinates_touch_many_lines(self, memory):
        rng = np.random.default_rng(0)
        u = rng.random(256)
        v = rng.random(256)
        _sample(memory, 1, 1024, u, v)
        assert memory.texture_caches[1].misses > 5

    def test_mip_selection_tames_sparse_batches(self, memory):
        """A batch whose fragments span the whole texture reads a
        coarse mip level, touching far fewer lines than base-level
        point sampling would."""
        rng = np.random.default_rng(1)
        u = rng.random(64)
        v = rng.random(64)
        _sample(memory, 1, 1024, u, v)
        # Base level point sampling would touch up to 64 distinct lines;
        # the coarse level collapses them.
        assert memory.texture_caches[1].misses < 40

    # The mip level is the scalar model's per-batch helper; the batched
    # model computes it for every burst of a batch inside its drain
    # (``_expand_textures``, fuzzed against the scalar model).
    @pytest.mark.parametrize("memory", [MemorySystem], ids=["scalar"],
                             indirect=True)
    def test_mip_level_zero_for_dense_batches(self, memory):
        level = memory._select_mip_level(
            256, np.linspace(0.5, 0.52, 100), np.linspace(0.5, 0.52, 100)
        )
        assert level == 0

    @pytest.mark.parametrize("memory", [MemorySystem], ids=["scalar"],
                             indirect=True)
    def test_mip_level_grows_with_sparsity(self, memory):
        dense = memory._select_mip_level(
            1024, np.linspace(0.4, 0.41, 256), np.linspace(0.4, 0.41, 256)
        )
        sparse = memory._select_mip_level(
            1024, np.linspace(0.0, 1.0, 16), np.linspace(0.0, 1.0, 16)
        )
        assert sparse > dense


class TestFramebufferPath:
    def test_flush_is_dram_write(self, memory):
        memory.replay_ops(raster_trace(flush_bytes=1024))
        assert memory.snapshot()["dram"]["write_bytes"] == 1024

    def test_invalid_sizes(self, memory):
        """The scalar model raises as it replays the flush, the batched
        one when it drains it."""
        for num_bytes in (0, -1):
            with pytest.raises(MemoryModelError):
                memory.replay_ops(raster_trace(flush_bytes=num_bytes))
                memory.drain()


class TestSnapshotAndReset:
    def test_snapshot_has_all_units(self, memory):
        snap = memory.snapshot()
        assert {"vertex", "tile", "l2", "dram"} <= set(snap)
        assert {"texture0", "texture1", "texture2", "texture3"} <= set(snap)

    def test_reset_clears_counters_not_contents(self, memory):
        memory.replay_ops(vertex_fetches((0, 1)))
        memory.reset_stats()
        assert memory.vertex_cache.accesses == 0
        assert memory.dram.stats.total_bytes == 0
        # Cache contents survive: same vertex now hits.
        memory.replay_ops(vertex_fetches((0, 1)))
        assert memory.vertex_cache.misses == 0
