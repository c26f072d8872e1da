"""Tests for the wired memory hierarchy."""

import numpy as np
import pytest

from repro import GPUConfig, MemoryModelError
from repro.memsys import BatchedMemorySystem, MemorySystem


@pytest.fixture(params=[MemorySystem, BatchedMemorySystem],
                ids=["scalar", "batched"])
def memory(request):
    return request.param(GPUConfig.default())


class TestVertexPath:
    def test_fetch_counts_and_forwards(self, memory):
        memory.fetch_vertex(0)
        assert memory.vertex_cache.accesses == 1
        assert memory.vertex_cache.misses >= 1
        assert memory.l2.accesses >= 1
        assert memory.dram.stats.read_bytes > 0

    def test_repeat_fetch_hits(self, memory):
        memory.fetch_vertex(0)
        misses_before = memory.vertex_cache.misses
        memory.fetch_vertex(0)
        assert memory.vertex_cache.misses == misses_before


class TestParameterBufferPath:
    def test_write_then_read(self, memory):
        memory.parameter_buffer_write(0, 144)
        memory.parameter_buffer_read(0, 144)
        assert memory.tile_cache.accesses == 2
        assert memory.tile_cache.hits >= 1  # read hits the written lines


class TestTexturePath:
    def test_empty_batch_is_noop(self, memory):
        memory.texture_batch(0, 256, np.array([]), np.array([]))
        assert memory.texture_caches[0].accesses == 0

    def test_batch_locality_collapses_to_unique_lines(self, memory):
        u = np.full(100, 0.5)
        v = np.full(100, 0.5)
        memory.texture_batch(0, 256, u, v, bilinear=False)
        cache = memory.texture_caches[0]
        # 100 fragments, one unique texel -> 1 miss, 99 extra hits.
        assert cache.misses == 1
        assert cache.hits == 99

    def test_bilinear_widens_footprint(self, memory):
        u = np.full(100, 0.5)
        v = np.full(100, 0.5)
        memory.texture_batch(0, 256, u, v, bilinear=True)
        cache = memory.texture_caches[0]
        # Filtering widens the *touched line set* (the base texel's line
        # plus the 2x2 footprint neighbor's line) but a bilinear sample
        # is still one access: repeat counts come from the 100 base
        # texels alone.  100 identical fragments -> 2 first-touch lines,
        # 99 repeat hits on the base line, nothing double-counted.
        assert cache.misses == 2
        assert cache.hits == 99
        assert cache.accesses == 101

    def test_bilinear_does_not_inflate_repeat_counts(self, memory):
        """The footprint concatenation must not feed the per-line repeat
        counts: with filtering on, a batch's hits can exceed the
        non-bilinear count only by the extra first-touch lines' hits,
        never by a doubling of the base counts."""
        u = np.full(64, 0.25)
        v = np.full(64, 0.25)
        memory.texture_batch(0, 256, u, v, samples_per_fragment=4,
                             bilinear=False)
        plain = memory.texture_caches[0].snapshot()
        memory.texture_caches[0].reset_stats()
        memory.texture_batch(1, 256, u, v, samples_per_fragment=4,
                             bilinear=True)
        filtered = memory.texture_caches[1].snapshot()
        # 64 fragments x 4 samples on one texel: 255 repeat hits either
        # way; bilinear adds exactly one extra first-touch line.
        assert plain["hits"] == 255
        assert filtered["hits"] == 255
        assert filtered["misses"] == plain["misses"] + 1

    def test_texture_id_selects_cache(self, memory):
        u = np.array([0.1])
        v = np.array([0.1])
        memory.texture_batch(2, 256, u, v)
        assert memory.texture_caches[2].accesses >= 1
        assert memory.texture_caches[0].accesses == 0

    def test_spread_coordinates_touch_many_lines(self, memory):
        rng = np.random.default_rng(0)
        u = rng.random(256)
        v = rng.random(256)
        memory.texture_batch(1, 1024, u, v)
        assert memory.texture_caches[1].misses > 5

    def test_mip_selection_tames_sparse_batches(self, memory):
        """A batch whose fragments span the whole texture reads a
        coarse mip level, touching far fewer lines than base-level
        point sampling would."""
        rng = np.random.default_rng(1)
        u = rng.random(64)
        v = rng.random(64)
        memory.texture_batch(1, 1024, u, v)
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
        memory.framebuffer_flush(1024)
        assert memory.dram.stats.write_bytes == 1024

    def test_invalid_sizes(self, memory):
        with pytest.raises(MemoryModelError):
            memory.framebuffer_flush(0)
        with pytest.raises(MemoryModelError):
            memory.framebuffer_flush(-1)


class TestSnapshotAndReset:
    def test_snapshot_has_all_units(self, memory):
        snap = memory.snapshot()
        assert {"vertex", "tile", "l2", "dram"} <= set(snap)
        assert {"texture0", "texture1", "texture2", "texture3"} <= set(snap)

    def test_reset_clears_counters_not_contents(self, memory):
        memory.fetch_vertex(0)
        memory.reset_stats()
        assert memory.vertex_cache.accesses == 0
        assert memory.dram.stats.total_bytes == 0
        # Cache contents survive: same vertex now hits.
        memory.fetch_vertex(0)
        assert memory.vertex_cache.misses == 0
