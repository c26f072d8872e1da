"""Tests for the kernel backend seam (``repro.kernels``).

The load-bearing property is *bit-identity*: the batched numpy backend
must produce byte-for-byte the same framebuffers, statistics and
simulated memory traffic as the scalar reference, because disk-cache
entries are keyed by ``spec_hash()`` — which deliberately excludes the
backend — and are therefore shared across backends.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GPU, GPUConfig
from repro.engine.diskcache import run_cache_key
from repro.harness.runner import RunMetrics, SuiteRunner
from repro.kernels import (
    DEFAULT_BACKEND,
    available_backends,
    normalize_backend,
    resolve_backend,
)
from repro.kernels.tile_geometry import (
    pixel_centers,
    tile_origin,
    valid_mask,
)
from repro.spec import RunSpec, SpecError
from repro.techniques import BASELINE, EVR, ORACLE

from tests.test_fuzz_scenes import CONFIG as FUZZ_CONFIG
from tests.test_fuzz_scenes import build_stream, rect_specs


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_available_backends(self):
        names = available_backends()
        assert "python" in names
        assert "numpy" in names
        assert DEFAULT_BACKEND in names

    @pytest.mark.parametrize("alias, canonical", [
        ("python", "python"),
        ("scalar", "python"),
        ("reference", "python"),
        ("numpy", "numpy"),
        ("batched", "numpy"),
        ("NumPy", "numpy"),
    ])
    def test_normalize_aliases(self, alias, canonical):
        assert normalize_backend(alias) == canonical

    def test_normalize_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            normalize_backend("cuda")

    def test_resolve_returns_module_with_kernel_api(self):
        for name in available_backends():
            module = resolve_backend(name)
            for attr in ("prepare_tile", "depth_test", "depth_write",
                         "color_write", "color_blend", "layer_write",
                         "overdraw_update", "taint_set", "taint_or"):
                assert hasattr(module, attr), f"{name} lacks {attr}"

    def test_spec_normalizes_backend(self):
        spec = RunSpec.from_config(GPUConfig.tiny(frames=1))
        sched = dataclasses.replace(spec.scheduler, backend="batched")
        assert sched.backend == "numpy"
        with pytest.raises(SpecError):
            dataclasses.replace(spec.scheduler, backend="fortran")


# ---------------------------------------------------------------------------
# Tile geometry helpers
# ---------------------------------------------------------------------------

class TestTileGeometry:
    def test_tile_origin(self):
        assert tile_origin(0, 0, 16, 16) == (0, 0)
        assert tile_origin(3, 2, 16, 16) == (48, 32)
        assert tile_origin(1, 1, 8, 4) == (8, 4)

    def test_valid_mask_interior_tile_is_all_true(self):
        mask = valid_mask(0, 0, 16, 16, 64, 48)
        assert mask.shape == (16, 16)
        assert mask.all()

    def test_valid_mask_clips_screen_edge(self):
        # 20-wide screen with 16-wide tiles: second tile has 4 valid cols.
        mask = valid_mask(1, 0, 16, 16, 20, 16)
        assert mask[:, :4].all()
        assert not mask[:, 4:].any()

    def test_valid_mask_is_cached_and_readonly(self):
        a = valid_mask(0, 0, 16, 16, 64, 48)
        b = valid_mask(0, 0, 16, 16, 64, 48)
        assert a is b
        with pytest.raises(ValueError):
            a[0, 0] = False

    def test_pixel_centers(self):
        px, py = pixel_centers(16, 32, 4, 2)
        np.testing.assert_array_equal(px, [16.5, 17.5, 18.5, 19.5])
        np.testing.assert_array_equal(py, [32.5, 33.5])
        assert not px.flags.writeable


# ---------------------------------------------------------------------------
# prepare_tile semantics shared by both backends
# ---------------------------------------------------------------------------

class TestPrepareTile:
    def _one_batch(self, backend):
        config = GPUConfig.tiny(frames=1)
        from repro.scenes import benchmark_stream
        gpu = GPU(config, BASELINE, backend=backend)
        result = gpu.render_stream(benchmark_stream("tib", config))
        assert result.frames  # smoke: the pipeline ran through the seam

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_pipeline_runs_through_backend(self, backend):
        self._one_batch(backend)

    def test_empty_display_list(self):
        for name in available_backends():
            module = resolve_backend(name)
            valid = valid_mask(0, 0, 16, 16, 64, 48)
            batch = module.prepare_tile([], 0, 0, 16, 16, valid)
            # No entries: nothing to ask for; the object must still exist.
            assert batch is not None

    def test_numpy_fragments_memoized(self):
        """The depth-prepass pattern asks twice; second hit is cached."""
        from repro import RenderState
        from repro.geom import ScreenTriangle, VertexAttributes
        from repro.math3d import Vec2, Vec4

        triangle = ScreenTriangle(
            xy=(Vec2(-10, -10), Vec2(50, -10), Vec2(-10, 50)),
            z=(0.5, 0.5, 0.5),
            attributes=tuple(VertexAttributes(color=Vec4(1, 1, 1, 1))
                             for _ in range(3)),
            command_id=0, primitive_id=0,
            state=RenderState.sprite_2d(), signature_bytes=b"",
        )
        entries = [type("E", (), {"primitive": triangle})()]

        module = resolve_backend("numpy")
        valid = valid_mask(0, 0, 16, 16, 64, 48)
        batch = module.prepare_tile(entries, 0, 0, 16, 16, valid)
        first = batch.fragments(0)
        assert first is not None and first.count == 256
        assert batch.fragments(0) is first  # memoized


# ---------------------------------------------------------------------------
# The einsum interpolation guard
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=40))
@settings(max_examples=50, deadline=None)
def test_einsum_matches_left_associated_sum(seed, entries):
    """The batched backend interpolates all channels with one einsum.

    Bit-identity with the scalar ``b0*a0 + b1*a1 + b2*a2`` is only safe
    because einsum contracts k in index order with a running scalar sum
    and no FMA.  This guard fails loudly if a numpy upgrade ever breaks
    that (np.matmul, for instance, does NOT satisfy it).
    """
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((entries, 3, 16, 16))
    attrs = rng.standard_normal((entries, 3, 7))
    via_einsum = np.einsum("lkhw,lkc->lchw", w, attrs)
    manual = (w[:, 0, None] * attrs[:, 0, :, None, None]
              + w[:, 1, None] * attrs[:, 1, :, None, None]
              + w[:, 2, None] * attrs[:, 2, :, None, None])
    np.testing.assert_array_equal(via_einsum, manual)


# ---------------------------------------------------------------------------
# Cross-backend bit-identity on fuzzed scenes
# ---------------------------------------------------------------------------

def _render(specs, mode, backend):
    stream = build_stream(specs)
    return GPU(FUZZ_CONFIG, mode, backend=backend).render_stream(stream)


@given(st.lists(rect_specs(), min_size=1, max_size=6))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_backends_bit_identical_on_random_scenes(specs):
    """Scalar and numpy backends agree bit-for-bit: images, stats and
    simulated memory-traffic counters (the disk cache depends on it)."""
    for mode in (BASELINE, EVR, ORACLE):
        scalar = _render(specs, mode, "python")
        batched = _render(specs, mode, "numpy")
        for index, (a, b) in enumerate(zip(scalar.frames, batched.frames)):
            np.testing.assert_array_equal(
                a.image, b.image,
                err_msg=f"{mode.name} frame {index} image diverged")
            assert a.stats == b.stats, f"{mode.name} frame {index} stats"
            assert a.geometry.units == b.geometry.units
            assert a.raster.units == b.raster.units
        assert (scalar.total_stats(warmup=0)
                == batched.total_stats(warmup=0))


# ---------------------------------------------------------------------------
# Backend never splits the run cache
# ---------------------------------------------------------------------------

class TestCrossBackendCache:
    def test_spec_hash_excludes_backend(self):
        spec = RunSpec.from_config(GPUConfig.tiny(frames=2))
        scalar = dataclasses.replace(
            spec, scheduler=dataclasses.replace(spec.scheduler,
                                                backend="python"))
        batched = dataclasses.replace(
            spec, scheduler=dataclasses.replace(spec.scheduler,
                                                backend="numpy"))
        assert scalar.spec_hash() == batched.spec_hash()
        assert (run_cache_key(scalar, "ata", "evr")
                == run_cache_key(batched, "ata", "evr"))

    def test_run_computed_on_one_backend_served_to_other(self, tmp_path):
        spec = RunSpec.from_config(GPUConfig.tiny(frames=2))
        scalar = dataclasses.replace(
            spec, scheduler=dataclasses.replace(spec.scheduler,
                                                backend="python"))
        batched = dataclasses.replace(
            spec, scheduler=dataclasses.replace(spec.scheduler,
                                                backend="numpy"))
        with SuiteRunner(cache_dir=str(tmp_path), spec=scalar) as runner:
            first = runner.run("ata", EVR)
            assert (runner.cache_hits, runner.cache_misses) == (0, 1)
        with SuiteRunner(cache_dir=str(tmp_path), spec=batched) as runner:
            second = runner.run("ata", EVR)
            assert (runner.cache_hits, runner.cache_misses) == (1, 0)
        assert isinstance(second, RunMetrics)
        assert second == first
