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

from tests.strategies import edge_floats
from tests.tile_jobs import raster_columns
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
            batch = module.prepare_tile(np.empty((0, 3, 3)),
                                        np.empty((0, 3, 6)), 0, 0, 16, 16,
                                        valid)
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
            state=RenderState.sprite_2d(),
        )
        module = resolve_backend("numpy")
        valid = valid_mask(0, 0, 16, 16, 64, 48)
        batch = module.prepare_tile(*raster_columns([triangle]), 0, 0, 16,
                                    16, valid)
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
    """The batched backend's eager ``prepare_tile`` interpolates all
    channels with one einsum.

    Bit-identity with the scalar ``b0*a0 + b1*a1 + b2*a2`` is only safe
    because einsum contracts k in index order with a running scalar sum
    and no FMA.  This guard fails loudly if a numpy upgrade ever breaks
    that (np.matmul, for instance, does NOT satisfy it).

    One caveat, which standard-normal draws never hit: the running sum
    starts from +0.0, so where all three products are -0.0 einsum
    returns +0.0 and the explicit sum -0.0.  The batch recomputes any
    channel with a sign-bit vertex value explicitly (see
    ``test_prepare_tile_keeps_negative_zero_sums``); depth and the
    opaque-run path never use einsum.
    """
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((entries, 3, 16, 16))
    attrs = rng.standard_normal((entries, 3, 7))
    via_einsum = np.einsum("lkhw,lkc->lchw", w, attrs)
    manual = (w[:, 0, None] * attrs[:, 0, :, None, None]
              + w[:, 1, None] * attrs[:, 1, :, None, None]
              + w[:, 2, None] * attrs[:, 2, :, None, None])
    np.testing.assert_array_equal(via_einsum, manual)


@pytest.mark.parametrize("red", [-0.0, -5e-324])
def test_prepare_tile_keeps_negative_zero_sums(red):
    """Every product ``b_i * a_i`` of a -0.0 or tiny negative attribute
    is -0.0: the reference sums them to -0.0, einsum alone would give
    +0.0."""
    from repro import RenderState
    from repro.geom import ScreenTriangle, VertexAttributes
    from repro.kernels.reference import ReferenceTileBatch
    from repro.math3d import Vec2, Vec4

    attributes = VertexAttributes(color=Vec4(red, 0.5, 0.5, 1.0))
    triangle = ScreenTriangle(
        xy=(Vec2(0.0, 0.0), Vec2(30.0, 0.0), Vec2(0.0, 30.0)),
        z=(0.5, 0.5, 0.5), attributes=(attributes,) * 3,
        command_id=0, primitive_id=0,
        state=RenderState.sprite_2d(),
    )
    columns = raster_columns([triangle])
    valid = valid_mask(0, 0, 16, 16, 64, 48)
    expected = ReferenceTileBatch(*columns, 0, 0, 16, 16,
                                  valid).fragments(0)
    red = expected.rgba[:, :, 0][expected.mask]
    assert np.signbit(red).any()          # the case einsum gets wrong
    actual = resolve_backend("numpy").prepare_tile(
        *columns, 0, 0, 16, 16, valid).fragments(0)
    for name in ("depth", "u", "v"):
        np.testing.assert_array_equal(
            np.signbit(getattr(actual, name)[actual.mask]),
            np.signbit(getattr(expected, name)[expected.mask]))
    assert (actual.rgba[actual.mask].tobytes()
            == expected.rgba[expected.mask].tobytes())


@pytest.mark.parametrize("technique", ["baseline", "hiz"])
def test_negative_zero_color_renders_identically(technique):
    """A sprite coloured ``Vec4(-0.0, 0.5, 0.5, 1.0)`` renders to the same
    bytes on both backends, -0.0 red included, whether the numpy backend
    resolves it as an opaque run (baseline) or in the per-entry loop
    (hiz)."""
    import hashlib

    from repro import DrawCommand, Frame, RenderState
    from repro.geom import screen_quad
    from repro.math3d import Vec4, orthographic

    config = GPUConfig(screen_width=32, screen_height=32, frames=1)
    frame = Frame(
        [DrawCommand.from_mesh(
            screen_quad(0.0, 0.0, 32.0, 32.0,
                        color=Vec4(-0.0, 0.5, 0.5, 1.0)),
            state=RenderState.sprite_2d(), label="sprite")],
        projection=orthographic(0, 32, 32, 0, -1.0, 1.0),
    )
    digests = {
        backend: hashlib.sha256(
            GPU(config, technique, backend=backend)
            .render_frame(frame).image.tobytes()).hexdigest()
        for backend in available_backends()
    }
    assert digests["python"] == digests["numpy"]


# ---------------------------------------------------------------------------
# Cross-backend bit-identity on fuzzed scenes
# ---------------------------------------------------------------------------

def _render(specs, mode, backend):
    stream = build_stream(specs)
    return GPU(FUZZ_CONFIG, mode, backend=backend).render_stream(stream)


@st.composite
def _edge_rect_specs(draw):
    """``rect_specs`` with both signed zeros, subnormals and exact ties in
    its position, depth and motion floats."""
    spec = list(draw(rect_specs()))
    spec[0] = draw(edge_floats(-10.0, FUZZ_CONFIG.screen_width - 2.0,
                               ties=(0.5, 16.0)))
    spec[1] = draw(edge_floats(-10.0, FUZZ_CONFIG.screen_height - 2.0,
                               ties=(0.5, 16.0)))
    spec[4] = draw(edge_floats(-0.9, 0.9, ties=(-0.5, 0.5)))
    spec[7] = draw(edge_floats(-4.0, 4.0))
    spec[8] = draw(edge_floats(-0.05, 0.05))
    return tuple(spec)


@given(st.lists(_edge_rect_specs(), min_size=1, max_size=6))
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
