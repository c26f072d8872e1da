"""Tests for the alternative culling mechanisms (Z-prepass, HiZ)."""

import numpy as np
import pytest

from repro import (
    ConfigError,
    GPU,
    GPUConfig,
    PipelineFeatures,
    RunSpec,
)
from repro.harness import culling_alternatives
from repro.harness.runner import SuiteRunner
from repro.scenes import benchmark_stream

from tests.conftest import make_depth_frame
from repro import FrameStream
from repro.math3d import Vec4, orthographic
from repro.techniques import BASELINE, ORACLE


@pytest.fixture
def config():
    return GPUConfig.tiny(frames=4)


@pytest.fixture
def b2f_stream(config):
    """Back-to-front WOZ quads with animated colors (never skipped)."""
    projection = orthographic(0, config.screen_width, config.screen_height,
                              0, -1.0, 1.0)

    def build(index):
        return make_depth_frame(
            config, projection, index,
            [
                (-0.5, Vec4(1.0, 0.01 * index, 0.0, 1.0)),
                (0.5, Vec4(0.0, 1.0, 0.01 * index, 1.0)),
            ],
        )

    return FrameStream(build, config.frames)


class TestZPrepass:
    def test_exclusive_with_oracle(self):
        with pytest.raises(ConfigError):
            PipelineFeatures(z_prepass=True, oracle_z=True)

    def test_prepass_matches_oracle_shading(self, config, b2f_stream):
        prepass = GPU(config, PipelineFeatures(z_prepass=True)).render_stream(
            b2f_stream
        )
        oracle = GPU(config, ORACLE).render_stream(b2f_stream)
        assert (
            prepass.total_stats(warmup=0).fragments_shaded
            == oracle.total_stats(warmup=0).fragments_shaded
        )

    def test_prepass_image_matches_baseline(self, config, b2f_stream):
        baseline = GPU(config, BASELINE).render_stream(b2f_stream)
        prepass = GPU(config, PipelineFeatures(z_prepass=True)).render_stream(
            b2f_stream
        )
        for expected, actual in zip(baseline.frames, prepass.frames):
            assert np.array_equal(expected.image, actual.image)

    def test_prepass_overhead_charged(self, config, b2f_stream):
        baseline = GPU(config, BASELINE).render_stream(b2f_stream)
        prepass = GPU(config, PipelineFeatures(z_prepass=True)).render_stream(
            b2f_stream
        )
        base_stats = baseline.total_stats(warmup=0)
        pre_stats = prepass.total_stats(warmup=0)
        assert pre_stats.prepass_fragments > 0
        assert pre_stats.prepass_depth_writes > 0
        # Geometry is resubmitted: roughly twice the vertex work.
        assert pre_stats.vertices_fetched == 2 * base_stats.vertices_fetched
        # The prepass geometry overhead must show up in cycles.
        assert (
            prepass.total_cycles(warmup=0).geometry
            > baseline.total_cycles(warmup=0).geometry
        )


class TestHierarchicalZ:
    def test_culls_hidden_primitives_front_to_back(self, config):
        projection = orthographic(0, config.screen_width,
                                  config.screen_height, 0, -1.0, 1.0)

        def build(index):
            return make_depth_frame(
                config, projection, index,
                [
                    (0.5, Vec4(0.0, 1.0, 0.01 * index, 1.0)),   # near first
                    (-0.5, Vec4(1.0, 0.01 * index, 0.0, 1.0)),  # far second
                ],
            )

        stream = FrameStream(build, config.frames)
        hiz = GPU(config, PipelineFeatures(hierarchical_z=True)).render_stream(
            stream
        )
        stats = hiz.total_stats(warmup=0)
        assert stats.hiz_culled > 0
        # The far quad never even rasterizes in fully-covered tiles.
        baseline = GPU(config, BASELINE).render_stream(stream)
        assert (
            stats.primitives_rasterized
            < baseline.total_stats(warmup=0).primitives_rasterized
        )

    def test_powerless_back_to_front(self, config, b2f_stream):
        hiz = GPU(config, PipelineFeatures(hierarchical_z=True)).render_stream(
            b2f_stream
        )
        assert hiz.total_stats(warmup=0).hiz_culled == 0

    def test_image_unchanged(self, config, b2f_stream):
        baseline = GPU(config, BASELINE).render_stream(b2f_stream)
        hiz = GPU(config, PipelineFeatures(hierarchical_z=True)).render_stream(
            b2f_stream
        )
        for expected, actual in zip(baseline.frames, hiz.frames):
            assert np.array_equal(expected.image, actual.image)

    def test_composes_with_evr_reorder(self, config):
        """EVR's reordering puts visible geometry first, which is what
        makes HiZ effective on badly-ordered scenes."""
        stream = benchmark_stream("tib", config)
        hiz_only = GPU(config, PipelineFeatures(hierarchical_z=True))
        combined = GPU(config, PipelineFeatures(
            evr_hardware=True, evr_reorder=True, hierarchical_z=True,
        ))
        hiz_culled = hiz_only.render_stream(stream).total_stats(
            warmup=0
        ).hiz_culled
        combined_culled = combined.render_stream(stream).total_stats(
            warmup=0
        ).hiz_culled
        assert combined_culled > hiz_culled


class TestAlternativesHarness:
    @staticmethod
    def _runner():
        return SuiteRunner(RunSpec.from_config(GPUConfig.tiny(frames=3)))

    def test_report_shape(self):
        result = culling_alternatives(self._runner(), benchmarks=["tib"])
        mechanisms = [row[1] for row in result.rows]
        assert mechanisms == ["baseline", "hiz", "z-prepass",
                              "evr-reorder-only", "evr-hiz", "oracle"]
        frags = {row[1]: row[2] for row in result.rows}
        assert frags["z-prepass"] == pytest.approx(frags["oracle"])
        assert (frags["oracle"] <= frags["evr-reorder-only"]
                <= frags["baseline"])

    def test_rivals_report_shape(self):
        from repro.harness.alternatives import rival_techniques

        result = rival_techniques(self._runner(), benchmarks=["tib"])
        techniques = [row[1] for row in result.rows]
        assert techniques == ["baseline", "evr", "dsr", "fhv", "vrpipe-et"]
        frags = {row[1]: row[2] for row in result.rows}
        # Approximate rivals never shade more than baseline.
        for name in ("evr", "dsr", "fhv", "vrpipe-et"):
            assert frags[name] <= frags["baseline"]
