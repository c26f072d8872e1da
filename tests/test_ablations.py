"""Tests for the ablation features and the ablation harness."""

import pytest

from repro import ConfigError, GPU, GPUConfig, PipelineFeatures, RunSpec
from repro.core import VisibilityPredictor
from repro.harness import (
    ablation_draw_order,
    ablation_history,
    ablation_prediction_point,
)
from repro.harness.runner import SuiteRunner
from repro.spec import FeatureOverrides
from repro.hw import FVPEntry, FVPType
from repro.scenes import benchmark_stream

import numpy as np


def _evr(**overrides):
    base = dict(rendering_elimination=True, evr_hardware=True,
                evr_reorder=True, evr_signature_filter=True)
    base.update(overrides)
    return PipelineFeatures(**base)


class TestFeatureValidation:
    def test_history_must_be_positive(self):
        with pytest.raises(ConfigError):
            PipelineFeatures(fvp_history=0)

    def test_prediction_point_validated(self):
        with pytest.raises(ConfigError):
            PipelineFeatures(prediction_point="median")

    def test_defaults_match_paper(self):
        features = PipelineFeatures()
        assert features.fvp_history == 1
        assert features.prediction_point == "near"


class TestPredictorHistory:
    def _record(self, predictor, tile, depth):
        # A tile one WOZ entry of layer 1 covers at ``depth``.
        layers = np.ones((4, 4), dtype=np.int32)
        predictor.record_tile(tile, layers, 1, np.full((4, 4), depth))

    def test_history_one_uses_latest_only(self):
        predictor = VisibilityPredictor(4, history=1)
        self._record(predictor, 0, 0.3)
        self._record(predictor, 0, 0.6)
        # Latest Z_far is 0.6: a primitive at 0.5 is predicted visible,
        # one at 0.7 occluded.
        assert not predictor.predict(0, True, 0.5, 1)
        assert predictor.predict(0, True, 0.7, 1)

    def test_history_two_requires_both_frames(self):
        predictor = VisibilityPredictor(4, history=2)
        self._record(predictor, 0, 0.3)
        self._record(predictor, 0, 0.6)
        # 0.5 is behind frame-old Z_far (0.3) but not the latest (0.6):
        # visible either way; 0.45 is behind 0.3 only -> conservative
        # history-2 predictor says visible.
        assert not predictor.predict(0, True, 0.45, 1)
        # 0.7 is behind both -> occluded.
        assert predictor.predict(0, True, 0.7, 1)

    def test_invalid_history(self):
        with pytest.raises(ValueError):
            VisibilityPredictor(4, history=0)


class TestPredictionPointFeature:
    def test_aggressive_point_predicts_more(self):
        config = GPUConfig.tiny(frames=5)
        stream = benchmark_stream("tib", config)
        results = {}
        for point in ("near", "far"):
            gpu = GPU(config, _evr(prediction_point=point))
            run = gpu.render_stream(stream)
            results[point] = run.total_stats(warmup=0).predicted_occluded
        assert results["far"] >= results["near"]

    def test_aggressive_point_still_renders_correctly(self):
        from repro.techniques import BASELINE
        config = GPUConfig.tiny(frames=5)
        stream = benchmark_stream("tib", config)
        baseline = GPU(config, BASELINE).render_stream(stream)
        aggressive = GPU(config, _evr(prediction_point="far")).render_stream(
            stream
        )
        for expected, actual in zip(baseline.frames, aggressive.frames):
            assert np.array_equal(expected.image, actual.image)


class TestAblationHarness:
    SPEC = RunSpec.from_config(GPUConfig.tiny(frames=5))

    def test_prediction_point_rows(self):
        result = ablation_prediction_point(SuiteRunner(self.SPEC),
                                           benchmarks=["tib"])
        assert len(result.rows) == 3
        points = [row[1] for row in result.rows]
        assert points == ["near", "centroid", "far"]

    def test_swept_field_wins_over_spec_override(self):
        default = ablation_prediction_point(SuiteRunner(self.SPEC),
                                            benchmarks=["tib"])
        near, _, far = (row[2:] for row in default.rows)
        assert near != far  # else the check below could not tell
        overridden = RunSpec.from_config(
            self.SPEC.gpu, features=FeatureOverrides(prediction_point="far"))
        swept = ablation_prediction_point(SuiteRunner(overridden),
                                          benchmarks=["tib"])
        assert swept.rows == default.rows

    def test_history_rows(self):
        result = ablation_history(SuiteRunner(self.SPEC), benchmarks=["tib"],
                                  depths=(1, 2))
        assert len(result.rows) == 2

    def test_draw_order_spread(self):
        spec = RunSpec.from_config(GPUConfig.default(frames=5))
        result = ablation_draw_order(SuiteRunner(spec))
        assert result.summary["evr_spread"] <= result.summary[
            "baseline_spread"
        ] + 1e-9
