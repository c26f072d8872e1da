"""Tests for the sub-tile (2x2 quadrant) FVP ablation."""

import numpy as np
import pytest

from repro import ConfigError, GPU, GPUConfig, PipelineFeatures
from repro.core.subtile import (
    SubTileVisibilityPredictor,
    compute_quadrant_fvps,
)
from repro.hw import FVPType, LayerBuffer, ZBuffer
from repro.scenes import benchmark_stream
from repro.techniques import BASELINE


def full():
    return np.ones((16, 16), dtype=bool)


def quadrant_mask(qx, qy):
    mask = np.zeros((16, 16), dtype=bool)
    mask[qy * 8:(qy + 1) * 8, qx * 8:(qx + 1) * 8] = True
    return mask


class TestQuadrantFVPs:
    def test_uniform_woz_tile(self):
        z = ZBuffer(16, 16)
        lb = LayerBuffer(16, 16)
        z.write(full(), np.full((16, 16), 0.4))
        lb.write(full(), 1, is_woz=True)
        entries = compute_quadrant_fvps(lb, z)
        assert all(e.fvp_type is FVPType.WOZ for e in entries)
        assert all(e.value == pytest.approx(0.4) for e in entries)

    def test_mixed_depth_quadrants(self):
        """Per-quadrant Z_far refines the tile-wide maximum."""
        z = ZBuffer(16, 16)
        lb = LayerBuffer(16, 16)
        lb.write(full(), 1, is_woz=True)
        z.write(quadrant_mask(0, 0), np.full((16, 16), 0.2))
        z.write(quadrant_mask(1, 0), np.full((16, 16), 0.8))
        z.write(quadrant_mask(0, 1), np.full((16, 16), 0.3))
        z.write(quadrant_mask(1, 1), np.full((16, 16), 0.5))
        entries = compute_quadrant_fvps(lb, z)
        values = [e.value for e in entries]
        assert values == [pytest.approx(v) for v in (0.2, 0.8, 0.3, 0.5)]

    def test_nwoz_quadrant(self):
        z = ZBuffer(16, 16)
        lb = LayerBuffer(16, 16)
        lb.write(full(), 1, is_woz=True)
        lb.write(quadrant_mask(1, 1), 3, is_woz=False)  # sprite covers one
        entries = compute_quadrant_fvps(lb, z)
        assert entries[0].fvp_type is FVPType.WOZ
        assert entries[3].fvp_type is FVPType.NWOZ
        assert entries[3].value == 3


class TestSubTilePredictor:
    def _predictor(self):
        predictor = SubTileVisibilityPredictor(
            num_tiles=4, tile_width=16, tile_height=16, tiles_x=2
        )
        z = ZBuffer(16, 16)
        lb = LayerBuffer(16, 16)
        lb.write(full(), 1, is_woz=True)
        z.write(quadrant_mask(0, 0), np.full((16, 16), 0.2))
        z.write(quadrant_mask(1, 0), np.full((16, 16), 0.8))
        z.write(quadrant_mask(0, 1), np.full((16, 16), 0.3))
        z.write(quadrant_mask(1, 1), np.full((16, 16), 0.5))
        predictor.record_tile(0, lb, z)
        return predictor

    def test_unknown_tile_predicts_visible(self):
        predictor = SubTileVisibilityPredictor(4, 16, 16, 2)
        assert not predictor.predict(0, True, 0.99, 1, bbox=(0, 0, 4, 4))

    def test_quadrant_local_prediction(self):
        predictor = self._predictor()
        # A primitive confined to the near quadrant (Z_far 0.2) at depth
        # 0.4: occluded there, even though the tile-wide Z_far is 0.8.
        assert predictor.predict(0, True, 0.4, 1, bbox=(0, 0, 6, 6))
        # The same primitive over the far quadrant (Z_far 0.8): visible.
        assert not predictor.predict(0, True, 0.4, 1, bbox=(10, 0, 15, 6))

    def test_spanning_bbox_needs_all_quadrants(self):
        predictor = self._predictor()
        # Spanning all quadrants: threshold is the max (0.8).
        assert not predictor.predict(0, True, 0.7, 1, bbox=(0, 0, 16, 16))
        assert predictor.predict(0, True, 0.9, 1, bbox=(0, 0, 16, 16))

    def test_off_tile_bbox_is_conservative(self):
        predictor = self._predictor()
        assert not predictor.predict(0, True, 0.99, 1,
                                     bbox=(100, 100, 120, 120))

    def test_without_bbox_checks_all(self):
        predictor = self._predictor()
        assert predictor.predict(0, True, 0.9, 1)
        assert not predictor.predict(0, True, 0.7, 1)


class TestFeatureIntegration:
    def test_requires_evr_hardware(self):
        with pytest.raises(ConfigError):
            PipelineFeatures(subtile_fvp=True)

    def test_incompatible_with_history(self):
        with pytest.raises(ConfigError):
            PipelineFeatures(evr_hardware=True, subtile_fvp=True,
                             fvp_history=2)

    def test_renders_identical_images(self):
        config = GPUConfig.tiny(frames=4)
        stream = benchmark_stream("tib", config)
        features = PipelineFeatures(
            rendering_elimination=True, evr_hardware=True,
            evr_reorder=True, evr_signature_filter=True, subtile_fvp=True,
        )
        baseline = GPU(config, BASELINE).render_stream(stream)
        subtile = GPU(config, features).render_stream(stream)
        for expected, actual in zip(baseline.frames, subtile.frames):
            assert np.array_equal(expected.image, actual.image)
