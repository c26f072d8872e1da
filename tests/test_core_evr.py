"""Tests for the EVR core: FVP computation and the prediction rules.

Includes a faithful reconstruction of the paper's Figure 3 worked example
(hybrid WOZ/NWOZ FVP computation).
"""

import numpy as np
import pytest

from repro.core import VisibilityPredictor, compute_fvp, predict_occluded
from repro.hw import FVPEntry, FVPType
from repro.kernels import reference as ops


def full_mask():
    return np.ones((4, 4), dtype=bool)


def depth_plane(value):
    return np.full((4, 4), value)


def cleared():
    """A cleared 4x4 tile's Layer Buffer and Z-buffer."""
    return np.zeros((4, 4), dtype=np.int32), np.ones((4, 4))


class TestPredictOccluded:
    def test_no_entry_predicts_visible(self):
        assert not predict_occluded(None, writes_z=True, z_near=0.9, layer=1)

    def test_nwoz_fvp_layer_rule(self):
        entry = FVPEntry(FVPType.NWOZ, 3)
        assert predict_occluded(entry, writes_z=False, z_near=0.0, layer=2)
        assert not predict_occluded(entry, writes_z=False, z_near=0.0, layer=3)
        assert not predict_occluded(entry, writes_z=False, z_near=0.0, layer=4)

    def test_nwoz_fvp_applies_to_woz_primitives_too(self):
        entry = FVPEntry(FVPType.NWOZ, 3)
        assert predict_occluded(entry, writes_z=True, z_near=0.1, layer=2)

    def test_woz_fvp_depth_rule(self):
        entry = FVPEntry(FVPType.WOZ, 0.5)
        assert predict_occluded(entry, writes_z=True, z_near=0.6, layer=9)
        assert not predict_occluded(entry, writes_z=True, z_near=0.5, layer=9)
        assert not predict_occluded(entry, writes_z=True, z_near=0.4, layer=9)

    def test_woz_fvp_never_predicts_nwoz_occluded(self):
        # Section III-C: with a WOZ FVP, only WOZ primitives can be
        # labeled occluded (NWOZ depth is unknown to the Z-buffer).
        entry = FVPEntry(FVPType.WOZ, 0.5)
        assert not predict_occluded(entry, writes_z=False, z_near=0.9, layer=1)


class TestComputeFVP:
    def test_pure_woz_tile(self):
        layers, depth = cleared()
        ops.depth_write(depth, full_mask(), depth_plane(0.42))
        ops.layer_write(layers, full_mask(), 2)
        entry = compute_fvp(layers, 2, depth)
        assert entry.fvp_type is FVPType.WOZ
        assert entry.value == pytest.approx(0.42)

    def test_nwoz_covering_tile(self):
        layers, depth = cleared()
        ops.layer_write(layers, full_mask(), 3)
        entry = compute_fvp(layers, -1, depth)
        assert entry.fvp_type is FVPType.NWOZ
        assert entry.value == 3

    def test_empty_tile_is_conservative(self):
        layers, depth = cleared()
        entry = compute_fvp(layers, -1, depth)
        assert entry.fvp_type is FVPType.NWOZ
        assert entry.value == 0  # no layer is below 0 -> nothing occluded


class TestFigure3Scenarios:
    """The paper's Figure 3 worked examples.

    A tile seen top-down: layers drawn left (near) to right (far).
    """

    def test_figure_3a_nwoz_fvp(self):
        # Layers: 1 (NWOZ, occluded by 2), 2 (NWOZ, occluded by 3 and 4),
        # 3 (NWOZ, visible), 4 (NWOZ, visible, nearer).  L_far = 3 and
        # the FVP is a layer.
        layers, depth = cleared()
        ops.layer_write(layers, full_mask(), 1)       # layer 1 everywhere
        ops.layer_write(layers, full_mask(), 2)       # layer 2 covers 1
        left = np.zeros((4, 4), dtype=bool)
        left[:, :2] = True
        right = ~left
        ops.layer_write(layers, left, 3)              # layer 3 visible left
        ops.layer_write(layers, right, 4)             # layer 4 visible right
        entry = compute_fvp(layers, -1, depth)        # no WOZ: ZR is -1
        assert entry.fvp_type is FVPType.NWOZ
        assert entry.value == 3

    def test_figure_3b_woz_fvp(self):
        # Layer 1 is a WOZ batch with depths 0, 0.5 and 1 across the
        # tile; deeper-z parts are occluded by nearer WOZ geometry except
        # where only z=0.5 covers.  The tile's farthest *visible* point
        # belongs to WOZ geometry, so the FVP is Z_far = 0.5.
        layers, depth = cleared()
        near = np.zeros((4, 4), dtype=bool)
        near[:, :2] = True
        far = ~near
        # WOZ batch (all layer 1, so the ZR register holds 1): fragment
        # depths.
        ops.depth_write(depth, full_mask(), depth_plane(1.0))  # depth-1
        ops.layer_write(layers, full_mask(), 1)
        mid = depth_plane(0.5)
        passing = ops.depth_test(depth, far, mid)
        ops.depth_write(depth, passing, mid)          # 0.5 covers right half
        ops.layer_write(layers, passing, 1)
        zero = depth_plane(0.0)
        passing = ops.depth_test(depth, near, zero)
        ops.depth_write(depth, passing, zero)         # 0 covers left half
        ops.layer_write(layers, passing, 1)
        entry = compute_fvp(layers, 1, depth)
        assert entry.fvp_type is FVPType.WOZ
        assert entry.value == pytest.approx(0.5)


class TestVisibilityPredictor:
    def test_records_and_predicts(self):
        predictor = VisibilityPredictor(num_tiles=4)
        layers, depth = cleared()
        ops.depth_write(depth, full_mask(), depth_plane(0.5))
        ops.layer_write(layers, full_mask(), 1)
        predictor.record_tile(2, layers, 1, depth)
        assert predictor.predict(2, writes_z=True, z_near=0.7, layer=1)
        assert not predictor.predict(2, writes_z=True, z_near=0.3, layer=1)
        assert predictor.stats.predictions == 2
        assert predictor.stats.predicted_occluded == 1
        assert predictor.occluded_rate == 0.5

    def test_unrecorded_tile_predicts_visible(self):
        predictor = VisibilityPredictor(num_tiles=4)
        assert not predictor.predict(0, writes_z=True, z_near=0.99, layer=0)

    def test_occluded_rate_empty(self):
        assert VisibilityPredictor(1).occluded_rate == 0.0
