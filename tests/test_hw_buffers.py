"""Tests for the per-tile on-chip buffers (Z, Color, Layer)."""

import numpy as np
import pytest

from repro.hw import ColorBuffer, LayerBuffer, ZBuffer


def full_mask():
    return np.ones((4, 4), dtype=bool)


def depth_plane(value):
    return np.full((4, 4), value)


class TestZBuffer:
    def test_clear_to_far(self):
        z = ZBuffer(4, 4, clear_depth=1.0)
        assert z.z_far == 1.0

    def test_strict_less_test(self):
        z = ZBuffer(4, 4)
        z.write(full_mask(), depth_plane(0.5))
        closer = z.test(full_mask(), depth_plane(0.4))
        equal = z.test(full_mask(), depth_plane(0.5))
        farther = z.test(full_mask(), depth_plane(0.6))
        assert closer.all()
        assert not equal.any()
        assert not farther.any()

    def test_less_equal_mode(self):
        z = ZBuffer(4, 4)
        z.write(full_mask(), depth_plane(0.5))
        assert z.test(full_mask(), depth_plane(0.5), less_equal=True).all()

    def test_partial_mask(self):
        z = ZBuffer(4, 4)
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True
        count = z.write(mask, depth_plane(0.3))
        assert count == 1
        assert z.depth[0, 0] == 0.3
        assert z.depth[1, 1] == 1.0

    def test_z_far_tracks_maximum(self):
        z = ZBuffer(4, 4)
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True
        z.write(mask, depth_plane(0.3))
        assert z.z_far == 1.0  # untouched pixels stay at clear depth
        z.write(full_mask(), depth_plane(0.2))
        assert z.z_far == pytest.approx(0.2)

    def test_preload(self):
        z = ZBuffer(4, 4)
        z.preload(depth_plane(0.25))
        assert z.z_far == 0.25

    def test_clear_resets(self):
        z = ZBuffer(4, 4)
        z.write(full_mask(), depth_plane(0.1))
        z.clear()
        assert z.z_far == 1.0


class TestColorBuffer:
    def test_clear_color(self):
        cb = ColorBuffer(4, 4, clear_color=(0.1, 0.2, 0.3, 1.0))
        assert np.allclose(cb.color[0, 0], [0.1, 0.2, 0.3, 1.0])

    def test_opaque_write(self):
        cb = ColorBuffer(4, 4)
        rgba = np.zeros((4, 4, 4))
        rgba[:, :] = [1.0, 0.0, 0.0, 1.0]
        count = cb.write(full_mask(), rgba)
        assert count == 16
        assert np.allclose(cb.color[2, 2], [1, 0, 0, 1])

    def test_alpha_blend_half(self):
        cb = ColorBuffer(4, 4, clear_color=(0.0, 0.0, 0.0, 1.0))
        rgba = np.zeros((4, 4, 4))
        rgba[:, :] = [1.0, 1.0, 1.0, 0.5]
        cb.blend(full_mask(), rgba)
        assert np.allclose(cb.color[0, 0, :3], [0.5, 0.5, 0.5])

    def test_alpha_one_blend_equals_write(self):
        a = ColorBuffer(4, 4)
        b = ColorBuffer(4, 4)
        rgba = np.zeros((4, 4, 4))
        rgba[:, :] = [0.3, 0.6, 0.9, 1.0]
        a.blend(full_mask(), rgba)
        b.write(full_mask(), rgba)
        assert np.allclose(a.color, b.color)

    def test_blend_not_commutative(self):
        red = np.zeros((4, 4, 4))
        red[:, :] = [1.0, 0.0, 0.0, 0.5]
        blue = np.zeros((4, 4, 4))
        blue[:, :] = [0.0, 0.0, 1.0, 0.5]
        ab = ColorBuffer(4, 4)
        ab.blend(full_mask(), red)
        ab.blend(full_mask(), blue)
        ba = ColorBuffer(4, 4)
        ba.blend(full_mask(), blue)
        ba.blend(full_mask(), red)
        assert not np.allclose(ab.color, ba.color)

    def test_snapshot_is_copy(self):
        cb = ColorBuffer(4, 4)
        snap = cb.snapshot()
        cb.clear()
        snap[0, 0, 0] = 42.0
        assert cb.color[0, 0, 0] != 42.0

    def test_byte_size_rgba8(self):
        assert ColorBuffer(16, 16).byte_size == 16 * 16 * 4


class TestLayerBuffer:
    def test_clear_layer_is_zero(self):
        lb = LayerBuffer(4, 4)
        assert lb.l_far == 0

    def test_l_far_is_minimum_visible_layer(self):
        lb = LayerBuffer(4, 4)
        lb.write(full_mask(), 2, is_woz=False)
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, :] = True
        lb.write(mask, 5, is_woz=False)
        assert lb.l_far == 2

    def test_zr_register_tracks_last_woz(self):
        lb = LayerBuffer(4, 4)
        lb.write(full_mask(), 2, is_woz=True)
        assert lb.zr_register == 2
        lb.write(full_mask(), 3, is_woz=False)
        assert lb.zr_register == 2

    def test_fvp_type_woz_when_zr_equals_lfar(self):
        lb = LayerBuffer(4, 4)
        lb.write(full_mask(), 2, is_woz=True)
        assert lb.fvp_is_woz  # L_far == 2 == ZR

    def test_fvp_type_nwoz_when_covered_by_sprite(self):
        lb = LayerBuffer(4, 4)
        lb.write(full_mask(), 2, is_woz=True)
        lb.write(full_mask(), 3, is_woz=False)  # NWOZ covers everything
        assert lb.l_far == 3
        assert not lb.fvp_is_woz

    def test_empty_mask_does_not_update_zr(self):
        lb = LayerBuffer(4, 4)
        empty = np.zeros((4, 4), dtype=bool)
        lb.write(empty, 7, is_woz=True)
        assert lb.zr_register == -1

    def test_clear(self):
        lb = LayerBuffer(4, 4)
        lb.write(full_mask(), 3, is_woz=True)
        lb.clear()
        assert lb.l_far == 0
        assert lb.zr_register == -1


class TestHolding:
    """``holding`` is how a range result hands each tile's end-of-tile
    FVP inputs to the predictor: a buffer over the given array itself,
    with the given ZR register."""

    def test_z_buffer_holding(self):
        depth = np.full((4, 4), 0.5)
        depth[1, 2] = 0.25
        zb = ZBuffer.holding(depth, clear_depth=0.75)
        assert zb.depth is depth
        assert zb.z_far == 0.5
        zb.clear()
        assert (depth == 0.75).all()

    def test_layer_buffer_holding(self):
        layers = np.full((4, 4), 3, dtype=np.int32)
        lb = LayerBuffer.holding(layers, 3)
        assert lb.layers is layers
        assert lb.l_far == 3 and lb.fvp_is_woz
        lb.write(full_mask(), 5, is_woz=False)
        assert (layers == 5).all() and lb.zr_register == 3
        assert not lb.fvp_is_woz
