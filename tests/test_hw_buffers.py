"""Tests for the per-tile on-chip buffers: Z-buffer, Color Buffer, Layer
Buffer and ZR register.

A raster job holds a tile's buffers as its rows of the result's arrays.
The per-fragment rules are the scalar kernel backend's ops
(:mod:`repro.kernels.reference`) and the end-of-tile FVP is
:func:`repro.core.evr.compute_fvp`; the clearing and the ZR-register
rule (Section V-B) are checked on tile jobs, run under ``evr`` (numpy's
range path) and ``evr-hiz`` (the per-entry loop) on both backends.
"""

import dataclasses

import numpy as np
import pytest

from repro import BlendMode, GPUConfig, RenderState
from repro.core import compute_fvp
from repro.engine.tile_job import tile_flush_bytes
from repro.geom import ScreenTriangle, VertexAttributes
from repro.hw import FVPType
from repro.kernels import reference as ops
from repro.math3d import Vec2, Vec4
from repro.techniques.registry import resolve_features

from tests.tile_jobs import Entry, range_job

CONFIG = GPUConfig.tiny()
#: Every way a tile job renders with the EVR structures on:
#: ``(technique, backend)``.
PATHS = tuple((technique, backend) for technique in ("evr", "evr-hiz")
              for backend in ("python", "numpy"))

WOZ = RenderState(depth_test=True, depth_write=True, blend=BlendMode.OPAQUE)
SPRITE = RenderState(depth_test=False, depth_write=False,
                     blend=BlendMode.OPAQUE)


def full_mask():
    return np.ones((4, 4), dtype=bool)


def depth_plane(value):
    return np.full((4, 4), value)


def cleared():
    """A cleared 4x4 tile's Layer Buffer, ZR register and Z-buffer."""
    return np.zeros((4, 4), dtype=np.int32), -1, np.ones((4, 4))


def covering(state, layer, z=(0.5, 0.5, 0.5)):
    """An entry whose triangle covers all of tile 0, at vertex depths
    ``z``."""
    white = VertexAttributes(color=Vec4(1.0, 1.0, 1.0, 1.0))
    return Entry(ScreenTriangle(
        xy=(Vec2(-16.0, -16.0), Vec2(48.0, -16.0), Vec2(-16.0, 48.0)),
        z=z, attributes=(white,) * 3, command_id=0, primitive_id=0,
        state=state), layer)


def sliver(state, layer):
    """An entry binned to tile 0 whose triangle covers no pixel centre."""
    white = VertexAttributes(color=Vec4(1.0, 1.0, 1.0, 1.0))
    return Entry(ScreenTriangle(
        xy=(Vec2(3.6, 2.1), Vec2(3.9, 2.1), Vec2(3.9, 2.4)),
        z=(0.5, 0.5, 0.5), attributes=(white,) * 3, command_id=0,
        primitive_id=0, state=state), layer)


def rendered(lists, config=CONFIG):
    """``(path, result)`` for a job rendering ``lists[i]`` into tile
    ``i``, on every path of :data:`PATHS`."""
    for technique, backend in PATHS:
        job = range_job(list(range(len(lists))), lists, config=config,
                        features=resolve_features(technique),
                        backend=backend)
        yield (technique, backend), job.run()


def end_of_tile(result, index=0):
    """Tile ``index``'s Layer Buffer, ZR register and Z-buffer rows."""
    return (result.layers[index], int(result.zr_register[index]),
            result.depth[index])


class TestZBuffer:
    def test_clear_to_far(self):
        for path, result in rendered([[]]):
            assert (result.depth[0] == CONFIG.clear_depth).all(), path
            assert result.depth[0].max() == 1.0, path

    def test_strict_less_test(self):
        _, _, depth = cleared()
        ops.depth_write(depth, full_mask(), depth_plane(0.5))
        closer = ops.depth_test(depth, full_mask(), depth_plane(0.4))
        equal = ops.depth_test(depth, full_mask(), depth_plane(0.5))
        farther = ops.depth_test(depth, full_mask(), depth_plane(0.6))
        assert closer.all()
        assert not equal.any()
        assert not farther.any()

    def test_less_equal_mode(self):
        _, _, depth = cleared()
        ops.depth_write(depth, full_mask(), depth_plane(0.5))
        assert ops.depth_test(depth, full_mask(), depth_plane(0.5),
                              less_equal=True).all()

    def test_partial_mask(self):
        _, _, depth = cleared()
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True
        count = ops.depth_write(depth, mask, depth_plane(0.3))
        assert count == 1
        assert depth[0, 0] == 0.3
        assert depth[1, 1] == 1.0

    def test_z_far_tracks_maximum(self):
        """With a WOZ FVP, its value is ``Z_far``, the maximum stored
        depth."""
        layers, _, depth = cleared()
        ops.layer_write(layers, full_mask(), 1)
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True
        ops.depth_write(depth, mask, depth_plane(0.3))
        # untouched pixels stay at clear depth
        assert compute_fvp(layers, 1, depth).value == 1.0
        ops.depth_write(depth, full_mask(), depth_plane(0.2))
        assert compute_fvp(layers, 1, depth).value == pytest.approx(0.2)

    def test_clear_resets(self):
        """Each tile starts from the clear depth, whatever the tile
        before it in the job wrote."""
        lists = [[covering(WOZ, 1, z=(0.1, 0.1, 0.1))], []]
        for path, result in rendered(lists):
            assert np.allclose(result.depth[0], 0.1), path
            assert (result.depth[1] == CONFIG.clear_depth).all(), path


class TestColorBuffer:
    def test_clear_color(self):
        config = dataclasses.replace(CONFIG, clear_color=(0.1, 0.2, 0.3, 1.0))
        for path, result in rendered([[]], config):
            assert np.allclose(result.color[0], [0.1, 0.2, 0.3, 1.0]), path

    def test_opaque_write(self):
        color = np.zeros((4, 4, 4))
        rgba = np.zeros((4, 4, 4))
        rgba[:, :] = [1.0, 0.0, 0.0, 1.0]
        count = ops.color_write(color, full_mask(), rgba)
        assert count == 16
        assert np.allclose(color[2, 2], [1, 0, 0, 1])

    def test_alpha_blend_half(self):
        color = np.zeros((4, 4, 4))
        color[:, :, 3] = 1.0
        rgba = np.zeros((4, 4, 4))
        rgba[:, :] = [1.0, 1.0, 1.0, 0.5]
        ops.color_blend(color, full_mask(), rgba)
        assert np.allclose(color[0, 0, :3], [0.5, 0.5, 0.5])

    def test_alpha_one_blend_equals_write(self):
        a = np.zeros((4, 4, 4))
        b = np.zeros((4, 4, 4))
        rgba = np.zeros((4, 4, 4))
        rgba[:, :] = [0.3, 0.6, 0.9, 1.0]
        ops.color_blend(a, full_mask(), rgba)
        ops.color_write(b, full_mask(), rgba)
        assert np.allclose(a, b)

    def test_blend_not_commutative(self):
        red = np.zeros((4, 4, 4))
        red[:, :] = [1.0, 0.0, 0.0, 0.5]
        blue = np.zeros((4, 4, 4))
        blue[:, :] = [0.0, 0.0, 1.0, 0.5]
        ab = np.zeros((4, 4, 4))
        ops.color_blend(ab, full_mask(), red)
        ops.color_blend(ab, full_mask(), blue)
        ba = np.zeros((4, 4, 4))
        ops.color_blend(ba, full_mask(), blue)
        ops.color_blend(ba, full_mask(), red)
        assert not np.allclose(ab, ba)

    def test_byte_size_rgba8(self):
        """A tile's end-of-tile flush is its colours as RGBA8."""
        assert tile_flush_bytes(GPUConfig()) == 16 * 16 * 4


class TestLayerBuffer:
    def test_clear_layer_is_zero(self):
        for path, result in rendered([[]]):
            layers, zr_register, depth = end_of_tile(result)
            assert (layers == 0).all() and zr_register == -1, path
            entry = compute_fvp(layers, zr_register, depth)
            assert entry.fvp_type is FVPType.NWOZ and entry.value == 0, path

    def test_l_far_is_minimum_visible_layer(self):
        layers, zr_register, depth = cleared()
        ops.layer_write(layers, full_mask(), 2)
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, :] = True
        ops.layer_write(layers, mask, 5)
        entry = compute_fvp(layers, zr_register, depth)
        assert entry.fvp_type is FVPType.NWOZ and entry.value == 2

    def test_zr_register_tracks_last_woz(self):
        """An opaque NWOZ sprite drawn over a WOZ entry takes the Layer
        Buffer but leaves the ZR register at the WOZ layer."""
        for path, result in rendered([[covering(WOZ, 1)]]):
            assert end_of_tile(result)[1] == 1, path
        for path, result in rendered([[covering(WOZ, 1),
                                       covering(SPRITE, 2)]]):
            layers, zr_register, _ = end_of_tile(result)
            assert (layers == 2).all() and zr_register == 1, path

    def test_fvp_type_woz_when_zr_equals_lfar(self):
        """One WOZ entry over the whole tile: ``L_far`` equals ZR, so the
        FVP is WOZ and its value is the depth row's maximum."""
        lists = [[covering(WOZ, 1, z=(0.2, 0.6, 0.4))]]
        for path, result in rendered(lists):
            layers, zr_register, depth = end_of_tile(result)
            assert int(layers.min()) == zr_register == 1, path
            entry = compute_fvp(layers, zr_register, depth)
            assert entry.fvp_type is FVPType.WOZ, path
            assert entry.value == float(depth.max()), path
            assert 0.2 < entry.value < 0.6, path

    def test_fvp_type_nwoz_when_covered_by_sprite(self):
        """A WOZ entry, then an opaque NWOZ sprite over the whole tile:
        ``L_far`` is the sprite's layer and the FVP is NWOZ."""
        lists = [[covering(WOZ, 1), covering(SPRITE, 3)]]
        for path, result in rendered(lists):
            entry = compute_fvp(*end_of_tile(result))
            assert entry.fvp_type is FVPType.NWOZ, path
            assert entry.value == 3, path

    def test_empty_mask_does_not_update_zr(self):
        """A WOZ entry that covers no pixel, or whose every fragment
        fails the depth test, leaves the ZR register as it was: at -1 on
        a cleared tile, at an earlier visible WOZ entry's layer after
        one."""
        killed = covering(WOZ, 7, z=(1.0, 1.0, 1.0))  # not < clear depth
        for entries in ([sliver(WOZ, 7)], [killed]):
            for path, result in rendered([entries]):
                layers, zr_register, _ = end_of_tile(result)
                assert zr_register == -1 and (layers == 0).all(), path
        hidden = [covering(WOZ, 1, z=(0.2, 0.2, 0.2)), covering(WOZ, 7)]
        for path, result in rendered([hidden]):
            layers, zr_register, _ = end_of_tile(result)
            assert zr_register == 1 and (layers == 1).all(), path

    def test_clear(self):
        """Each tile starts from layer 0 and ZR -1, whatever the tile
        before it in the job wrote."""
        for path, result in rendered([[covering(WOZ, 3)], []]):
            assert end_of_tile(result, 0)[1] == 3, path
            layers, zr_register, _ = end_of_tile(result, 1)
            assert (layers == 0).all() and zr_register == -1, path
