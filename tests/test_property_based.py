"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RenderState
from repro.core import predict_occluded
from repro.core.rendering_elimination import RenderingElimination
from repro.geom import ScreenTriangle, VertexAttributes
from repro.core import compute_fvp
from repro.hw import FVPEntry, FVPType, SignatureBuffer
from repro.kernels import reference as ops
from repro.hw.signature_buffer import combine_signature
from repro.math3d import Vec2


class TestSignatureProperties:
    crcs = st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                    min_size=0, max_size=20)

    @given(crcs)
    def test_same_sequence_same_signature(self, crc_list):
        a = 0
        b = 0
        for crc in crc_list:
            a = combine_signature(a, crc)
            b = combine_signature(b, crc)
        assert a == b

    @given(crcs, st.integers(min_value=0, max_value=2**32 - 1))
    def test_appending_changes_signature(self, crc_list, extra):
        base = 0
        for crc in crc_list:
            base = combine_signature(base, crc)
        extended = combine_signature(base, extra)
        assert extended != base or not crc_list  # CRC32 of 4 bytes never
        # maps a state to itself for all inputs; allow the vacuous case.

    @given(st.data())
    def test_signature_buffer_matches_iff_same_stream(self, data):
        crc_values = st.integers(min_value=0, max_value=2**16)
        first = data.draw(st.lists(crc_values, max_size=8))
        second = data.draw(st.lists(crc_values, max_size=8))
        buffer = SignatureBuffer(1)
        for crc in first:
            buffer.update(0, crc)
        buffer.rotate_frame()
        for crc in second:
            buffer.update(0, crc)
        if first == second:
            assert buffer.matches_previous(0)
        # (different streams may collide in principle; CRC collisions over
        # these tiny domains do not occur for identical prefixes)


class TestPredictionProperties:
    @given(
        st.booleans(),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=0, max_value=100),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=0, max_value=100),
        st.booleans(),
    )
    def test_prediction_is_deterministic_and_total(
        self, writes_z, z_near, layer, fvp_value, fvp_layer, fvp_is_woz
    ):
        entry = (
            FVPEntry(FVPType.WOZ, fvp_value)
            if fvp_is_woz
            else FVPEntry(FVPType.NWOZ, fvp_layer)
        )
        first = predict_occluded(entry, writes_z, z_near, layer)
        second = predict_occluded(entry, writes_z, z_near, layer)
        assert first == second
        assert isinstance(first, bool)

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_woz_rule_is_conservative(self, z_near, z_far):
        """A primitive is labeled occluded only when strictly farther
        than the FVP: z_near <= Z_far can never be predicted occluded."""
        entry = FVPEntry(FVPType.WOZ, z_far)
        if z_near <= z_far:
            assert not predict_occluded(entry, True, z_near, 0)

    @given(st.integers(min_value=0, max_value=50),
           st.integers(min_value=0, max_value=50))
    def test_nwoz_rule_strict(self, layer, l_far):
        entry = FVPEntry(FVPType.NWOZ, l_far)
        assert predict_occluded(entry, False, 0.0, layer) == (layer < l_far)


class TestLayerBufferProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=10),   # layer
                st.booleans(),                            # is_woz
                st.integers(min_value=0, max_value=15),   # column stripe
            ),
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_l_far_is_min_of_written_or_clear(self, writes):
        """``L_far`` is the minimum stored layer: the oldest layer left
        visible, or the clear layer 0 where a column stayed unwritten;
        the FVP is WOZ exactly when it equals the ZR register, the
        layer of the last WOZ write."""
        layers = np.zeros((4, 4), dtype=np.int32)
        zr_register = -1
        for layer, is_woz, column in writes:
            mask = np.zeros((4, 4), dtype=bool)
            mask[:, column % 4] = True
            if ops.layer_write(layers, mask, layer) and is_woz:
                zr_register = layer
        visible = {column % 4: layer for layer, _, column in writes}
        l_far = min(visible.values()) if len(visible) == 4 else 0
        entry = compute_fvp(layers, zr_register, np.ones((4, 4)))
        if zr_register == l_far:
            assert entry == FVPEntry(FVPType.WOZ, 1.0)
        else:
            assert entry == FVPEntry(FVPType.NWOZ, l_far)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0,
                              allow_nan=False), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_z_far_tracks_running_min_per_pixel(self, depths):
        depth = np.ones((2, 2))
        mask = np.ones((2, 2), dtype=bool)
        expected = 1.0
        for value in depths:
            plane = np.full((2, 2), value)
            passing = ops.depth_test(depth, mask, plane)
            ops.depth_write(depth, passing, plane)
            expected = min(expected, value)
        layers = np.zeros((2, 2), dtype=np.int32)
        assert compute_fvp(layers, 0, depth).value == pytest.approx(expected)


class TestRenderingEliminationProperties:
    @given(
        st.lists(st.tuples(st.integers(min_value=0, max_value=2**16),
                           st.booleans()), max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_filtered_signature_ignores_occluded(self, primitives):
        """The EVR-filtered signature equals the unfiltered signature of
        just the visible subset."""
        filtered = RenderingElimination(1, filter_occluded=True)
        reference = RenderingElimination(1, filter_occluded=False)
        for crc, occluded in primitives:
            filtered.on_primitive_binned(0, crc, occluded)
            if not occluded:
                reference.on_primitive_binned(0, crc, False)
        assert (
            filtered.signature_buffer.current_signature(0)
            == reference.signature_buffer.current_signature(0)
        )
