"""Tests for Parameter Buffer, Signature Buffer, LGT and FVP Table."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DrawCommand, RenderState
from repro.geom import ScreenTriangle, Triangle, Vertex, VertexAttributes
from repro.hw import (
    DisplayList,
    DisplayListEntry,
    FVPEntry,
    FVPTable,
    FVPType,
    LayerGeneratorTable,
    ParameterBuffer,
    SignatureBuffer,
    primitive_signature,
)
from repro.hw.fvp_table import KIND_EMPTY, KIND_NWOZ, KIND_WOZ
from repro.hw.signature_buffer import combine_signature, primitive_signatures
from repro.errors import PipelineError
from repro.kernels import reference
from repro.kernels.api import primitive_table as reference_table
from repro.techniques.dsr import dsr_signature, dsr_signatures
from repro.math3d import Mat4, Vec2, Vec3, Vec4, viewport

from tests.strategies import edge_floats
from tests.tile_jobs import table_of


def make_primitive(command_id=0):
    return ScreenTriangle(
        xy=(Vec2(0, 0), Vec2(4, 0), Vec2(0, 4)),
        z=(0.5, 0.5, 0.5),
        attributes=(VertexAttributes(),) * 3,
        command_id=command_id,
        primitive_id=0,
        state=RenderState.sprite_2d(),
    )


_STATES = (RenderState.sprite_2d(), RenderState.opaque_3d(),
           RenderState.translucent_3d())
#: Window coordinates and attribute channels: signed zeros, subnormals
#: and ties, the values a careless array encoder would pack differently.
#: Attributes stay in float32 range, where ``pack`` can encode them.
_WINDOW = edge_floats(-1e6, 1e6, ties=(16.0,))
_CHANNEL = edge_floats(-2.0, 2.0, ties=(0.5,))


@st.composite
def _screen_triangle(draw):
    def attributes():
        return VertexAttributes(
            color=Vec4(*(draw(_CHANNEL) for _ in range(4))),
            uv=Vec2(draw(_CHANNEL), draw(_CHANNEL)),
            normal=Vec3(draw(_CHANNEL), draw(_CHANNEL), draw(_CHANNEL)))
    return ScreenTriangle(
        xy=tuple(Vec2(draw(_WINDOW), draw(_WINDOW)) for _ in range(3)),
        z=tuple(draw(_CHANNEL) for _ in range(3)),
        attributes=tuple(attributes() for _ in range(3)),
        command_id=0,
        primitive_id=0,
        state=draw(st.sampled_from(_STATES)),
    )


def make_entry(row=0, layer=0):
    return DisplayListEntry(row=row, offset=0, layer=layer)


class TestParameterBuffer:
    def test_offsets_advance(self):
        pb = ParameterBuffer(4)
        first = pb.store_primitive(make_primitive())
        second = pb.store_primitive(make_primitive())
        assert first == 0
        assert second == pb.attribute_bytes_per_primitive
        assert pb.stored_primitives == 2
        assert pb.total_bytes == 2 * pb.attribute_bytes_per_primitive

    def test_store_primitives_matches_one_by_one(self):
        pb = ParameterBuffer(4)
        pb.store_primitive(make_primitive())
        offsets = pb.store_primitives(3)
        assert offsets.tolist() == [pb.attribute_bytes_per_primitive * k
                                    for k in (1, 2, 3)]
        assert pb.stored_primitives == 4
        assert pb.store_primitive(make_primitive()) == \
            4 * pb.attribute_bytes_per_primitive

    def test_fill_display_lists(self):
        pb = ParameterBuffer(4)
        table = table_of([make_primitive()])
        column = np.arange(5, dtype=np.int64)
        pb.fill_display_lists(table, np.array([1, 1, 1, 3, 3]),
                              np.array([False, False, True, False, False]),
                              column, 10 * column, column + 1,
                              column % 2 == 1, 100 + column)
        lists = pb.lists
        assert pb.primitives is table
        assert lists.start.tolist() == [0, 0, 3, 3, 5]
        assert lists.split.tolist() == [0, 2, 3, 5]
        assert lists.layer.tolist() == [1, 2, 3, 4, 5]
        assert lists.predicted.tolist() == [False, True, False, True, False]

    def test_close_display_lists_matches_fill(self):
        """The scalar builder's per-tile lists become the columns the
        array builder fills: tile by tile, first list then second."""
        entries = [DisplayListEntry(row, 10 * row, row + 1, row % 2 == 1,
                                    100 + row) for row in range(5)]
        placed = ParameterBuffer(4)
        placed.display_list(1).append_first(entries[0])
        placed.display_list(1).append_second(entries[2])
        placed.display_list(1).append_first(entries[1])
        placed.display_list(3).append_first(entries[3])
        placed.display_list(3).append_first(entries[4])
        table = table_of([make_primitive()])
        placed.close_display_lists(table)
        filled = ParameterBuffer(4)
        column = np.arange(5, dtype=np.int64)
        filled.fill_display_lists(
            table, np.array([1, 1, 1, 3, 3]),
            np.array([False, False, True, False, False]), column,
            10 * column, column + 1, column % 2 == 1, 100 + column)
        for name, expected in filled.lists._asdict().items():
            actual = getattr(placed.lists, name)
            assert actual.dtype == expected.dtype, name
            assert actual.tolist() == expected.tolist(), name

    def test_reset(self):
        pb = ParameterBuffer(4)
        pb.store_primitive(make_primitive())
        pb.display_list(0).append_first(make_entry())
        pb.close_display_lists(table_of([make_primitive()]))
        pb.reset()
        assert pb.total_bytes == 0
        assert len(pb.display_list(0)) == 0
        assert pb.primitives is None and pb.lists is None


class TestDisplayList:
    def test_iteration_order_first_then_second(self):
        dl = DisplayList()
        a, b, c = make_entry(layer=1), make_entry(layer=2), make_entry(layer=3)
        dl.append_first(a)
        dl.append_second(b)
        dl.append_first(c)
        assert list(dl) == [a, c, b]
        assert len(dl) == 3

    def test_promote_second(self):
        dl = DisplayList()
        a, b, c = make_entry(layer=1), make_entry(layer=2), make_entry(layer=3)
        dl.append_first(a)
        dl.append_second(b)
        dl.promote_second()
        dl.append_first(c)
        assert list(dl) == [a, b, c]
        assert not dl.second


class TestSignatureBuffer:
    def test_first_frame_never_matches(self):
        sb = SignatureBuffer(2)
        sb.update(0, 123)
        assert not sb.matches_previous(0)

    def test_identical_frames_match(self):
        sb = SignatureBuffer(2)
        sb.update(0, 123)
        sb.rotate_frame()
        sb.update(0, 123)
        assert sb.matches_previous(0)

    def test_different_primitive_set_differs(self):
        sb = SignatureBuffer(2)
        sb.update(0, 123)
        sb.rotate_frame()
        sb.update(0, 124)
        assert not sb.matches_previous(0)

    def test_order_sensitivity(self):
        a = combine_signature(combine_signature(0, 1), 2)
        b = combine_signature(combine_signature(0, 2), 1)
        assert a != b

    def test_empty_tile_matches_empty_tile(self):
        sb = SignatureBuffer(1)
        sb.rotate_frame()
        assert sb.matches_previous(0)  # empty == empty after first frame

    def test_primitive_signature_tracks_every_field(self):
        base = make_primitive()
        v0, v1, v2 = base.xy
        attributes = base.attributes[0]
        changed = [
            dataclasses.replace(base, xy=(Vec2(0.5, 0), v1, v2)),
            dataclasses.replace(base, xy=(v0, Vec2(4, 0.5), v2)),
            dataclasses.replace(base, z=(0.5, 0.5, 0.25)),
            dataclasses.replace(base, attributes=(
                attributes.with_color(Vec4(1.0, 1.0, 0.5, 1.0)),
                attributes, attributes)),
            dataclasses.replace(base, attributes=(
                attributes, dataclasses.replace(attributes, uv=Vec2(0, 1)),
                attributes)),
            dataclasses.replace(base, state=RenderState.opaque_3d()),
        ]
        crcs = {primitive_signature(p) for p in [base] + changed}
        assert len(crcs) == len(changed) + 1

    def test_primitive_signature_pin(self):
        # The RE encoding of one assembled triangle may never drift: the
        # value is the CRC32 the encoding had when assembly packed it.
        state = RenderState.translucent_3d()
        triangle = Triangle(
            Vertex(Vec3(-0.3, 0.2, 0.1),
                   VertexAttributes(color=Vec4(1.0, 0.25, 0.0, 0.5),
                                    uv=Vec2(0.0, 1.0))),
            Vertex(Vec3(0.7, -0.1, 0.5),
                   VertexAttributes(color=Vec4(0.2, 0.4, 0.6, 0.5),
                                    uv=Vec2(1.0, 0.5),
                                    normal=Vec3(0.0, 1.0, 0.0))),
            Vertex(Vec3(0.1, 0.9, -0.25),
                   VertexAttributes(color=Vec4(0.0, 0.0, 1.0, 0.5),
                                    uv=Vec2(0.5, 0.0))),
        )
        (screen,) = reference.assemble(
            DrawCommand([triangle], state=state, label="pin"), 0,
            Mat4.identity(), viewport(64, 48))
        assert primitive_signature(screen) == 0x404297FB

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_screen_triangle(), min_size=1, max_size=5))
    def test_scalar_and_array_encoders_agree(self, primitives):
        """The RE and DSR encoders over a primitive table equal the
        scalar ones over each ``ScreenTriangle``."""
        table = table_of(primitives)
        crcs = primitive_signatures(table)
        assert crcs.dtype == np.uint32
        assert crcs.tolist() == [primitive_signature(p) for p in primitives]
        coarse = dsr_signatures(table)
        assert coarse.dtype == np.uint32
        assert coarse.tolist() == [dsr_signature(p) for p in primitives]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_attribute_encodes_alike(self, value):
        """A non-finite attribute packs to the same float32 bits (RE),
        and fails DSR's integer quantization with the same error, on
        either encoder."""
        primitive = dataclasses.replace(
            make_primitive(),
            attributes=(VertexAttributes(color=Vec4(value, 0.5, 0.5, 1.0)),)
            * 3)
        table = table_of([primitive])
        assert primitive_signatures(table).tolist() == [
            primitive_signature(primitive)]
        with pytest.raises(Exception) as scalar:
            dsr_signature(primitive)
        with pytest.raises(type(scalar.value)) as array:
            dsr_signatures(table)
        assert str(array.value) == str(scalar.value)

    def test_dsr_quantization_beyond_int32_fails_alike(self):
        """Both DSR encoders raise the same typed error, naming the
        command and the primitive's index among its survivors, for the
        first value outside ``<i``; ``-2**31`` itself still fits."""
        def wide(x, command_id, primitive_id):
            return dataclasses.replace(
                make_primitive(command_id), primitive_id=primitive_id,
                xy=(Vec2(0.0, 0.0), Vec2(x, 0.0), Vec2(0.0, 4.0)))

        states = [RenderState.sprite_2d()] * 3
        fitting = [wide(0.0, 0, 0), wide(-2.0 ** 31, 2, 0),
                   wide(2.0 ** 31 - 1, 2, 1)]
        assert dsr_signatures(reference_table(fitting, states)).tolist() \
            == [dsr_signature(primitive) for primitive in fitting]
        for x in (4e9, 2.0 ** 31, -2.0 ** 31 - 1):
            primitives = fitting[:2] + [wide(x, 2, 1)]
            with pytest.raises(PipelineError) as scalar:
                dsr_signature(primitives[2])
            with pytest.raises(PipelineError) as array:
                dsr_signatures(reference_table(primitives, states))
            assert str(array.value) == str(scalar.value) == (
                "draw command 2: surviving triangle 1 has a window "
                "coordinate or attribute beyond the DSR signature's int32 "
                "range")

    def test_incremental_equals_batch(self):
        crcs = [11, 22, 33]
        incremental = 0
        for crc in crcs:
            incremental = combine_signature(incremental, crc)
        batch = combine_signature(
            combine_signature(combine_signature(0, 11), 22), 33
        )
        assert incremental == batch


    def test_update_many_matches_update(self):
        one_by_one, at_once = SignatureBuffer(3), SignatureBuffer(3)
        for buffer in (one_by_one, at_once):
            buffer.update(0, 7)
            buffer.poison(2)
        pairs = [(0, 11), (0, 0xFFFFFFFF), (1, 5), (2, 9), (2, 10)]
        for tile, crc in pairs:
            one_by_one.update(tile, crc)
        at_once.update_many(np.array([tile for tile, _ in pairs]),
                            np.array([crc for _, crc in pairs],
                                     dtype=np.uint32))
        assert ([one_by_one.current_signature(t) for t in range(3)]
                == [at_once.current_signature(t) for t in range(3)])
        assert at_once.current_signature(2) is None   # poisoned stays so
        assert one_by_one.updates == at_once.updates == 6


class TestLayerGeneratorTable:
    def test_first_command_opens_layer_one(self):
        lgt = LayerGeneratorTable(4)
        assert lgt.assign_layer(0, command_id=0, is_woz=False) == 1

    def test_same_command_same_layer(self):
        lgt = LayerGeneratorTable(4)
        first = lgt.assign_layer(0, 0, False)
        second = lgt.assign_layer(0, 0, False)
        assert first == second == 1

    def test_new_nwoz_command_increments(self):
        lgt = LayerGeneratorTable(4)
        lgt.assign_layer(0, 0, False)
        assert lgt.assign_layer(0, 1, False) == 2

    def test_consecutive_woz_commands_share_layer(self):
        lgt = LayerGeneratorTable(4)
        lgt.assign_layer(0, 0, False)          # NWOZ -> 1
        first_woz = lgt.assign_layer(0, 1, True)   # WOZ -> 2
        second_woz = lgt.assign_layer(0, 2, True)  # WOZ batch -> still 2
        assert first_woz == second_woz == 2

    def test_woz_after_nwoz_increments(self):
        lgt = LayerGeneratorTable(4)
        lgt.assign_layer(0, 0, True)    # WOZ -> 1
        lgt.assign_layer(0, 1, False)   # NWOZ -> 2
        assert lgt.assign_layer(0, 2, True) == 3  # WOZ after NWOZ -> 3

    def test_layers_independent_per_tile(self):
        lgt = LayerGeneratorTable(4)
        lgt.assign_layer(0, 0, False)
        lgt.assign_layer(0, 1, False)
        assert lgt.assign_layer(1, 1, False) == 1  # tile 1 untouched before

    def test_reset(self):
        lgt = LayerGeneratorTable(4)
        lgt.assign_layer(0, 0, False)
        lgt.reset()
        assert lgt.assign_layer(0, 5, False) == 1
        assert lgt.current_layer(1) == 0

    @given(st.lists(st.tuples(st.booleans(),
                              st.sets(st.integers(0, 3), min_size=1)),
                    min_size=1, max_size=12))
    def test_assign_layers_matches_calls_from_any_state(self, commands):
        """Two frames' worth of (tile, command, WOZ) pairs, the second
        without a reset, so it starts from every kind of entry state."""
        one_by_one, at_once = LayerGeneratorTable(4), LayerGeneratorTable(4)
        for _ in range(2):
            pairs = [(tile, command, woz)
                     for command, (woz, tiles) in enumerate(commands)
                     for tile in sorted(tiles)]
            expected = {}
            for tile, command, woz in pairs:
                expected.setdefault(tile, []).append(
                    one_by_one.assign_layer(tile, command, woz))
            pairs.sort(key=lambda pair: pair[0])     # arrival order
            layers = at_once.assign_layers(
                *(np.array(column) for column in zip(*pairs)))
            actual = {}
            for (tile, _, _), layer in zip(pairs, layers.tolist()):
                actual.setdefault(tile, []).append(layer)
            assert actual == expected
            assert at_once.accesses == one_by_one.accesses
            assert vars(at_once) == vars(one_by_one)

    def test_access_counter(self):
        lgt = LayerGeneratorTable(4)
        lgt.assign_layer(0, 0, False)
        lgt.assign_layer(1, 0, False)
        assert lgt.accesses == 2


class TestFVPTable:
    def test_initially_empty(self):
        table = FVPTable(4)
        assert table.lookup(0) is None
        assert table.lookups == 1

    def test_update_and_lookup(self):
        table = FVPTable(4)
        entry = FVPEntry(FVPType.WOZ, 0.75)
        table.update(2, entry)
        assert table.lookup(2) == entry
        assert table.lookup(1) is None
        assert table.updates == 1

    def test_lookup_many_columns(self):
        table = FVPTable(3)
        table.update(0, FVPEntry(FVPType.WOZ, 0.75))
        table.update(2, FVPEntry(FVPType.NWOZ, 3))
        kinds, values = table.lookup_many(np.array([2, 1, 0, 0]))
        assert kinds.tolist() == [KIND_NWOZ, KIND_EMPTY, KIND_WOZ, KIND_WOZ]
        assert values[[0, 2]].tolist() == [3.0, 0.75]
        assert table.lookups == 4
        table.invalidate()
        assert table.lookup_many(np.array([0, 2]))[0].tolist() == [
            KIND_EMPTY, KIND_EMPTY]

    def test_invalidate(self):
        table = FVPTable(4)
        table.update(0, FVPEntry(FVPType.NWOZ, 3))
        table.invalidate()
        assert table.lookup(0) is None
