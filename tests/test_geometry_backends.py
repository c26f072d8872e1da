"""Cross-backend bit-identity of the geometry phase.

The scalar ``assemble`` in :mod:`repro.kernels.reference` and the
per-pair Polygon List Builder loop define the geometry semantics; the
numpy backend's frame-wide ``assemble_frame`` (its only geometry entry
point) and array builder must reproduce them bit for bit.  Random
frames of WOZ, NWOZ and translucent commands (with per-command
view/projection overrides, degenerate and back-facing triangles and
vertices behind the camera) are rendered under every registered
technique plus the prediction ablations, and after each frame's
geometry phase the suite compares every column of the primitive table
and of the display lists (bit patterns; the scalar path's table is
``primitive_table`` of its ``ScreenTriangle`` survivors), the tile
signatures, ``FrameStats``, the hook objects' own counters and the
recorded memory-op sequence.  The ``assemble`` fuzz also checks that
every window coordinate of the reference's survivors is a Python
``float``, as its contract promises.
Directed tests pin the rejection and culling rules, the
``primitive_id`` numbering, layers, Algorithm 1 and the filtered
signature under seeded FVPs, far off-screen spans and the
non-finite-vertex errors, in clip and in window space.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    BlendMode,
    DrawCommand,
    Frame,
    GPU,
    GPUConfig,
    PipelineError,
    RenderState,
)
from repro.geom import Triangle, Vertex, VertexAttributes
from repro.geom.triangle import tile_span, tile_spans
from repro.hw import FVPEntry, FVPType
from repro.hw.signature_buffer import combine_signature, primitive_signature
from repro.kernels import available_backends, batched, reference
from repro.kernels.api import FLOAT32_OVERFLOW, primitive_table
from repro.math3d import (
    Mat4,
    Vec2,
    Vec3,
    Vec4,
    look_at,
    mat4_array,
    mat4_products,
    orthographic,
    perspective,
    rotate_x,
    rotate_y,
    translate,
    viewport,
)
from repro.memsys import MemorySystem
from repro.pipeline.geometry import GeometryPipeline
from repro.techniques.registry import resolve_features, technique_names

from tests.strategies import EDGE_FLOATS, edge_floats

WIDTH, HEIGHT = 64, 48
CONFIG = GPUConfig(screen_width=WIDTH, screen_height=HEIGHT, frames=3)
VIEWPORT = viewport(WIDTH, HEIGHT)
ORTHO = orthographic(0.0, float(WIDTH), float(HEIGHT), 0.0, -1.0, 1.0)
#: An oblique camera: every view row mixes x, y and z, so the fuzzed
#: transforms exercise the association order of every sum.
CAMERA = look_at(Vec3(2.0, 3.0, 5.0), Vec3(0.0, 0.0, 0.0),
                 Vec3(0.0, 1.0, 0.0))
PERSPECTIVE = perspective(math.radians(60.0), WIDTH / HEIGHT, 0.5, 50.0)

_EVR = resolve_features("evr")
#: Every registered technique plus the geometry-side ablations (the
#: prediction point, the FVP history and the sub-tile predictor are
#: read by the Polygon List Builder).
FEATURE_SETS = {
    **{name: resolve_features(name) for name in technique_names()},
    "evr-centroid": dataclasses.replace(_EVR, prediction_point="centroid"),
    "evr-far": dataclasses.replace(_EVR, prediction_point="far"),
    "evr-history2": dataclasses.replace(_EVR, fvp_history=2),
    "evr-subtile": dataclasses.replace(_EVR, subtile_fvp=True),
}


class _RecordingMemory(MemorySystem):
    """The scalar memory system, recording the geometry-side op stream."""

    def __init__(self, config):
        super().__init__(config)
        self.ops = []

    def fetch_vertex_range(self, start, count, vertex_bytes=48):
        self.ops.append(("vertex_range", start, count, vertex_bytes))
        super().fetch_vertex_range(start, count, vertex_bytes)

    def parameter_buffer_write(self, offset, size):
        self.ops.append(("pb_write", offset, size))
        super().parameter_buffer_write(offset, size)


def _table_key(table):
    """Every primitive-table column, arrays as dtype, shape and bytes."""
    return tuple((value.dtype.str, value.shape, value.tobytes())
                 if isinstance(value, np.ndarray) else value
                 for value in table)


class _Entry(NamedTuple):
    """A display-list entry with its primitive's table row (floats as
    bit patterns)."""

    command: int
    primitive_id: int      # index among its command's survivors
    window: bytes
    attributes: bytes
    state: RenderState
    offset: int
    layer: int
    predicted: bool
    pointer: int


def _display_lists(parameter_buffer):
    """Every tile's first and second list, entry by entry."""
    table = parameter_buffer.primitives
    lists = parameter_buffer.lists
    command = table.command
    primitive_id = np.arange(len(command)) - np.searchsorted(command,
                                                             command)

    def entry(index):
        row = lists.row[index]
        return _Entry(int(command[row]), int(primitive_id[row]),
                      table.window[row].tobytes(),
                      table.attributes[row].tobytes(),
                      table.states[table.state[row]],
                      int(lists.offset[index]), int(lists.layer[index]),
                      bool(lists.predicted[index]),
                      int(lists.pointer[index]))

    return tuple(
        (tile, tuple(map(entry, range(start, split))),
         tuple(map(entry, range(split, stop))))
        for tile, (start, split, stop) in enumerate(zip(
            lists.start[:-1].tolist(), lists.split.tolist(),
            lists.start[1:].tolist())))


def _hook_counters(gpu):
    """The counters the hook objects keep themselves, which the numpy
    path's array methods update in bulk."""
    predictor = gpu.predictor
    return (
        None if gpu.lgt is None else gpu.lgt.accesses,
        None if predictor is None else (
            dataclasses.astuple(predictor.stats),
            # The sub-tile predictor counts its own lookups.
            getattr(predictor, "table", predictor).lookups),
        None if gpu.re is None else (
            dataclasses.astuple(gpu.re.stats),
            gpu.re.signature_buffer.updates),
        None if gpu.dsr is None else gpu.dsr.signatures.updates,
        gpu.parameter_buffer.stored_primitives,
    )


def _geometry_snapshot(gpu, stats):
    """Display lists, tile signatures, counters and memory ops as the
    geometry phase left them (taken when the raster phase starts)."""
    lists = _display_lists(gpu.parameter_buffer)
    columns = (_table_key(gpu.parameter_buffer.primitives),
               _table_key(gpu.parameter_buffer.lists))
    signatures = None
    if gpu.re is not None:
        signatures = tuple(gpu.re.signature_buffer.current_signature(tile)
                           for tile in range(CONFIG.num_tiles))
    if gpu.dsr is not None:
        signatures = (signatures, tuple(
            gpu.dsr.signatures.current_signature(tile)
            for tile in range(CONFIG.num_tiles)))
    ops = tuple(gpu.memory.ops)
    gpu.memory.ops.clear()
    return (lists, signatures, stats.as_dict(), _hook_counters(gpu), ops,
            columns)


def _render_snapshots(features, frames, backend, seed_fvp=None):
    """Render ``frames`` end to end on ``backend`` (so EVR predicts from
    real FVPs) and return one geometry snapshot per frame.
    ``seed_fvp`` maps tiles to FVP entries stored before the first
    frame."""
    gpu = GPU(CONFIG, features, backend=backend,
              memory_system=_RecordingMemory(CONFIG))
    for tile, entry in (seed_fvp or {}).items():
        gpu.predictor.table.update(tile, entry)
    snapshots = []
    render_raster = gpu.raster.render_frame

    def capture(image, previous_image, stats):
        snapshots.append(_geometry_snapshot(gpu, stats))
        return render_raster(image, previous_image, stats)

    gpu.raster.render_frame = capture
    for frame in frames:
        gpu.render_frame(frame)
    return snapshots


# ---------------------------------------------------------------------------
# Random frames
# ---------------------------------------------------------------------------

#: Coordinates drawn from a small set collide often, which makes
#: zero-area and axis-aligned triangles common; the wide float range
#: puts vertices behind the camera and outside single clip planes.
#: Both signed zeros and subnormals are drawn on purpose.
_COORD = edge_floats(-12.0, 12.0, ties=(-6.0, -1.0, 0.5, 1.0, 4.0))
_PIXEL = edge_floats(-20.0, WIDTH + 20.0, ties=(-8.0, 16.0, 32.0, 70.0))
#: Screen-space depths: exact ties, both zeros, subnormals.
_SCREEN_Z = edge_floats(-0.5, 0.25, ties=(0.0,))
#: Colour and texture channels: both zeros, subnormals, exact ties.
_CHANNEL = edge_floats(-1.0, 1.0, ties=(0.2, 0.6))


@st.composite
def _vertex(draw, screen_space):
    if screen_space:
        position = Vec3(draw(_PIXEL), draw(_PIXEL), draw(_SCREEN_Z))
    else:
        position = Vec3(draw(_COORD), draw(_COORD), draw(_COORD))
    color = Vec4(draw(_CHANNEL), 0.5, draw(_CHANNEL),
                 draw(st.sampled_from([0.45, 1.0])))
    return Vertex(position, VertexAttributes(color=color,
                                             uv=Vec2(draw(_CHANNEL), 0.5)))


@st.composite
def _command(draw, label):
    kind = draw(st.sampled_from(["woz", "nwoz", "translucent"]))
    if kind == "woz":
        state = RenderState.opaque_3d(cull_backface=draw(st.booleans()))
    elif kind == "translucent":
        state = RenderState.translucent_3d()
    else:
        state = RenderState.sprite_2d(
            blend=draw(st.sampled_from([BlendMode.OPAQUE, BlendMode.ALPHA])))
    override = draw(st.sampled_from(["frame", "screen", "projection"]))
    screen_space = override == "screen"
    triangles = [
        Triangle(*(draw(_vertex(screen_space)) for _ in range(3)))
        for _ in range(draw(st.integers(min_value=1, max_value=6)))
    ]
    model = Mat4.identity()
    if not screen_space and draw(st.booleans()):
        angle = st.floats(min_value=-3.0, max_value=3.0)
        model = (translate(Vec3(draw(_COORD), draw(_COORD), draw(_COORD)))
                 @ rotate_y(draw(angle)) @ rotate_x(draw(angle)))
    view = projection = None
    if screen_space:
        view, projection = Mat4.identity(), ORTHO
    elif override == "projection":
        projection = perspective(math.radians(40.0), 1.0, 0.25, 30.0)
    return DrawCommand(triangles, model=model, state=state, label=label,
                       view=view, projection=projection)


@st.composite
def _frames(draw):
    commands = [draw(_command(f"c{index}"))
                for index in range(draw(st.integers(min_value=1,
                                                    max_value=8)))]
    # The same commands every frame, the first one moving: frame 1 and
    # later predict from real FVPs and compare real signatures.
    frames = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        moved = dataclasses.replace(
            commands[0],
            model=translate(Vec3(0.25 * index, 0.0, 0.0)) @ commands[0].model)
        frames.append(Frame([moved] + commands[1:], view=CAMERA,
                            projection=PERSPECTIVE, index=index))
    return frames


class TestFuzzBitIdentity:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(frames=_frames(),
           feature_name=st.sampled_from(sorted(FEATURE_SETS)))
    def test_geometry_phase_matches(self, frames, feature_name):
        features = FEATURE_SETS[feature_name]
        scalar = _render_snapshots(features, frames, "python")
        batched = _render_snapshots(features, frames, "numpy")
        assert len(scalar) == len(batched) == len(frames)
        for frame_index, (expected, actual) in enumerate(zip(scalar,
                                                             batched)):
            assert actual == expected, f"frame {frame_index} diverged"

    @settings(max_examples=60, deadline=None)
    @given(command=_command("fuzz"),
           mvp=st.sampled_from(["identity", "perspective", "ortho"]))
    def test_assemble_matches(self, command, mvp):
        matrix = {"identity": Mat4.identity(),
                  "perspective": PERSPECTIVE @ CAMERA @ command.model,
                  "ortho": ORTHO}[mvp]
        results = [_table_key(_table(name, command, matrix))
                   for name in ("python", "numpy")]
        assert results[0] == results[1]


# ---------------------------------------------------------------------------
# Directed cases
# ---------------------------------------------------------------------------

def _tri(*points, alpha=1.0):
    return Triangle(*(Vertex(Vec3(*point),
                             VertexAttributes(color=Vec4(1.0, 0.5, 0.0,
                                                         alpha)))
                      for point in points))


#: A projection whose clip ``w`` is the vertex's z (and x, y pass
#: through), so a test can place a vertex exactly at any ``w``.
_W_IS_Z = Mat4.from_rows((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                         (0.0, 0.0, 0.0, 0.5), (0.0, 0.0, 1.0, 0.0))


def _assemble(command, mvp):
    """The reference's survivors of ``command`` as command 0, asserting
    ``assemble``'s promise that every window coordinate is a Python
    ``float`` (the table's float64 columns would hide an ``int``)."""
    survivors = reference.assemble(command, 0, mvp, VIEWPORT)
    for triangle in survivors:
        for value in (*(c for p in triangle.xy for c in (p.x, p.y)),
                      *triangle.z):
            assert type(value) is float, (type(value), value)
    return survivors


def _table(backend, command, mvp):
    """``command``'s primitive table as command 0, through ``backend``'s
    geometry entry point: ``primitive_table`` of the reference's
    per-command ``assemble``, or numpy's ``assemble_frame`` of a
    one-command frame."""
    if backend == "python":
        return primitive_table(_assemble(command, mvp), [command.state])
    return batched.assemble_frame(
        [command], np.array(mvp.m).reshape(1, 4, 4), VIEWPORT)


def _assemble_both(command, mvp):
    """The reference's survivors, asserting that every backend's table
    of them agrees bit for bit."""
    keys = {name: _table_key(_table(name, command, mvp))
            for name in available_backends()}
    assert keys["numpy"] == keys["python"]
    return _assemble(command, mvp)


def _command_of(*triangles, cull_backface=False, label="directed"):
    return DrawCommand(list(triangles),
                       state=RenderState.opaque_3d(
                           cull_backface=cull_backface),
                       label=label)


class TestDirectedCases:
    def test_vertex_at_w_epsilon_is_rejected(self):
        inside = (0.0, 0.0, 1.0), (0.5, 0.0, 1.0), (0.0, 0.5, 1.0)
        at_epsilon = (0.0, 0.0, 1e-6), (0.5, 0.0, 1.0), (0.0, 0.5, 1.0)
        below = (0.0, 0.0, -1.0), (0.5, 0.0, 1.0), (0.0, 0.5, 1.0)
        survivors = _assemble_both(
            _command_of(_tri(*inside), _tri(*at_epsilon), _tri(*below)),
            _W_IS_Z)
        assert len(survivors) == 1

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_outside_exactly_one_plane(self, axis, sign):
        def point(offset, spread):
            coords = [0.1 * spread, 0.1 * spread * spread, 0.0]
            coords[axis] = sign * (1.5 + offset)
            return tuple(coords)
        outside = _tri(point(0.0, 1), point(0.5, 2), point(1.0, 3))
        # The same triangle with one vertex pulled back inside the
        # volume straddles the plane and survives.
        straddling = _tri(point(0.0, 1), point(0.5, 2),
                          tuple(0.0 if i == axis else c
                                for i, c in enumerate(point(1.0, 3))))
        survivors = _assemble_both(_command_of(outside, straddling),
                                   Mat4.identity())
        assert len(survivors) == 1
        assert survivors[0].primitive_id == 0

    def test_zero_area_is_culled_either_way(self):
        collinear = _tri((0.0, 0.0, 0.0), (0.25, 0.25, 0.0),
                         (0.5, 0.5, 0.0))
        repeated = _tri((0.3, 0.1, 0.0), (0.3, 0.1, 0.0), (0.0, 0.4, 0.0))
        for cull in (False, True):
            assert _assemble_both(
                _command_of(collinear, repeated, cull_backface=cull),
                Mat4.identity()) == []

    @pytest.mark.parametrize("technique", technique_names())
    def test_frame_with_no_survivors(self, technique):
        """An empty primitive table bins, signs and renders (to the
        clear colour) alike on both backends."""
        collinear = _tri((0.0, 0.0, 0.0), (0.25, 0.25, 0.0),
                         (0.5, 0.5, 0.0))
        frame = Frame([_command_of(collinear)], projection=ORTHO)
        snapshots = [_render_snapshots(resolve_features(technique),
                                       [frame], backend)
                     for backend in available_backends()]
        assert snapshots[0] == snapshots[1]

    def test_back_facing_culled_only_when_enabled(self):
        front = _tri((0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.0, 0.5, 0.0))
        back = _tri((0.0, 0.0, 0.0), (0.0, 0.5, 0.0), (0.5, 0.0, 0.0))
        kept = _assemble_both(_command_of(front, back, cull_backface=False),
                              Mat4.identity())
        assert len(kept) == 2
        culled = _assemble_both(_command_of(front, back, cull_backface=True),
                                Mat4.identity())
        assert len(culled) == 1
        assert culled[0].signed_area() < 0.0

    def test_depth_clamped_to_unit_range(self):
        # Depth outside [0, 1] after the viewport is clamped, not culled.
        near = _tri((0.0, 0.0, -0.99), (0.5, 0.0, 0.99), (0.0, 0.5, 0.0))
        clamp = Mat4.from_rows((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                               (0.0, 0.0, 2.0, 0.0), (0.0, 0.0, 0.0, 1.0))
        (survivor,) = _assemble_both(_command_of(near), clamp)
        assert survivor.z[0] == 0.0 and survivor.z[1] == 1.0
        assert all(type(z) is float for z in survivor.z)


#: Matrix entries where a batched product could part from ``Mat4``'s:
#: signed zeros, subnormals, infinities (``inf * 0`` is NaN), NaNs of
#: both signs, overflow to infinity and ordinary values.
_MATRIX_ENTRY = st.one_of(
    st.sampled_from(EDGE_FLOATS + (
        math.inf, -math.inf, math.nan, -math.nan, 1.0, -1.0, 0.5,
        1e308, -1e308)),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
_MATRIX = st.lists(_MATRIX_ENTRY, min_size=16, max_size=16).map(
    lambda values: Mat4(tuple(values)))


class TestMVPProducts:
    """The numpy path multiplies a frame's MVPs in one array pass
    (``mat4_products``); every entry must carry the bits of the
    ``Mat4`` product the python path computes per command."""

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(_MATRIX, _MATRIX), max_size=6))
    def test_bits_match_mat4_products(self, pairs):
        left = mat4_array(a for a, _ in pairs)
        right = mat4_array(b for _, b in pairs)
        expected = mat4_array(a @ b for a, b in pairs)
        assert mat4_products(left, right).tobytes() == expected.tobytes()

    def test_frame_mvps_follow_command_overrides(self):
        """A command with its own view or projection gets its own
        ``projection @ view``; the rest share the frame's."""
        own_view = look_at(Vec3(1.0, 2.0, 5.0), Vec3(0.0, 0.0, 0.0),
                           Vec3(0.0, 1.0, 0.0))
        triangle = _tri((0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.0, 0.5, 0.0))
        commands = [
            dataclasses.replace(_command_of(triangle),
                                model=rotate_y(0.3)),
            dataclasses.replace(_command_of(triangle), view=own_view),
            dataclasses.replace(_command_of(triangle), projection=ORTHO,
                                model=translate(Vec3(0.1, 0.2, 0.3))),
        ]
        frame = Frame(commands, projection=perspective(1.0, 1.3, 0.1,
                                                       50.0),
                      view=rotate_x(0.2))
        mvps = mat4_products(
            mat4_array(GeometryPipeline._view_projection(frame, command, {})
                      for command in commands),
            mat4_array(command.model for command in commands))
        expected = mat4_array(GeometryPipeline._mvp(frame, command, {})
                             for command in commands)
        assert mvps.tobytes() == expected.tobytes()


class TestPrimitiveIdRule:
    """``primitive_id`` indexes the command's *surviving* triangles and
    restarts at 0 for every command."""

    def test_ids_skip_culled_triangles(self):
        good = [_tri((0.1 * i, 0.0, 0.0), (0.1 * i + 0.3, 0.0, 0.0),
                     (0.1 * i, 0.3, 0.0)) for i in range(3)]
        degenerate = _tri((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.1, 0.1, 0.0))
        survivors = _assemble_both(
            _command_of(good[0], degenerate, good[1], good[2]),
            Mat4.identity())
        assert [t.primitive_id for t in survivors] == [0, 1, 2]
        assert survivors[1].xy == _assemble_both(
            _command_of(good[1]), Mat4.identity())[0].xy

    @pytest.mark.parametrize("backend", available_backends())
    def test_ids_restart_per_command_in_display_lists(self, backend):
        quad_tris = [
            _tri((2.0, 2.0, 0.0), (30.0, 2.0, 0.0), (2.0, 30.0, 0.0)),
            _tri((30.0, 2.0, 0.0), (30.0, 30.0, 0.0), (2.0, 30.0, 0.0)),
        ]
        hidden = _tri((-9.0, -9.0, 0.0), (-5.0, -9.0, 0.0), (-9.0, -5.0, 0.0))
        commands = [
            DrawCommand([hidden] + quad_tris, state=RenderState.sprite_2d(),
                        label="first"),
            DrawCommand(quad_tris, state=RenderState.sprite_2d(),
                        label="second"),
        ]
        snapshot = _render_snapshots(
            resolve_features("baseline"),
            [Frame(commands, projection=ORTHO)], backend)[0]
        ids = {}
        for _, first, second in snapshot[0]:
            for entry in first + second:
                ids.setdefault(entry.command, set()).add(entry.primitive_id)
        assert ids == {0: {0, 1}, 1: {0, 1}}


class TestFrameBinning:
    """Directed frames for the numpy backend's frame-wide Polygon List
    Builder, each checked against the scalar builder and pinned."""

    #: WOZ, WOZ, NWOZ, WOZ, NWOZ and WOZ commands, one triangle each,
    #: all covering tiles 0 and 1; the object z of the WOZ ones puts
    #: them at window depths 0.7, 0.3, 0.8 and 0.9.
    SEQUENCE = (("woz", -0.4), ("woz", 0.4), ("nwoz", 0.0),
                ("woz", -0.6), ("nwoz", 0.0), ("woz", -0.8))

    def _sequence_frame(self):
        commands = []
        for index, (kind, z) in enumerate(self.SEQUENCE):
            state = (RenderState.opaque_3d(cull_backface=False)
                     if kind == "woz" else RenderState.sprite_2d())
            commands.append(DrawCommand(
                [_tri((2.0, 2.0, z), (30.0, 2.0, z), (2.0, 12.0, z))],
                state=state, label=f"c{index}"))
        return Frame(commands, projection=ORTHO)

    def _snapshots(self, features, frame, seed_fvp=None):
        """The frame's geometry snapshot, equal on every backend."""
        snapshots = [_render_snapshots(features, [frame], backend,
                                       seed_fvp)[0]
                     for backend in available_backends()]
        assert all(snapshot == snapshots[0] for snapshot in snapshots)
        return snapshots[0]

    def test_layers_reorder_and_filtered_signature(self):
        # Tile 0 predicts from a Z_far of 0.5 (WOZ-type FVP), tile 1 from
        # an L_far of 3 (NWOZ-type FVP).
        lists, signatures = self._snapshots(
            resolve_features("evr"), self._sequence_frame(),
            seed_fvp={0: FVPEntry(FVPType.WOZ, 0.5),
                      1: FVPEntry(FVPType.NWOZ, 3)})[:2]
        by_tile = {tile: (first, second) for tile, first, second in lists}

        def described(entries):
            # (command, layer, predicted occluded) per entry
            return [(entry.command, entry.layer, entry.predicted)
                    for entry in entries]

        # Layers 1, 1, 2, 3, 4, 5: the two leading WOZ commands share
        # one.  In tile 0 the WOZ primitives behind Z_far are predicted
        # occluded; each NWOZ one folds the second list back, so only
        # the last WOZ primitive stays there.
        first, second = by_tile[0]
        assert described(first) == [(1, 1, False), (0, 1, True),
                                    (2, 2, False), (3, 3, True),
                                    (4, 4, False)]
        assert described(second) == [(5, 5, True)]
        # In tile 1 every layer below L_far is predicted occluded, NWOZ
        # included, and the NWOZ primitive restores submission order.
        first, second = by_tile[1]
        assert described(first) == [(0, 1, True), (1, 1, True),
                                    (2, 2, True), (3, 3, False),
                                    (4, 4, False), (5, 5, False)]
        assert second == ()

        # The filtered signature folds only the pairs predicted visible,
        # in binning order.  Each command's one primitive, as the
        # scalar pipeline assembles it:
        frame = self._sequence_frame()
        mvp = GPU(CONFIG, "baseline", backend="python").geometry._mvp
        crcs = {}
        for command_id, command in enumerate(frame.commands):
            (triangle,) = reference.assemble(
                command, command_id, mvp(frame, command, {}), VIEWPORT)
            crcs[command_id] = primitive_signature(triangle)
        for tile, visible in ((0, (1, 2, 4)), (1, (3, 4, 5))):
            expected = 0
            for command in visible:
                expected = combine_signature(expected, crcs[command])
            assert signatures[tile] == expected
        assert set(signatures[2:]) == {0}

    def test_span_far_off_screen(self):
        # v0 sits at w = 1e-5, so its window x is 3.2e21: beyond int64.
        # The scalar span truncates it with ``int()``; the array span
        # must clip before its int64 cast or the triangle would vanish.
        triangle = _tri((1e15, 0.0, 1e-5), (-0.375, 7.0 / 12.0, 1.0),
                        (0.25, -0.25, 1.0))
        frame = Frame([DrawCommand([triangle], state=RenderState.sprite_2d(),
                                   label="far", view=Mat4.identity(),
                                   projection=_W_IS_Z)])
        lists = self._snapshots(resolve_features("baseline"), frame)[0]
        # x-tiles 1-3 on tile rows 0 and 1 (tiles_x = 4)
        assert [tile for tile, first, _ in lists if first] == [1, 2, 3,
                                                               5, 6, 7]
        bbox = (20.0, 10.0, 3.2e21, 30.0)
        assert tuple(tile_spans(np.array([bbox]), 16, 16, 4, 3)[0]) == \
            tile_span(bbox, 16, 16, 4, 3) == (1, 0, 3, 1)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_window_overflow_raises_pipeline_error(self, position):
        # Finite in clip space (x 1e303 at w 1e-5), infinite in window
        # space: the triangle survives and cannot be binned.
        points = [(-0.375, 0.5, 1.0), (0.25, -0.25, 1.0)]
        points.insert(position, (1e303, 0.0, 1e-5))
        frame = Frame([
            DrawCommand([_tri((2.0, 2.0, 0.0), (20.0, 2.0, 0.0),
                              (2.0, 20.0, 0.0))],
                        state=RenderState.sprite_2d(), label="ok",
                        projection=ORTHO),
            DrawCommand([_tri((2.0, 2.0, 0.0), (20.0, 2.0, 0.0),
                              (2.0, 20.0, 0.0)), _tri(*points)],
                        state=RenderState.sprite_2d(), label="overflow",
                        view=Mat4.identity(), projection=_W_IS_Z)])
        for backend in available_backends():
            with pytest.raises(PipelineError) as caught:
                GPU(CONFIG, "re", backend=backend).render_frame(frame)
            assert str(caught.value) == (
                "draw command 1 ('overflow'): triangle 1 has a non-finite "
                "window-space vertex"), backend


class TestNonFiniteVertices:
    """A NaN or infinite clip-space coordinate fails loudly — naming the
    command and the triangle — under every backend and technique,
    instead of binning garbage (or, under DSR, a bare ValueError)."""

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("technique", technique_names())
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_raises_pipeline_error(self, backend, technique, bad):
        good = _tri((2.0, 2.0, 0.0), (20.0, 2.0, 0.0), (2.0, 20.0, 0.0))
        broken = _tri((4.0, 4.0, 0.0), (bad, 4.0, 0.0), (4.0, 30.0, 0.0))
        frame = Frame(
            [DrawCommand([good], state=RenderState.sprite_2d(), label="ok"),
             DrawCommand([good, broken], state=RenderState.sprite_2d(),
                         label="broken")],
            projection=ORTHO,
        )
        gpu = GPU(CONFIG, technique, backend=backend)
        with pytest.raises(PipelineError,
                           match=r"draw command 1 \('broken'\): triangle 1 "
                                 r"has a non-finite clip-space vertex"):
            gpu.render_frame(frame)

    def test_same_text_on_both_backends(self):
        good = _tri((2.0, 2.0, 0.0), (20.0, 2.0, 0.0), (2.0, 20.0, 0.0))
        broken = _tri((4.0, 4.0, 0.0), (math.nan, 4.0, 0.0),
                      (4.0, 30.0, 0.0))
        frame = Frame(
            [DrawCommand([good], state=RenderState.opaque_3d(), label="ok"),
             DrawCommand([good, good, broken],
                         state=RenderState.sprite_2d(), label="second")],
            projection=ORTHO,
        )
        messages = []
        for backend in available_backends():
            with pytest.raises(PipelineError) as caught:
                GPU(CONFIG, "evr", backend=backend).render_frame(frame)
            messages.append(str(caught.value))
        assert messages[0] == messages[1] == (
            "draw command 1 ('second'): triangle 2 has a non-finite "
            "clip-space vertex")

    #: One command per fault (between two good ones), in this order.
    @pytest.mark.parametrize("faults, expected", [
        (("clip", "window"),
         "draw command 1 ('clip'): triangle 0 has a non-finite "
         "clip-space vertex"),
        (("window", "clip"),
         "draw command 1 ('window'): triangle 0 has a non-finite "
         "window-space vertex"),
    ], ids=["clip-first", "window-first"])
    def test_first_fault_in_submission_order_wins(self, faults, expected):
        good = _tri((2.0, 2.0, 0.0), (20.0, 2.0, 0.0), (2.0, 20.0, 0.0))
        broken = {
            "clip": _tri((4.0, 4.0, 0.0), (math.nan, 4.0, 0.0),
                         (4.0, 30.0, 0.0)),
            "window": _tri((1e303, 0.0, 1e-5), (-0.375, 0.5, 1.0),
                           (0.25, -0.25, 1.0)),
        }
        commands = [DrawCommand([good], state=RenderState.sprite_2d(),
                                label="ok", projection=ORTHO)]
        for fault in faults:
            commands.append(DrawCommand(
                [broken[fault], good], state=RenderState.sprite_2d(),
                label=fault, view=Mat4.identity(),
                projection=_W_IS_Z if fault == "window" else ORTHO))
        commands.append(commands[0])
        for backend in available_backends():
            with pytest.raises(PipelineError) as caught:
                GPU(CONFIG, "evr", backend=backend).render_frame(
                    Frame(commands))
            assert str(caught.value) == expected, backend

    @pytest.mark.parametrize("backend", available_backends())
    def test_non_finite_matrix(self, backend):
        command = _command_of(
            _tri((0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.0, 0.5, 0.0)),
            label="nan-model")
        matrix = Mat4.from_rows((math.nan, 0.0, 0.0, 0.0),
                                (0.0, 1.0, 0.0, 0.0),
                                (0.0, 0.0, 1.0, 0.0),
                                (0.0, 0.0, 0.0, 1.0))
        with pytest.raises(PipelineError, match="triangle 0"):
            _table(backend, command, matrix)


class TestFloat32Attributes:
    """A surviving triangle with a finite vertex attribute beyond float32
    range — the Parameter Buffer's record format — fails at Primitive
    Assembly with the same typed error on both backends, whether or not
    RE packs signatures; the first fault in submission order wins, and
    within a triangle clip, then window, then attribute."""

    GOOD = _tri((2.0, 2.0, 0.0), (20.0, 2.0, 0.0), (2.0, 20.0, 0.0))

    @staticmethod
    def _colored(red, points=((4.0, 4.0, 0.0), (24.0, 4.0, 0.0),
                              (4.0, 24.0, 0.0))):
        return Triangle(*(Vertex(Vec3(*point),
                                 VertexAttributes(color=Vec4(red, 0.5, 0.5,
                                                             1.0)))
                          for point in points))

    def _messages(self, technique, commands):
        messages = []
        for backend in available_backends():
            with pytest.raises(PipelineError) as caught:
                GPU(CONFIG, technique, backend=backend).render_frame(
                    Frame(commands, projection=ORTHO))
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        return messages[0]

    @pytest.mark.parametrize("technique", ["baseline", "re"])
    @pytest.mark.parametrize("red", [1e39, -1e39, FLOAT32_OVERFLOW])
    def test_one_fault(self, technique, red):
        commands = [
            DrawCommand([self.GOOD], state=RenderState.sprite_2d(),
                        label="ok"),
            DrawCommand([self.GOOD, self._colored(red)],
                        state=RenderState.sprite_2d(), label="big")]
        assert self._messages(technique, commands) == (
            "draw command 1 ('big'): triangle 1 has a vertex attribute "
            "beyond float32 range")

    @pytest.mark.parametrize("technique", ["baseline", "re"])
    def test_attribute_fault_before_a_non_finite_vertex(self, technique):
        broken = _tri((4.0, 4.0, 0.0), (math.nan, 4.0, 0.0),
                      (4.0, 30.0, 0.0))
        commands = [
            DrawCommand([self._colored(1e39)],
                        state=RenderState.sprite_2d(), label="big"),
            DrawCommand([self.GOOD, broken], state=RenderState.sprite_2d(),
                        label="broken")]
        assert self._messages(technique, commands) == (
            "draw command 0 ('big'): triangle 0 has a vertex attribute "
            "beyond float32 range")
        # Swapped, the non-finite vertex comes first.
        assert self._messages(technique, commands[::-1]) == (
            "draw command 0 ('broken'): triangle 1 has a non-finite "
            "clip-space vertex")

    def test_window_fault_wins_within_a_triangle(self):
        triangle = self._colored(1e39, points=(
            (1e303, 0.0, 1e-5), (-0.375, 0.5, 1.0), (0.25, -0.25, 1.0)))
        commands = [DrawCommand([triangle], state=RenderState.sprite_2d(),
                                label="both", view=Mat4.identity(),
                                projection=_W_IS_Z)]
        assert self._messages("re", commands) == (
            "draw command 0 ('both'): triangle 0 has a non-finite "
            "window-space vertex")

    @pytest.mark.parametrize("red", [
        float(np.nextafter(FLOAT32_OVERFLOW, 0.0)), math.inf, math.nan])
    def test_storable_or_non_finite_attributes_render(self, red):
        """Just below the threshold the cast rounds to FLT_MAX; inf and
        NaN are stored as such.  Neither is rejected, as before."""
        frame = Frame([DrawCommand([self._colored(red)],
                                   state=RenderState.sprite_2d(),
                                   label="edge")], projection=ORTHO)
        with np.errstate(invalid="ignore"):
            images = [GPU(CONFIG, "re", backend=backend).render_frame(
                frame).image.tobytes() for backend in available_backends()]
        assert images[0] == images[1]

    def test_culled_triangles_are_not_checked(self):
        # Positive signed area in y-down window space: back-facing.
        back = self._colored(1e39)
        front = self._colored(0.5, points=((4.0, 4.0, 0.0),
                                           (4.0, 24.0, 0.0),
                                           (24.0, 4.0, 0.0)))
        state = RenderState.opaque_3d(cull_backface=True)
        frame = Frame([DrawCommand([front, back], state=state, label="cull")],
                      projection=ORTHO)
        for backend in available_backends():
            GPU(CONFIG, "re", backend=backend).render_frame(frame)


class TestDSRQuantization:
    """Under DSR, a surviving triangle whose quantized window coordinate
    does not fit the coarse signature's ``<i`` fields fails with the same
    typed error on both backends, naming the command and the triangle's
    index among its survivors."""

    WIDE = _tri((0.0, 0.0, 0.0), (4e9, 0.0, 0.0), (0.0, 4.0, 0.0))

    def test_one_fault(self):
        good = TestFloat32Attributes.GOOD
        commands = [
            DrawCommand([good], state=RenderState.sprite_2d(), label="ok"),
            DrawCommand([good, self.WIDE], state=RenderState.sprite_2d(),
                        label="wide")]
        frame = Frame(commands, projection=ORTHO)
        messages = []
        for backend in available_backends():
            with pytest.raises(PipelineError) as caught:
                GPU(CONFIG, "dsr", backend=backend).render_frame(frame)
            messages.append(str(caught.value))
        assert messages == [
            "draw command 1: surviving triangle 1 has a window coordinate "
            "or attribute beyond the DSR signature's int32 range"] * 2
        # Without DSR's signature the frame renders.
        for backend in available_backends():
            GPU(CONFIG, "baseline", backend=backend).render_frame(frame)

    BROKEN = _tri((4.0, 4.0, 0.0), (math.nan, 4.0, 0.0), (4.0, 30.0, 0.0))
    DSR_FAULT = ("draw command {}: surviving triangle 0 has a window "
                 "coordinate or attribute beyond the DSR signature's int32 "
                 "range")
    VERTEX_FAULT = ("draw command {} ('{}'): triangle {} has a non-finite "
                    "clip-space vertex")

    #: Per command its triangles; the error both backends raise under
    #: DSR, and without it.
    @pytest.mark.parametrize("commands, dsr, baseline", [
        # The scalar loop bins command 0 before it assembles command 1,
        # so command 0's encoding error comes first.
        (("WIDE", "BROKEN"), DSR_FAULT.format(0),
         VERTEX_FAULT.format(1, "c1", 0)),
        (("BROKEN", "WIDE"), VERTEX_FAULT.format(0, "c0", 0),
         VERTEX_FAULT.format(0, "c0", 0)),
        # Within a command, assembly comes before binning.
        (("WIDE BROKEN",), VERTEX_FAULT.format(0, "c0", 1),
         VERTEX_FAULT.format(0, "c0", 1)),
    ], ids=["dsr-then-vertex", "vertex-then-dsr", "one-command"])
    def test_dsr_and_vertex_faults(self, commands, dsr, baseline):
        frame = Frame(
            [DrawCommand([getattr(self, name) for name in names.split()],
                         state=RenderState.sprite_2d(), label=f"c{index}")
             for index, names in enumerate(commands)],
            projection=ORTHO)
        for technique, expected in (("dsr", dsr), ("baseline", baseline)):
            for backend in available_backends():
                with pytest.raises(PipelineError) as caught:
                    GPU(CONFIG, technique, backend=backend).render_frame(
                        frame)
                assert str(caught.value) == expected, (technique, backend)
