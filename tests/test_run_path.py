"""Cross-backend bit-identity of the batched range path.

With Early-Z on and none of Hierarchical-Z, DSR, FHV, VR-Pipe or a
Z-prepass, the numpy backend renders a job's whole range of tiles in one
array pass (``kernels.batched.resolve_range``) instead of one
``_render_primitive`` call per entry; the python backend keeps the
per-entry loop, tile by tile, and is the oracle.  Random display lists
mix Z-writers, depth-tested non-writers, untested opaque sprites,
blended entries and dead entries whose bounding box reaches the tile but
whose triangle covers no pixel centre, with signed zeros, subnormals and
exact depth ties in every float.  Each list runs as a ``TileJob`` under
all 11 techniques on both backends and the ``TileResult``s must match
field by field; jobs over several tiles and whole frames, cut into
ranges anywhere, are compared too.  Directed cases pin one-entry runs,
an all-dead run, a non-writer between two writers, a run that starts
from an earlier run's Z-buffer and the contract perfbench's traced run
relies on.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

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
    RenderState,
    ShaderProfile,
)
from repro.engine.scheduler import SerialScheduler
from repro.pipeline import raster
from repro.engine.tile_job import _resolves_runs
from repro.geom import ScreenTriangle, Triangle, Vertex, VertexAttributes
from repro.hw import FVPEntry, FVPType
from repro.kernels import batched, resolve_backend
from repro.kernels.api import ALPHA_OPAQUE
from repro.math3d import Vec2, Vec3, Vec4, orthographic, translate
from repro.memsys.ops import RasterTrace
from repro.scenes import scaled_world_stream
from repro.techniques.registry import resolve_features, technique_names

from tests.strategies import edge_floats
from tests.tile_jobs import Entry, range_job, tile_job

WIDTH, HEIGHT = 40, 28
CONFIG = GPUConfig(screen_width=WIDTH, screen_height=HEIGHT, frames=2)
ORTHO = orthographic(0.0, float(WIDTH), float(HEIGHT), 0.0, -1.0, 1.0)
TECHNIQUES = technique_names()
#: The techniques whose jobs numpy renders with the one-pass range kernel.
RUN_PATH = {"baseline", "re", "evr", "evr-reorder-only"}
#: Interior, right-edge (partial) and bottom-right (partial) tiles.
TILES = ((0, 0), (2, 0), (2, 1))

# Pixel coordinates: pixel centres (edges through them exercise the
# top-left rule), tile borders and the screen edges are common.
_X = edge_floats(-6.0, WIDTH + 6.0, ties=(0.5, 7.5, 15.5, 16.0, 16.5,
                                           32.0, 39.5, 40.0))
_Y = edge_floats(-6.0, HEIGHT + 6.0, ties=(0.5, 11.5, 16.0, 16.5, 27.5))
_DEPTH = edge_floats(0.0, 1.0, ties=(0.25, 0.5, 0.75))
_CHANNEL = edge_floats(-1.0, 1.0, ties=(0.5,))

_STATES = {
    "woz": dict(depth_test=True, depth_write=True, blend=BlendMode.OPAQUE),
    "tested": dict(depth_test=True, depth_write=False,
                   blend=BlendMode.OPAQUE),
    "sprite": dict(depth_test=False, depth_write=False,
                   blend=BlendMode.OPAQUE),
    "blend": dict(depth_test=True, depth_write=False,
                  blend=BlendMode.ALPHA),
    "blend-sprite": dict(depth_test=False, depth_write=False,
                         blend=BlendMode.ALPHA),
}


@st.composite
def _state(draw, kind):
    shader = ShaderProfile(
        fragment_instructions=draw(st.integers(0, 20)),
        texture_fetches=draw(st.integers(0, 2)),
        texture_id=draw(st.integers(0, 3)),
        texture_size=draw(st.sampled_from([16, 256])),
    )
    return RenderState(shader=shader, **_STATES[kind])


@st.composite
def _attributes(draw):
    return VertexAttributes(
        color=Vec4(*(draw(_CHANNEL) for _ in range(4))),
        uv=Vec2(draw(_CHANNEL), draw(_CHANNEL)),
    )


def _dead_sliver(x, y):
    """A triangle inside pixel (x, y)'s upper-right quarter: binned by
    its bounding box, it covers no pixel centre."""
    return (Vec2(x + 0.6, y + 0.1), Vec2(x + 0.9, y + 0.1),
            Vec2(x + 0.9, y + 0.4))


@st.composite
def _entry(draw, index=0):
    kind = draw(st.sampled_from(sorted(_STATES) + ["dead"]))
    state = draw(_state("woz" if kind == "dead" else kind))
    if kind == "dead":
        xy = _dead_sliver(draw(st.integers(0, WIDTH - 1)),
                          draw(st.integers(0, HEIGHT - 1)))
    else:
        xy = tuple(Vec2(draw(_X), draw(_Y)) for _ in range(3))
    primitive = ScreenTriangle(
        xy=xy,
        z=tuple(draw(_DEPTH) for _ in range(3)),
        attributes=tuple(draw(_attributes()) for _ in range(3)),
        command_id=index,
        primitive_id=0,
        state=state,
    )
    return Entry(
        primitive=primitive,
        layer=draw(st.integers(0, 6)),
        predicted_occluded=draw(st.booleans()),
    )


def _job(entries, technique, backend, tile=(0, 0), dsr_rate=1.0,
         history=None):
    tile_x, tile_y = tile
    return tile_job(
        entries,
        tile=tile_y * CONFIG.tiles_x + tile_x,
        config=CONFIG, features=resolve_features(technique),
        backend=backend, dsr_rate=dsr_rate, history=history,
    )


def _both(entries, technique, **kwargs):
    """Run the job on both backends; assert bit-identical results and
    return the python one."""
    results = {backend: _job(entries, technique, backend, **kwargs).run()
               for backend in ("python", "numpy")}
    assert (results["numpy"].fingerprint()
            == results["python"].fingerprint()), technique
    return results["python"]


# ---------------------------------------------------------------------------
# Random display lists, one tile
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(entries=st.lists(_entry(), min_size=1, max_size=14),
       technique=st.sampled_from(TECHNIQUES),
       tile=st.sampled_from(TILES),
       dsr_rate=st.sampled_from([1.0, 0.5, 0.25]),
       history=st.booleans())
def test_tile_results_match(entries, technique, tile, dsr_rate, history):
    previous = None
    if history:
        previous = np.linspace(0.0, 1.0, 16 * 16 * 4).reshape(16, 16, 4)
    _both(entries, technique, tile=tile, dsr_rate=dsr_rate,
          history=previous)


# ---------------------------------------------------------------------------
# Random display lists, a range of tiles per job
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(lists=st.lists(st.lists(_entry(), max_size=8), min_size=1,
                      max_size=CONFIG.num_tiles),
       technique=st.sampled_from(TECHNIQUES), data=st.data())
def test_range_results_match(lists, technique, data):
    """A job over several tiles, some of them partial edge tiles and
    some with empty lists, renders on numpy exactly as on python."""
    tiles = sorted(data.draw(st.sets(st.integers(0, CONFIG.num_tiles - 1),
                                     min_size=len(lists),
                                     max_size=len(lists))))
    rates = data.draw(st.lists(st.sampled_from([1.0, 0.5, 0.25]),
                               min_size=len(tiles), max_size=len(tiles)))
    history = None
    if data.draw(st.booleans()):
        history = np.linspace(0.0, 1.0, len(tiles) * 16 * 16 * 4).reshape(
            len(tiles), 16, 16, 4)
    results = [range_job(tiles, lists, dsr_rate=np.array(rates),
                         history=history, config=CONFIG,
                         features=resolve_features(technique),
                         backend=backend).run()
               for backend in ("python", "numpy")]
    assert results[1].fingerprint() == results[0].fingerprint(), technique
    assert results[0].tiles.tolist() == tiles


# ---------------------------------------------------------------------------
# Random frames, end to end
# ---------------------------------------------------------------------------

class _KeepResults(SerialScheduler):
    """Serial scheduler that also keeps every tile result."""

    def __init__(self):
        super().__init__()
        self.results = []

    def map(self, fn, items):
        results = super().map(fn, items)
        self.results.extend(results)
        return results


@st.composite
def _command(draw, index):
    kind = draw(st.sampled_from(sorted(_STATES)))
    vertices = [
        Vertex(Vec3(draw(_X), draw(_Y), draw(edge_floats(-1.0, 1.0,
                                                         ties=(0.5,)))),
               draw(_attributes()))
        for _ in range(3 * draw(st.integers(1, 4)))
    ]
    triangles = [Triangle(*vertices[i:i + 3])
                 for i in range(0, len(vertices), 3)]
    return DrawCommand(triangles, state=draw(_state(kind)),
                       label=f"c{index}")


@st.composite
def _frames(draw):
    commands = [draw(_command(index))
                for index in range(draw(st.integers(1, 6)))]
    # The first command moves, so later frames predict from real FVPs.
    return [
        Frame([dataclasses.replace(
            commands[0], model=translate(Vec3(0.5 * index, 0.0, 0.0)))]
            + commands[1:], projection=ORTHO, index=index)
        for index in range(CONFIG.frames)
    ]


def _render(frames, technique, backend):
    keep = _KeepResults()
    gpu = GPU(CONFIG, technique, backend=backend, scheduler=keep)
    results = [gpu.render_frame(frame) for frame in frames]
    return results, [result.fingerprint() for result in keep.results]


def _render_state(frames, technique, backend, integers_only=False):
    """Each frame's image, counters and memory-system snapshots, and the
    FVP Table and signature state the frames leave behind.  With
    ``integers_only`` the float counters are left out."""
    gpu = GPU(CONFIG, technique, backend=backend)
    outcome = [(result.image.tobytes(),
                {name: value for name, value in result.stats.as_dict().items()
                 if not (integers_only and isinstance(value, float))},
                result.geometry.units, result.raster.units)
               for result in map(gpu.render_frame, frames)]
    if gpu.predictor is not None:
        outcome.append([gpu.predictor.table.lookup(tile)
                        for tile in range(CONFIG.num_tiles)])
    if gpu.re is not None:
        outcome.append((gpu.re.stats, [
            gpu.re.signature_buffer.current_signature(tile)
            for tile in range(CONFIG.num_tiles)]))
    return outcome


class _KeepJobs(SerialScheduler):
    """Serial scheduler that also keeps every job it runs, and each
    frame's jobs as a batch."""

    def __init__(self):
        super().__init__()
        self.jobs = []
        self.batches = []

    def map(self, fn, items):
        self.jobs.extend(items)
        self.batches.append(list(items))
        return super().map(fn, items)


def _raster_traces(gpu):
    """The list of raster traces ``gpu`` hands its memory system from
    now on, filled as it renders."""
    traces = []
    replay = gpu.memory.replay_ops

    def recording(trace):
        if isinstance(trace, RasterTrace):
            traces.append(trace)
        replay(trace)

    gpu.memory.replay_ops = recording
    return traces


def _binned(frames, technique, backend, seed_fvp=()):
    """Every job the frames' render ran, and every raster trace it
    handed the memory system; ``seed_fvp`` is FVP Table entries stored
    (under EVR) before the first frame."""
    keep = _KeepJobs()
    gpu = GPU(CONFIG, technique, backend=backend, scheduler=keep)
    if gpu.predictor is not None:
        for tile, entry in seed_fvp:
            gpu.predictor.table.update(tile, entry)
    traces = _raster_traces(gpu)
    for frame in frames:
        gpu.render_frame(frame)
    return keep.jobs, traces


def _jobs(frames, technique, backend, seed_fvp=()):
    """Every job the frames' render ran (see :func:`_binned`)."""
    return _binned(frames, technique, backend, seed_fvp)[0]


def _bits(trace):
    """Every column of a raster trace, its bursts' among them, as exact
    bits."""
    values = [value for name, value in vars(trace).items()
              if name != "bursts"]
    return [(value.dtype.str, value.tobytes())
            if isinstance(value, np.ndarray) else value
            for value in values + list(trace.bursts)]


#: FVP Table entries: a WOZ tile's farthest depth or an NWOZ tile's
#: oldest visible layer, so that the first frame predicts too.
_FVP_ENTRY = st.one_of(
    st.builds(FVPEntry, st.just(FVPType.WOZ), _DEPTH),
    st.builds(FVPEntry, st.just(FVPType.NWOZ), st.integers(0, 6)))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(frames=_frames(), technique=st.sampled_from(TECHNIQUES))
def test_frames_match(frames, technique):
    scalar, scalar_tiles = _render(frames, technique, "python")
    batched_, batched_tiles = _render(frames, technique, "numpy")
    assert batched_tiles == scalar_tiles
    for index, (a, b) in enumerate(zip(scalar, batched_)):
        assert a.image.tobytes() == b.image.tobytes(), index
        assert a.stats == b.stats, index
        assert a.geometry.units == b.geometry.units, index
        assert a.raster.units == b.raster.units, index


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(frames=_frames(), technique=st.sampled_from(TECHNIQUES),
       budget=st.sampled_from([1, 2, 5, 13]))
def test_range_cuts_match(frames, technique, budget):
    """Frames whose jobs are cut mid-frame, after every ``budget``
    entries, render on numpy as on python (images, every counter,
    memory-system snapshots, job results with their FVP inputs and
    taint, the FVP Table and the poisoned signatures), and as with one
    job per frame: the frame's raster trace, which joins the jobs'
    texture bursts from the range kernel or the per-entry loop, is the
    same column for column wherever the cuts fall.  ``fhv`` sums its
    float reconstruction error per job, so against one job per frame
    its float counter is left out."""
    integers_only = technique == "fhv"
    with mock.patch.object(raster, "RANGE_ENTRIES", budget):
        scalar, scalar_tiles = _render(frames, technique, "python")
        batched_, batched_tiles = _render(frames, technique, "numpy")
        cut = _render_state(frames, technique, "numpy", integers_only)
        assert cut == _render_state(frames, technique, "python",
                                    integers_only)
        keep = _KeepJobs()
        gpu = GPU(CONFIG, technique, backend="numpy", scheduler=keep)
        cut_traces = _raster_traces(gpu)
        for frame in frames:
            gpu.render_frame(frame)
    # A frame's jobs take consecutive tiles, each until the next tile
    # would take it past the budget; only a one-tile job may exceed it.
    for jobs in keep.batches:
        for job, after in zip(jobs, jobs[1:] + [None]):
            assert len(job.state) <= budget or job.tiles.size == 1
            if after is not None:
                assert len(job.state) + int(after.bounds[1]) > budget
    assert batched_tiles == scalar_tiles
    for a, b in zip(scalar, batched_):
        assert a.image.tobytes() == b.image.tobytes()
        assert a.stats == b.stats
        assert a.raster.units == b.raster.units
    with mock.patch.object(raster, "RANGE_ENTRIES", 10 ** 9):
        assert _render_state(frames, technique, "numpy",
                             integers_only) == cut
        whole_traces = _binned(frames, technique, "numpy")[1]
    assert list(map(_bits, cut_traces)) == list(map(_bits, whole_traces))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(frames=_frames(), technique=st.sampled_from(TECHNIQUES),
       seed_fvp=st.lists(_FVP_ENTRY, min_size=CONFIG.num_tiles,
                         max_size=CONFIG.num_tiles).map(
                             lambda entries: list(enumerate(entries))))
def test_binned_jobs_match(frames, technique, seed_fvp):
    """Tile jobs sliced from the numpy binner's columns equal the scalar
    binner's jobs column for column, and render to the same
    ``TileResult`` on either raster backend.  Each frame's raster trace,
    built from the display-list columns (every rendered entry's pointer
    and record offset, each tile's entry bounds) and the jobs' texture
    bursts, is the same on both."""
    scalar_jobs, scalar_traces = _binned(frames, technique, "python",
                                         seed_fvp)
    batched_jobs, batched_traces = _binned(frames, technique, "numpy",
                                           seed_fvp)
    assert list(map(_bits, batched_traces)) == list(map(_bits,
                                                        scalar_traces))
    assert len(batched_jobs) == len(scalar_jobs)
    for scalar, batched_ in zip(scalar_jobs, batched_jobs):
        assert batched_.tile == scalar.tile
        for name in ("window", "attributes", "layer", "predicted"):
            expected, actual = getattr(scalar, name), getattr(batched_, name)
            assert actual.dtype == expected.dtype, name
            assert actual.tobytes() == expected.tobytes(), name
        assert ([batched_.states[i] for i in batched_.state.tolist()]
                == [scalar.states[i] for i in scalar.state.tolist()])
        for backend in ("python", "numpy"):
            expected = dataclasses.replace(scalar, backend=backend).run()
            actual = dataclasses.replace(batched_, backend=backend).run()
            assert actual.fingerprint() == expected.fingerprint(), backend


# ---------------------------------------------------------------------------
# The numpy path's per-frame and per-job objects
# ---------------------------------------------------------------------------

def _forbidden(*args, **kwargs):
    raise AssertionError("a numpy frame built a per-pair object")


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_numpy_frames_build_no_per_pair_objects(monkeypatch, technique):
    """Neither a ``ScreenTriangle`` nor a ``DisplayListEntry`` — by its
    constructor or by ``tuple.__new__`` over the class — is built while
    the numpy backend renders a frame."""
    from repro.hw import parameter_buffer
    from repro.pipeline import geometry

    monkeypatch.setattr(ScreenTriangle, "__init__", _forbidden)
    monkeypatch.setattr(parameter_buffer.DisplayListEntry, "__new__",
                        _forbidden)
    for module in (geometry, parameter_buffer):
        monkeypatch.setattr(module, "DisplayListEntry", _forbidden)
    frames = _scaled_frames(technique)
    assert frames[-1].stats.display_list_reads


def _quads(count, x0, y0, size=3.0):
    """``count`` sprite quads in a row from ``(x0, y0)``."""
    state = RenderState(shader=ShaderProfile(texture_fetches=1),
                        **_STATES["woz"])
    white = VertexAttributes(color=Vec4(1.0, 1.0, 1.0, 1.0))
    triangles = []
    for index in range(count):
        x = x0 + 0.5 * index
        corners = [Vertex(Vec3(x + dx, y0 + dy, 0.5), white)
                   for dx, dy in ((0, 0), (size, 0), (0, size),
                                  (size, size))]
        triangles += [Triangle(corners[0], corners[1], corners[2]),
                      Triangle(corners[1], corners[3], corners[2])]
    return DrawCommand(triangles, state=state, label=f"quads{x0},{y0}")


def _tile_zero_job(*commands):
    frame = Frame(list(commands), projection=ORTHO)
    (job,) = [job for job in _jobs([frame], "baseline", "numpy")
              if job.tile == 0]
    return job


def test_pickled_job_holds_only_its_entries(monkeypatch):
    """A job pickles its own entries' slices of the frame's columns: its
    size follows its entry count, not the frame's.  With a one-entry
    budget every tile is a job of its own."""
    import pickle

    from repro.pipeline import raster

    monkeypatch.setattr(raster, "RANGE_ENTRIES", 1)
    alone = _tile_zero_job(_quads(2, 2.0, 2.0))
    crowded = _tile_zero_job(_quads(2, 2.0, 2.0), _quads(40, 17.0, 2.0),
                             _quads(40, 2.0, 17.0))
    doubled = _tile_zero_job(_quads(4, 2.0, 2.0))
    assert len(alone.state) == len(crowded.state) == 4
    assert len(doubled.state) == 8
    assert len(pickle.dumps(crowded)) == len(pickle.dumps(alone))
    assert len(pickle.dumps(doubled)) > len(pickle.dumps(alone))
    copy = pickle.loads(pickle.dumps(crowded))
    for name in ("window", "attributes", "state", "layer", "predicted"):
        assert len(getattr(copy, name)) == 4, name


def test_over_budget_tile_after_empty_tiles_is_a_job_of_its_own(
        monkeypatch):
    """Empty tiles ahead of a tile with more entries than the budget
    make a job of their own rather than joining it."""
    monkeypatch.setattr(raster, "RANGE_ENTRIES", 1)
    frame = Frame([_quads(2, 33.0, 2.0)], projection=ORTHO)
    jobs = _jobs([frame], "baseline", "numpy")
    assert [job.tiles.tolist() for job in jobs] == [[0, 1], [2], [3, 4, 5]]
    assert [len(job.state) for job in jobs] == [0, 4, 0]


# ---------------------------------------------------------------------------
# Directed cases
# ---------------------------------------------------------------------------

def _flat(kind, depth, color, x0=-4.0, y0=-4.0, x1=24.0, y1=24.0,
          layer=1, predicted=False, fetches=1,
          uvs=((0.25, 0.75),) * 3):
    """A right triangle over most of tile (0, 0) at constant depth, with
    per-vertex texture coordinates ``uvs``."""
    state = RenderState(shader=ShaderProfile(texture_fetches=fetches),
                        **_STATES[kind])
    primitive = ScreenTriangle(
        xy=(Vec2(x0, y0), Vec2(x1, y0), Vec2(x0, y1)),
        z=(depth, depth, depth),
        attributes=tuple(VertexAttributes(color=Vec4(*color),
                                          uv=Vec2(*uv)) for uv in uvs),
        command_id=0, primitive_id=0, state=state)
    return Entry(primitive=primitive, layer=layer,
                 predicted_occluded=predicted)


def _dead(layer=2):
    entry = _flat("woz", 0.1, (1.0, 0.0, 0.0, 1.0), layer=layer)
    primitive = dataclasses.replace(entry.primitive, xy=_dead_sliver(3, 3))
    return entry._replace(primitive=primitive)


RED, GREEN, BLUE = (1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 1.0), \
    (0.0, 0.0, 1.0, 1.0)
HALF = (1.0, 1.0, 1.0, 0.5)


class TestDirectedRuns:
    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_one_entry_runs(self, technique):
        entries = [_flat("woz", 0.5, RED, layer=1),
                   _flat("blend", 0.4, HALF, layer=2),
                   _flat("woz", 0.3, GREEN, layer=3, predicted=True),
                   _flat("blend", 0.2, HALF, layer=4),
                   _flat("sprite", 0.9, BLUE, layer=5)]
        result = _both(entries, technique)
        # The last entry is an untested sprite: it wins everywhere it
        # covers.
        assert np.allclose(result.color[0, 0], BLUE)

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_all_dead_run(self, technique):
        entries = [_dead(1), _dead(2), _dead(3),
                   _flat("blend", 0.4, HALF, layer=4)]
        result = _both(entries, technique)
        assert result.stats.display_list_reads == 4
        assert result.stats.fragments_generated == \
            result.stats.early_z_tests

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_non_writer_between_writers(self, technique):
        # The middle entry is tested against the first writer only (it
        # passes), does not write Z, and the third writer, nearer than
        # both, overwrites it.
        entries = [_flat("woz", 0.6, RED, layer=1),
                   _flat("tested", 0.4, GREEN, layer=2, predicted=True),
                   _flat("woz", 0.5, BLUE, layer=3)]
        result = _both(entries, technique)
        if technique in RUN_PATH:
            # All three pass at every covered pixel: the third is tested
            # against the first writer's 0.6, not the non-writer's 0.4.
            covered = result.stats.fragments_generated // 3
            assert result.stats.early_z_kills == 0
            assert result.stats.depth_writes == 2 * covered
            assert np.allclose(result.color[0, 0], BLUE)
            assert not result.tainted

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_later_run_meets_the_z_buffer(self, technique):
        # A blended entry splits the list into two runs; the second run
        # is tested against the depth the first one wrote, so both of
        # its entries lose to the nearer red writer.
        entries = [_flat("woz", 0.3, RED, layer=1),
                   _flat("blend", 0.5, HALF, layer=2),
                   _flat("woz", 0.6, GREEN, layer=3),
                   _flat("tested", 0.4, BLUE, layer=4)]
        result = _both(entries, technique)
        assert np.allclose(result.color[0, 0], RED)

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_exact_depth_ties_keep_the_first(self, technique):
        entries = [_flat("woz", 0.5, RED, layer=1),
                   _flat("woz", 0.5, GREEN, layer=2),
                   _flat("tested", 0.5, BLUE, layer=3)]
        result = _both(entries, technique)
        if technique in RUN_PATH:
            assert np.allclose(result.color[0, 0], RED)

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_blend_at_the_opaque_threshold(self, technique):
        # The blended entry's interpolated alpha is exactly ALPHA_OPAQUE
        # at 26 of its pixels, above it at 2 and below it at 150: only
        # the first two kinds count as opaque (Layer Buffer, overdraw).
        entries = [_flat("woz", 0.6, RED, layer=1),
                   _flat("blend", 0.5, (1.0, 1.0, 1.0, ALPHA_OPAQUE),
                         layer=2),
                   _flat("woz", 0.4, GREEN, layer=3)]
        _both(entries, technique)

    @pytest.mark.parametrize("technique", TECHNIQUES)
    @pytest.mark.parametrize("depth", [0.0, -0.0, 5e-324])
    def test_zero_and_subnormal_depths(self, technique, depth):
        entries = [_flat("woz", depth, RED, layer=1),
                   _flat("woz", -depth, GREEN, layer=2),
                   _flat("woz", 0.0, BLUE, layer=3)]
        _both(entries, technique)

    @pytest.mark.parametrize("technique", sorted(RUN_PATH))
    @pytest.mark.parametrize("fetches", [(1, 2, 1), (1, 0, 2)],
                             ids=["all-textured", "some-textured"])
    def test_texture_coordinates_in_fragment_order(self, technique,
                                                   fetches):
        """A range whose passing rows are all textured, and one where
        the middle row is not: the texture burst of each textured row
        carries its passing fragments' u and v row by row in pixel
        order, over both tiles, exactly as the per-entry loop does."""
        uvs = ((0.0, 1.0), (0.5, -0.25), (0.125, 0.375))
        lists = [
            [_flat("woz", 0.5, RED, layer=1, fetches=fetches[0], uvs=uvs),
             _flat("tested", 0.4, GREEN, x1=20.0, layer=2,
                   fetches=fetches[1], uvs=uvs[::-1])],
            [_flat("woz", 0.3, BLUE, x0=10.0, x1=40.0, layer=3,
                   fetches=fetches[2], uvs=uvs[1:] + uvs[:1])],
        ]
        results = [range_job([0, 1], lists, config=CONFIG,
                             features=resolve_features(technique),
                             backend=backend).run()
                   for backend in ("python", "numpy")]
        assert results[1].fingerprint() == results[0].fingerprint()
        bursts = results[1].bursts
        textured = [0, 1, 2] if fetches[1] else [0, 2]
        assert bursts.entry.tolist() == textured
        # Not one value repeated: the order is what is compared.
        assert np.unique(bursts.u).size > bursts.entry.size


# ---------------------------------------------------------------------------
# Which techniques take the run path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("technique", TECHNIQUES)
def test_run_path_eligibility(technique):
    features = resolve_features(technique)
    assert _resolves_runs(resolve_backend("numpy"), features) == (
        technique in RUN_PATH)
    assert not _resolves_runs(resolve_backend("python"), features)


def test_early_z_off_keeps_the_entry_loop():
    features = dataclasses.replace(resolve_features("baseline"),
                                   early_z=False)
    assert not _resolves_runs(resolve_backend("numpy"), features)


# ---------------------------------------------------------------------------
# perfbench's traced run wraps prepare_tile's batch in a proxy
# ---------------------------------------------------------------------------

class _FragmentsOnly:
    """What perfbench's tracer hands the tile job: only ``fragments``."""

    __slots__ = ("_batch",)

    def __init__(self, batch):
        self._batch = batch

    def fragments(self, index):
        return self._batch.fragments(index)


def _scaled_frames(technique):
    config = GPUConfig(screen_width=64, screen_height=48, frames=2)
    stream = scaled_world_stream(config, num_boxes=12)
    gpu = GPU(config, technique, backend="numpy")
    return [gpu.render_frame(frame) for frame in stream]


@pytest.mark.parametrize("technique", ["evr", "hiz"])
def test_tile_jobs_read_a_prepared_batch_only_through_fragments(
        monkeypatch, technique):
    """Both paths rasterize with ``prepare_tile`` (what the traced run
    times) and read the batch only through ``fragments``: runs with a
    slice, the per-entry loop with an index."""
    expected = _scaled_frames(technique)
    prepare = batched.prepare_tile
    calls = []

    def proxied(*args, **kwargs):
        calls.append(1)
        return _FragmentsOnly(prepare(*args, **kwargs))

    monkeypatch.setattr(batched, "prepare_tile", proxied)
    actual = _scaled_frames(technique)
    assert calls
    for a, b in zip(expected, actual):
        assert a.image.tobytes() == b.image.tobytes()
        assert a.stats == b.stats
        assert a.raster.units == b.raster.units
