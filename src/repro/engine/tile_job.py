"""Stateless raster work: the execution engine's unit of labor.

A :class:`TileJob` carries everything needed to render a contiguous
range of a frame's rendered tiles — their drained display lists, the
configuration and feature flags — and nothing else: no GPU, no memory
system, no shared buffers.  Executing it (:func:`execute_tile_job`) is a
pure function of the job, so jobs can run in any order, in any process,
and still produce bit-identical results.

Tile-order-dependent side effects are *returned*, not performed: a job
touches no memory system.  Its entries' texture bursts travel back as
columns (:class:`TextureBursts`) in the :class:`TileResult`, from which
the raster pipeline builds the frame's one memory trace in tile order,
and each tile's end-of-tile FVP state (Layer/Z buffers) travels back
for the parent-side predictor.  This is what makes the parallel and
serial schedulers equal by construction: the compute parallelizes, the
stateful reduction stays deterministic.

The per-fragment arithmetic itself is dispatched through the kernel
backend seam (:mod:`repro.kernels`): ``TileJob.backend`` names the
implementation (scalar reference or batched numpy) and the job calls only
the backend's pure array kernels — backends are bit-identical by
contract, so the choice is execution policy, not part of the result.
With a backend's range kernel and the features it covers, a job renders
all of its tiles in one array pass; otherwise it runs the per-entry loop
tile by tile, which stays the oracle.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..commands.state import BlendMode, RenderState
from ..config import GPUConfig
from ..geom.triangle import INTERPOLATED_ATTRIBUTES
from ..hw.buffers import ColorBuffer, LayerBuffer, ZBuffer
from ..kernels import DEFAULT_BACKEND, resolve_backend
from ..kernels.api import ALPHA_OPAQUE
from ..kernels.tile_geometry import tile_origin, valid_mask
from ..obs.events import TileJobFinished, get_bus
from ..pipeline.features import PipelineFeatures
from ..timing.stats import FrameStats


class _TextureLog:
    """The texture bursts the per-entry loop issues, as it issues them:
    the entry and the (u, v) of its shaded fragments (the burst's
    texture and samples are the entry's shader's)."""

    def __init__(self) -> None:
        self.entries: List[int] = []
        self.u: List[np.ndarray] = []
        self.v: List[np.ndarray] = []

    def record(self, entry: int, u: np.ndarray, v: np.ndarray) -> None:
        self.entries.append(entry)
        self.u.append(u)
        self.v.append(v)

    def columns(self) -> Tuple[np.ndarray, ...]:
        """``(entry, count, u, v)`` columns, as
        :meth:`_EntryStates.bursts` takes them."""
        return (np.array(self.entries, dtype=np.int64),
                np.array([u.size for u in self.u], dtype=np.int64),
                _joined(self.u), _joined(self.v))


def _joined(arrays: List[np.ndarray]) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.empty(0)


def tile_flush_bytes(config: GPUConfig) -> int:
    """A tile's end-of-tile colour flush (RGBA8 in the real
    framebuffer)."""
    return config.tile_width * config.tile_height * 4


class TextureBursts(NamedTuple):
    """A job's texture bursts as columns, one row per entry that shaded
    textured fragments, in entry order: its ``count`` fragments sample
    texture ``texture_id`` (of ``texture_size`` texels a side)
    ``samples`` times each, at the coordinates ``u``/``v`` hold for
    every burst back to back."""

    entry: np.ndarray         # (k,) int64 — numbered within the job
    texture_id: np.ndarray    # (k,) int64
    texture_size: np.ndarray  # (k,) int64
    samples: np.ndarray       # (k,) int64 — samples per fragment
    count: np.ndarray         # (k,) int64 — fragments per burst
    u: np.ndarray             # (sum of count,) float64
    v: np.ndarray


@dataclass
class TileContext:
    """The per-tile working buffers the per-entry loop renders into.

    One context per worker is enough: each tile clears the buffers
    first, so contexts are reusable across tiles and frames (exactly how
    the hardware's on-chip tile memory behaves).
    """

    z_buffer: ZBuffer
    color_buffer: ColorBuffer
    layer_buffer: LayerBuffer

    @classmethod
    def for_config(cls, config: GPUConfig) -> "TileContext":
        return cls(
            z_buffer=ZBuffer(config.tile_width, config.tile_height,
                             config.clear_depth),
            color_buffer=ColorBuffer(config.tile_width, config.tile_height,
                                     config.clear_color),
            layer_buffer=LayerBuffer(config.tile_width, config.tile_height),
        )


@dataclass
class TileResult:
    """Everything a job produced, ready for deterministic reduction.

    Per-tile values are rows of range arrays, in the job's tile order.

    Attributes:
        tiles: ``(t,)`` linear tile indices.
        color: ``(t, h, w, 4)`` — each tile's rendered colours (full
            tile-sized; edge tiles are cropped by the consumer).
        stats: the range's counter totals (merged into the frame's).
        bursts: the range's texture bursts, which the raster pipeline
            joins into the frame's memory trace.
        tainted: ``(t,)`` bool — a predicted-occluded primitive survived
            the depth test somewhere in the tile without being exactly
            overwritten afterwards (triggers the signature poison).
        layers / zr_register / depth: each tile's end-of-tile FVP inputs
            (``(t, h, w)`` int32, ``(t,)`` and ``(t, h, w)`` float64),
            present only when the EVR structures are enabled.
    """

    tiles: np.ndarray
    color: np.ndarray
    stats: FrameStats
    bursts: TextureBursts
    tainted: np.ndarray
    layers: Optional[np.ndarray] = None
    zr_register: Optional[np.ndarray] = None
    depth: Optional[np.ndarray] = None

    @property
    def tile(self) -> int:
        """The range's first tile."""
        return int(self.tiles[0])

    def fvp_inputs(self, index: int) -> Tuple[LayerBuffer, ZBuffer]:
        """Tile ``index``'s end-of-tile Layer and Z buffers (views)."""
        return (LayerBuffer.holding(self.layers[index],
                                    int(self.zr_register[index])),
                ZBuffer.holding(self.depth[index]))

    def fingerprint(self) -> tuple:
        """Every field as exact bits — arrays (the burst columns among
        them) by dtype, shape and bytes, counters by type and repr — so
        two results compare equal only when they are bit-identical,
        which is what kernel backends promise."""
        stats = tuple((name, type(value).__name__, repr(value))
                      for name, value in self.stats.as_dict().items())
        arrays = tuple(None if value is None
                       else (value.dtype.str, value.shape, value.tobytes())
                       for value in (self.tiles, self.color, self.tainted,
                                     self.layers, self.zr_register,
                                     self.depth, *self.bursts))
        return arrays + (stats,)


class _EntryStates(NamedTuple):
    """A job's per-entry render-state columns."""

    opaque: np.ndarray          # (n,) bool — BlendMode.OPAQUE
    depth_tested: np.ndarray    # (n,) bool
    writes_z: np.ndarray        # (n,) bool
    #: (n, 5) int64 — 1, depth_tested, writes_z, texture fetches and
    #: fragment instructions: a range's counters are one product with
    #: its per-entry counts
    costs: np.ndarray
    #: (n, 2) int64 — the shader's texture id and size
    texture: np.ndarray

    def bursts(self, entry: np.ndarray, count: np.ndarray, u: np.ndarray,
               v: np.ndarray) -> TextureBursts:
        """The bursts of the entries ``entry``, which shaded ``count``
        textured fragments at ``u``/``v``: each with its shader's
        texture and samples per fragment."""
        texture = self.texture[entry]
        return TextureBursts(entry=entry, texture_id=texture[:, 0],
                             texture_size=texture[:, 1],
                             samples=self.costs[entry, 3], count=count,
                             u=u, v=v)


def _entry_states(states: Tuple[RenderState, ...],
                  state: np.ndarray) -> _EntryStates:
    """Gather each entry's render-state flags and costs by state id."""
    table = np.array([(s.blend is BlendMode.OPAQUE, s.depth_test,
                       s.writes_z, s.shader.texture_fetches,
                       s.shader.fragment_instructions, s.shader.texture_id,
                       s.shader.texture_size) for s in states],
                     dtype=np.int64).reshape(-1, 7)[state]
    flags = table[:, :3].astype(bool)
    costs = table[:, :5].copy()
    costs[:, 0] = 1
    return _EntryStates(opaque=flags[:, 0], depth_tested=flags[:, 1],
                        writes_z=flags[:, 2], costs=costs,
                        texture=table[:, 5:])


@dataclass
class TileJob:
    """A stateless, picklable description of a range of tiles' rendering.

    The range's display lists travel as columns with one row per entry,
    tile after tile, each tile's entries in render order (first list
    then second — Algorithm 1's order): the slices of the frame's
    display-list columns, and of the primitive columns gathered into
    them, for the range's tiles.  A pickled job holds only its own
    entries: at most ``pipeline.raster.RANGE_ENTRIES`` (1024) unless one
    tile alone has more.  On the range path such a job peaks at 6-9 MiB
    traced, because the batch keeps each live entry's edge factors
    rather than its ``(3, h, w)`` barycentrics.

    Attributes:
        tiles: ``(t,)`` int64 — the linear tile indices, ascending.
        config: the GPU configuration (immutable, shared).
        features: the pipeline feature flags (immutable, shared).
        bounds: ``(t + 1,)`` int64 — tile ``i``'s entries are rows
            ``bounds[i]`` to ``bounds[i + 1]``.
        window: ``(n, 3, 3)`` float64 — each entry's primitive's
            window-space ``(x, y, z)`` per vertex, winding-normalized
            (``kernels.api.normalize_winding``).
        attributes: ``(n, 3, 6)`` float64 — its ``(r, g, b, a, u, v)``
            per vertex, in the same vertex order.
        state: ``(n,)`` — its render state's index in ``states``.
        states: the frame's distinct render states.
        layer: ``(n,)`` int64 — the entry's layer id in its tile.
        predicted: ``(n,)`` bool — EVR's prediction for the entry.
        backend: kernel backend name (``repro.kernels``); execution
            policy — every backend produces bit-identical results.
        dsr_rate: ``(t,)`` — each tile's Dynamic-Sampling-Rate fraction
            (1.0, 0.5 or 0.25), resolved parent-side at schedule time so
            every scheduler renders identically; None means 1.0.
        history: ``(t, h, w, 4)`` — each tile's previous-frame
            framebuffer contents (clear-padded), present only under the
            ``fhv`` feature; the reconstruction source.
    """

    tiles: np.ndarray
    config: GPUConfig
    features: PipelineFeatures
    bounds: np.ndarray
    window: np.ndarray
    attributes: np.ndarray
    state: np.ndarray
    states: Tuple[RenderState, ...]
    layer: np.ndarray
    predicted: np.ndarray
    backend: str = DEFAULT_BACKEND
    dsr_rate: Optional[np.ndarray] = None
    history: Optional[np.ndarray] = None

    @property
    def tile(self) -> int:
        """The range's first tile (work-item labels and trace lanes)."""
        return int(self.tiles[0])

    # -- execution ----------------------------------------------------------

    def run(self, context: Optional[TileContext] = None) -> TileResult:
        """Render the range and return its result.

        ``context`` supplies reusable working buffers for the per-entry
        loop; omitted, a fresh one is created (convenient in tests).
        """
        kernels = resolve_backend(self.backend)
        if _resolves_runs(kernels, self.features):
            return self._run_range(kernels)
        if context is None:
            context = TileContext.for_config(self.config)
        return self._run_tiles(kernels, context)

    def _run_range(self, kernels) -> TileResult:
        """Every tile at once: one ``prepare_tile`` over the range's
        entries, each against its own tile, and one ``resolve_range``.

        Only for :func:`_resolves_runs` features, where every fragment
        that passes Early-Z is shaded and written, so each counter is a
        sum over the range of the entries' passing (or generated)
        counts, weighted by a cost column.
        """
        config = self.config
        features = self.features
        width, height = config.tile_width, config.tile_height
        tile_x = self.tiles % config.tiles_x
        tile_y = self.tiles // config.tiles_x
        valid = np.stack([valid_mask(x, y, width, height,
                                     config.screen_width,
                                     config.screen_height)
                          for x, y in zip(tile_x.tolist(), tile_y.tolist())])
        owner = np.repeat(np.arange(self.tiles.size), np.diff(self.bounds))
        # resolve_range rebuilds barycentrics where it gathers them, so
        # the batch keeps only the edge factors.
        batch = kernels.prepare_tile(
            self.window, self.attributes, (tile_x * width)[owner],
            (tile_y * height)[owner], width, height, valid[owner],
            barycentrics=False)
        count = len(self.state)
        fragments = batch.fragments(slice(0, count))
        entries = _entry_states(self.states, self.state)
        costs = entries.costs
        out = kernels.resolve_range(
            fragments, self.bounds, entries.opaque, entries.depth_tested,
            entries.writes_z, costs[:, 3] > 0, self.predicted, self.layer,
            (height, width), config.clear_depth,
            np.asarray(config.clear_color, dtype=np.float64),
            features.uses_layers)

        stats = FrameStats()
        tiles = self.tiles.size
        passed = out.passed
        shaded, tested_passed, depth_writes, samples, instructions = (
            passed @ costs).tolist()
        generated, tested = (np.array(fragments.counts, dtype=np.int64)
                             @ costs[:, :2]).tolist()
        stats.tiles_rendered += tiles
        stats.display_list_reads += count
        stats.primitives_rasterized += count
        stats.raster_attributes += INTERPOLATED_ATTRIBUTES * count
        stats.fragments_generated += generated
        stats.early_z_tests += tested
        stats.early_z_kills += tested - tested_passed
        stats.depth_writes += depth_writes
        stats.fragments_shaded += shaded
        stats.fragment_instructions += instructions
        stats.texture_samples += samples
        stats.blend_operations += shaded
        stats.overdrawn_fragments += out.overdrawn
        stats.color_flush_bytes += tiles * tile_flush_bytes(config)
        if features.uses_layers:
            stats.fvp_updates += tiles
            stats.layer_buffer_writes += int(out.written.sum())
        if features.evr_hardware:
            # The confusion matrix of _render_entry, by (predicted,
            # contributed) class.
            hidden, visible, occluded, mispredicted = np.bincount(
                2 * self.predicted + (passed > 0), minlength=4).tolist()
            stats.mispredicted_visible += mispredicted
            stats.predicted_occluded_correct += occluded
            stats.predicted_visible_correct += visible
            stats.predicted_visible_hidden += hidden

        layers = features.uses_layers
        return TileResult(
            tiles=self.tiles, color=out.color, stats=stats,
            bursts=entries.bursts(out.texture_entry, out.texture_count,
                                  out.u, out.v),
            tainted=out.taint,
            layers=out.layers if layers else None,
            zr_register=out.zr_register if layers else None,
            depth=out.depth if layers else None)

    def _run_tiles(self, kernels, context: TileContext) -> TileResult:
        """Tile after tile through the per-entry loop, each tile's
        counters merged into the range's in tile order."""
        config = self.config
        features = self.features
        width, height = config.tile_width, config.tile_height
        tiles = self.tiles.size
        color = np.empty((tiles, height, width, 4))
        tainted = np.zeros(tiles, dtype=bool)
        layers = zr_register = depth = None
        if features.uses_layers:
            layers = np.empty((tiles, height, width), dtype=np.int32)
            zr_register = np.empty(tiles, dtype=np.int64)
            depth = np.empty((tiles, height, width))
        entries = _entry_states(self.states, self.state)
        log = _TextureLog()
        stats = FrameStats()
        bounds = self.bounds.tolist()
        for index, tile in enumerate(self.tiles.tolist()):
            tile_stats = FrameStats()
            tainted[index] = self._render_tile(
                context, log, kernels, entries, tile, bounds[index],
                bounds[index + 1],
                1.0 if self.dsr_rate is None
                else float(self.dsr_rate[index]),
                None if self.history is None else self.history[index],
                tile_stats)
            color[index] = context.color_buffer.color
            if layers is not None:
                layers[index] = context.layer_buffer.layers
                zr_register[index] = context.layer_buffer.zr_register
                depth[index] = context.z_buffer.depth
            stats.merge(tile_stats)
        return TileResult(
            tiles=self.tiles, color=color, stats=stats,
            bursts=entries.bursts(*log.columns()),
            tainted=tainted, layers=layers, zr_register=zr_register,
            depth=depth)

    def _render_tile(self, context: TileContext, log: _TextureLog,
                     kernels, entries: _EntryStates, tile: int, start: int,
                     stop: int, dsr_rate: float,
                     history: Optional[np.ndarray],
                     stats: FrameStats) -> bool:
        """Render entries ``start..stop-1``, tile ``tile``'s display
        list, one entry at a time into ``context``; returns whether the
        tile ends tainted."""
        config = self.config
        features = self.features
        stats.tiles_rendered += 1

        context.z_buffer.clear()
        context.color_buffer.clear()
        if features.uses_layers:
            context.layer_buffer.clear()

        tile_x, tile_y = tile % config.tiles_x, tile // config.tiles_x
        x0, y0 = tile_origin(tile_x, tile_y, config.tile_width,
                             config.tile_height)
        valid = valid_mask(tile_x, tile_y, config.tile_width,
                           config.tile_height, config.screen_width,
                           config.screen_height)
        batch = kernels.prepare_tile(
            self.window[start:stop], self.attributes[start:stop], x0, y0,
            config.tile_width, config.tile_height, valid,
        )

        if features.oracle_z:
            self._oracle_depth_prepass(context, kernels, batch, entries,
                                       start, stop)
        elif features.z_prepass:
            self._charged_depth_prepass(context, kernels, batch, entries,
                                        start, stop, stats)

        # Per-pixel count of shaded contributions not yet made useless by
        # an opaque overwrite; feeds the overshading metric of Figure 8.
        pending = np.zeros((config.tile_height, config.tile_width),
                           dtype=np.int32)
        # Per-pixel misprediction taint: set when a *predicted-occluded*
        # primitive survives the depth test at the pixel, cleared only
        # by an exact (opaque) overwrite.  Any taint at end of tile poisons the
        # signature (see DESIGN.md, "Correctness repair").
        taint = np.zeros((config.tile_height, config.tile_width), dtype=bool)
        for index in range(start, stop):
            self._render_entry(context, log, kernels, batch, entries,
                               index, index - start, dsr_rate, history,
                               pending, taint, stats)

        stats.color_flush_bytes += tile_flush_bytes(config)
        if features.uses_layers:
            stats.fvp_updates += 1
        return bool(taint.any())

    def _render_entry(self, context: TileContext, log: _TextureLog,
                      kernels, batch, entries: _EntryStates, index: int,
                      local: int, dsr_rate: float,
                      history: Optional[np.ndarray], pending: np.ndarray,
                      taint: np.ndarray, stats: FrameStats) -> None:
        """Render entry ``index`` (``batch``'s entry ``local``) on its
        own and, under EVR, validate its FVP prediction: the
        confusion-matrix counters behind the poison-rate breakdown
        (repro.obs.metrics)."""
        predicted = bool(self.predicted[index])
        contributed = self._render_primitive(
            context, log, kernels, batch, entries, index, local, dsr_rate,
            history, predicted, pending, taint, stats,
        )
        if self.features.evr_hardware:
            if predicted:
                if contributed:
                    stats.mispredicted_visible += 1
                else:
                    stats.predicted_occluded_correct += 1
            elif contributed:
                stats.predicted_visible_correct += 1
            else:
                stats.predicted_visible_hidden += 1

    def _render_primitive(
        self,
        context: TileContext,
        log: _TextureLog,
        kernels,
        batch,
        entries: _EntryStates,
        index: int,
        local: int,
        dsr_rate: float,
        history: Optional[np.ndarray],
        predicted: bool,
        pending: np.ndarray,
        taint: np.ndarray,
        stats: FrameStats,
    ) -> bool:
        """Render one display-list entry; True if it contributed color."""
        features = self.features
        state = self.states[self.state[index]]
        z_buffer = context.z_buffer
        color_buffer = context.color_buffer

        # Every entry's pointer and record reads are in the frame's
        # memory trace.
        stats.display_list_reads += 1

        if (
            features.hierarchical_z
            and state.depth_test
            and self.window[index, :, 2].min() > z_buffer.z_far
        ):
            # Top-of-the-Z-pyramid rejection (Section VIII): the whole
            # primitive (its nearest vertex, z_near) is farther than
            # every stored depth, so no fragment can pass; skip
            # rasterization entirely.  Safe because unwritten pixels
            # hold the far clear depth.
            stats.hiz_tests += 1
            stats.hiz_culled += 1
            return False
        if features.hierarchical_z and state.depth_test:
            stats.hiz_tests += 1

        stats.primitives_rasterized += 1
        stats.raster_attributes += INTERPOLATED_ATTRIBUTES
        frag = batch.fragments(local)
        if frag is None or frag.count == 0:
            return False
        mask = frag.mask
        count = frag.count
        stats.fragments_generated += count

        resolved_z = features.oracle_z or features.z_prepass
        if state.depth_test:
            passing = kernels.depth_test(z_buffer.depth, mask, frag.depth,
                                         less_equal=resolved_z)
            if features.early_z:
                # Early Depth Test: occluded fragments never reach the
                # fragment processors.
                stats.early_z_tests += count
                stats.early_z_kills += count - int(np.count_nonzero(passing))
                shaded_mask = passing
            else:
                # Late depth test only: everything is shaded, but the
                # color/depth writes still respect visibility.
                shaded_mask = mask
        else:
            passing = mask
            shaded_mask = mask

        blend_mode = state.blend
        vr_kill = None
        if features.vrpipe_early_termination:
            # VR-Pipe-style early termination: a fragment whose merge
            # cannot move the pixel by more than the threshold in any
            # channel is killed before shading and its write suppressed.
            # Opaque writes replace (delta = |src - dst|); blends move
            # rgb by a*(src-dst) and alpha by max(src_a - dst_a, 0).
            # Depth writes are NOT suppressed — visibility stays exact.
            destination = color_buffer.color
            threshold = features.vrpipe_threshold
            if blend_mode is BlendMode.OPAQUE:
                delta = np.abs(frag.rgba - destination).max(axis=2)
                vr_kill = passing & (delta <= threshold)
            else:
                src_alpha = frag.rgba[:, :, 3]
                rgb_delta = np.abs(
                    frag.rgba[:, :, :3] - destination[:, :, :3]
                ).max(axis=2)
                alpha_gain = np.maximum(
                    src_alpha - destination[:, :, 3], 0.0
                )
                vr_kill = passing & (
                    (src_alpha * rgb_delta <= threshold)
                    & (alpha_gain <= threshold)
                )
            killed = int(np.count_nonzero(vr_kill))
            if killed:
                stats.vrpipe_killed += killed
                shaded_mask = shaded_mask & ~vr_kill
            else:
                vr_kill = None

        shaded = int(np.count_nonzero(shaded_mask))
        if shaded == 0 and not passing.any():
            return False

        rgba = frag.rgba
        if shaded and features.dsr and dsr_rate < 1.0:
            # Dynamic Sampling Rate: shade only each block's anchor and
            # replicate its color to the block's other fragments.  A
            # fragment is reused only when its anchor is also shaded by
            # this primitive; uncovered-anchor fragments shade normally.
            block_h = 2 if dsr_rate <= 0.25 else 1
            rows = np.arange(shaded_mask.shape[0])[:, None]
            cols = np.arange(shaded_mask.shape[1])[None, :]
            anchor_rows = rows - rows % block_h
            anchor_cols = cols - cols % 2
            is_anchor = (rows == anchor_rows) & (cols == anchor_cols)
            reused = (shaded_mask
                      & shaded_mask[anchor_rows, anchor_cols]
                      & ~is_anchor)
            reused_count = int(np.count_nonzero(reused))
            if reused_count:
                stats.dsr_reused_fragments += reused_count
                rgba = np.where(reused[:, :, None],
                                rgba[anchor_rows, anchor_cols], rgba)
                shaded_mask = shaded_mask & ~reused
                shaded = int(np.count_nonzero(shaded_mask))

        if state.writes_z:
            stats.depth_writes += kernels.depth_write(
                z_buffer.depth, passing, frag.depth
            )

        reconstruct = (
            shaded
            and features.fhv
            and predicted
            and history is not None
            and blend_mode is BlendMode.OPAQUE
        )
        if reconstruct:
            # Fragment-History-Volume-style reconstruction: the FVP says
            # these fragments will end up occluded, so instead of shading
            # them, replay last frame's framebuffer colors (they carry
            # whatever covered the pixel then).  Depth still resolves
            # normally; only shading work is saved.
            stats.fhv_reconstructed += shaded
            stats.fhv_reconstruction_error += float(
                np.abs(rgba[shaded_mask] - history[shaded_mask]).sum()
            )
            rgba = history
        elif shaded:
            # Fragment shading (cost model + texture traffic).
            stats.fragments_shaded += shaded
            shader = state.shader
            stats.fragment_instructions += (
                shaded * shader.fragment_instructions
            )
            if shader.texture_fetches:
                stats.texture_samples += shaded * shader.texture_fetches
                log.record(index, frag.u[shaded_mask],
                           frag.v[shaded_mask])

        # Blending and overshading accounting (writes gated by the depth
        # test outcome even when shading was not).  VR-Pipe-killed
        # fragments keep their depth effect but never reach the blender.
        if not passing.any():
            return False
        write_mask = passing if vr_kill is None else passing & ~vr_kill
        if blend_mode is BlendMode.OPAQUE:
            opaque_mask = passing
            kernels.color_write(color_buffer.color, write_mask, rgba)
        else:
            opaque_mask = passing & (rgba[:, :, 3] >= ALPHA_OPAQUE)
            kernels.color_blend(color_buffer.color, write_mask, rgba)
        stats.blend_operations += int(np.count_nonzero(write_mask))

        translucent_mask = passing & ~opaque_mask
        stats.overdrawn_fragments += kernels.overdraw_update(
            pending, opaque_mask, translucent_mask
        )

        # Misprediction taint.  An *exact* overwrite (the OPAQUE path's
        # buffer write) erases the previous color bit-for-bit, so it may
        # replace the pixel's taint with its own prediction bit — that
        # clearing is what keeps hidden motion under an opaque HUD
        # skippable.  Blended writes must only ever ADD taint, even at
        # alpha >= the opaque threshold: blend arithmetic keeps a
        # (1 - alpha) * dst term that leaks the hidden color at ulp
        # scale whenever interpolated alpha is not exactly 1.
        if blend_mode is BlendMode.OPAQUE:
            kernels.taint_set(taint, opaque_mask, predicted)
        elif predicted:
            kernels.taint_or(taint, passing)

        if features.uses_layers and opaque_mask.any():
            layer_buffer = context.layer_buffer
            layer = int(self.layer[index])
            written = kernels.layer_write(
                layer_buffer.layers, opaque_mask, layer
            )
            if state.writes_z and written:
                layer_buffer.zr_register = layer
            stats.layer_buffer_writes += written
        return True

    # -- charged Z pre-pass -------------------------------------------------

    def _charged_depth_prepass(self, context: TileContext, kernels, batch,
                               entries: _EntryStates, start: int,
                               stop: int, stats: FrameStats) -> None:
        """Depth-only first pass over the tile's WOZ geometry, with the
        real costs the paper attributes to software Z-prepass (Section
        IV-A): every primitive is rasterized again, every fragment is
        depth-tested again and the Z-buffer is written — only fragment
        *shading* is saved for the second pass.
        """
        depth_buffer = context.z_buffer.depth
        woz = np.flatnonzero((entries.writes_z & entries.depth_tested)
                             [start:stop])
        stats.prepass_primitives += len(woz)
        for index in woz.tolist():
            frag = batch.fragments(index)
            if frag is None or frag.count == 0:
                continue
            stats.prepass_fragments += frag.count
            closer = kernels.depth_test(depth_buffer, frag.mask, frag.depth)
            stats.prepass_depth_writes += kernels.depth_write(
                depth_buffer, closer, frag.depth
            )

    # -- oracle Z pre-pass --------------------------------------------------

    def _oracle_depth_prepass(self, context: TileContext, kernels, batch,
                              entries: _EntryStates, start: int,
                              stop: int) -> None:
        """Fill the Z-buffer with the tile's final depths, for free.

        Models Figure 8's oracle: perfect visibility information in the
        Z-buffer before the tile executes.  Only WOZ primitives determine
        final depths.
        """
        depth_buffer = context.z_buffer.depth
        for index in np.flatnonzero(entries.writes_z[start:stop]).tolist():
            frag = batch.fragments(index)
            if frag is None or frag.count == 0:
                continue
            closer = kernels.depth_test(depth_buffer, frag.mask, frag.depth)
            kernels.depth_write(depth_buffer, closer, frag.depth)


def _resolves_runs(kernels, features: PipelineFeatures) -> bool:
    """Whether a job's range takes the backend's one-pass
    ``resolve_range`` kernel.

    Needs the kernel and Early-Z (every passing fragment is shaded),
    and no mechanism that reads per-entry state mid-list or tests with
    ``<=``: Hierarchical-Z reads ``z_far``, VR-Pipe the destination
    colour, DSR and FHV rewrite the shaded colours, and the oracle and
    charged Z-prepasses test against resolved depths.
    """
    return (
        hasattr(kernels, "resolve_range")
        and features.early_z
        and not (features.hierarchical_z or features.dsr or features.fhv
                 or features.vrpipe_early_termination
                 or features.z_prepass or features.oracle_z)
    )


# Worker-side context cache: one set of tile buffers per (geometry, clear)
# signature per process, mirroring the hardware's reusable on-chip memory.
_CONTEXT_CACHE: dict = {}


def execute_tile_job(job: TileJob) -> TileResult:
    """Module-level job entry point (picklable for process pools).

    When an event bus is installed in the executing process — the live
    bus in-process, a forwarding buffer in a pool worker — each job
    emits one :class:`~repro.obs.events.TileJobFinished` for its range,
    under its first tile and its tile count, with the range's shaded
    fragments and its own measured wall time and pid: the dashboard's
    worker-occupancy data.
    """
    key = (job.config.tile_width, job.config.tile_height,
           job.config.clear_depth, job.config.clear_color)
    context = _CONTEXT_CACHE.get(key)
    if context is None:
        context = TileContext.for_config(job.config)
        _CONTEXT_CACHE[key] = context
    bus = get_bus()
    if not bus.enabled:
        return job.run(context)
    start = time.perf_counter()
    result = job.run(context)
    bus.emit(TileJobFinished(
        tile=job.tile,
        fragments=result.stats.fragments_shaded,
        worker=os.getpid(),
        start=start,
        end=time.perf_counter(),
        tiles=int(job.tiles.size),
    ))
    return result
