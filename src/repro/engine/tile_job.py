"""Stateless per-tile raster work: the execution engine's unit of labor.

A :class:`TileJob` carries everything needed to render one tile of one
frame — the tile's drained display list, the configuration and feature
flags — and nothing else: no GPU, no memory system, no shared buffers.
Executing it (:func:`execute_tile_job`) is a pure function of the job, so
jobs can run in any order, in any process, and still produce bit-identical
results.

Tile-order-dependent side effects are *recorded*, not performed: memory
traffic is appended to a :class:`MemoryTrace` that the engine replays into
the real :class:`~repro.memsys.MemorySystem` in tile order, and the
end-of-tile FVP state (Layer/Z buffers) travels back in the
:class:`TileResult` for the parent-side predictor.  This is what makes the
parallel and serial schedulers equal by construction: the compute
parallelizes, the stateful reduction stays deterministic.

The per-fragment arithmetic itself is dispatched through the kernel
backend seam (:mod:`repro.kernels`): ``TileJob.backend`` names the
implementation (scalar reference or batched numpy) and the job calls only
the backend's pure array kernels — backends are bit-identical by
contract, so the choice is execution policy, not part of the result.
"""

from __future__ import annotations

import copy
import os
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..commands.state import BlendMode
from ..config import GPUConfig
from ..hw.buffers import ColorBuffer, LayerBuffer, ZBuffer
from ..hw.parameter_buffer import POINTER_BYTES, DisplayListEntry
from ..kernels import DEFAULT_BACKEND, resolve_backend
from ..kernels.tile_geometry import tile_origin, valid_mask
from ..memsys.ops import FlushOp, MemOp, MemOps, PBReadOp, TextureOp
from ..obs.events import TileJobFinished, get_bus
from ..pipeline.features import PipelineFeatures
from ..timing.stats import FrameStats

_ALPHA_OPAQUE = 1.0 - 1e-9


class MemoryTrace:
    """Records the tile-facing :class:`~repro.memsys.MemorySystem` calls.

    Duck-typed stand-in for the memory system inside a tile job: cache
    and DRAM state are order-dependent across tiles, so jobs log their
    accesses and the engine replays them in tile order.
    """

    def __init__(self) -> None:
        self.ops: MemOps = MemOps()

    def parameter_buffer_read(self, offset: int, size: int) -> None:
        self.ops.append(PBReadOp(offset, size))

    def texture_batch(self, texture_id: int, texture_size: int,
                      u: np.ndarray, v: np.ndarray,
                      samples_per_fragment: int = 1) -> None:
        self.ops.append(
            TextureOp(texture_id, texture_size, u, v, samples_per_fragment)
        )

    def framebuffer_flush(self, num_bytes: int) -> None:
        self.ops.append(FlushOp(num_bytes))


@dataclass
class TileContext:
    """The per-tile working buffers a job renders into.

    One context per worker is enough: jobs clear the buffers on entry, so
    contexts are reusable across tiles and frames (exactly how the
    hardware's on-chip tile memory behaves).
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
    """Everything a tile job produced, ready for deterministic reduction.

    Attributes:
        tile: linear tile index.
        color: the tile's rendered colors (full tile-sized buffer; edge
            tiles are cropped by the consumer).
        stats: tile-local counter deltas (merged into the frame's stats).
        memory_ops: recorded memory accesses, replayed in tile order.
        tainted: True when a predicted-occluded primitive survived the
            depth test somewhere in the tile without being exactly
            overwritten afterwards (triggers the signature poison).
        layer_buffer / z_buffer: end-of-tile FVP inputs (present only
            when the EVR structures are enabled).
    """

    tile: int
    color: np.ndarray
    stats: FrameStats
    memory_ops: List[MemOp] = field(default_factory=MemOps)
    tainted: bool = False
    layer_buffer: Optional[LayerBuffer] = None
    z_buffer: Optional[ZBuffer] = None


@dataclass
class TileJob:
    """A stateless, picklable description of one tile's rendering.

    Attributes:
        tile: linear tile index.
        tile_x / tile_y: tile grid coordinates.
        config: the GPU configuration (immutable, shared).
        features: the pipeline feature flags (immutable, shared).
        entries: the tile's display list, already drained into render
            order (first list then second — Algorithm 1's order).
        attribute_bytes: Parameter Buffer bytes per primitive record
            (models the pointer-dereference traffic).
        backend: kernel backend name (``repro.kernels``); execution
            policy — every backend produces bit-identical results.
        dsr_rate: Dynamic-Sampling-Rate fraction for this tile (1.0,
            0.5 or 0.25), resolved parent-side at schedule time so every
            scheduler renders identically.
        history: previous frame's framebuffer contents for this tile
            (full tile-sized, clear-padded), present only under the
            ``fhv`` feature; the reconstruction source.
    """

    tile: int
    tile_x: int
    tile_y: int
    config: GPUConfig
    features: PipelineFeatures
    entries: List[DisplayListEntry]
    attribute_bytes: int
    backend: str = DEFAULT_BACKEND
    dsr_rate: float = 1.0
    history: Optional[np.ndarray] = None

    # -- geometry helpers ---------------------------------------------------

    def _valid_mask(self) -> np.ndarray:
        """True for tile pixels that are actually on screen (edge tiles
        of non-divisible resolutions are partial)."""
        config = self.config
        return valid_mask(self.tile_x, self.tile_y,
                          config.tile_width, config.tile_height,
                          config.screen_width, config.screen_height)

    # -- execution ----------------------------------------------------------

    def run(self, context: Optional[TileContext] = None) -> TileResult:
        """Render the tile and return its result.

        ``context`` supplies reusable working buffers; omitted, a fresh
        one is created (convenient in tests).
        """
        config = self.config
        features = self.features
        kernels = resolve_backend(self.backend)
        if context is None:
            context = TileContext.for_config(config)
        memory = MemoryTrace()
        stats = FrameStats()
        stats.tiles_rendered += 1

        context.z_buffer.clear()
        context.color_buffer.clear()
        if features.uses_layers:
            context.layer_buffer.clear()

        x0, y0 = tile_origin(self.tile_x, self.tile_y,
                             config.tile_width, config.tile_height)
        valid = self._valid_mask()
        batch = kernels.prepare_tile(
            self.entries, x0, y0, config.tile_width, config.tile_height,
            valid,
        )

        if features.oracle_z:
            self._oracle_depth_prepass(context, kernels, batch)
        elif features.z_prepass:
            self._charged_depth_prepass(context, kernels, batch, stats)

        # Per-pixel count of shaded contributions not yet made useless by
        # an opaque overwrite; feeds the overshading metric of Figure 8.
        pending = np.zeros((config.tile_height, config.tile_width),
                           dtype=np.int32)
        # Per-pixel misprediction taint: set when a *predicted-occluded*
        # primitive survives the depth test at the pixel, cleared only
        # by an exact (opaque) overwrite.  Any taint at end of tile poisons the
        # signature (see DESIGN.md, "Correctness repair").
        taint = np.zeros((config.tile_height, config.tile_width), dtype=bool)

        for index, entry in enumerate(self.entries):
            contributed = self._render_primitive(
                context, memory, kernels, batch, index, entry,
                pending, taint, stats,
            )
            if features.evr_hardware:
                # Validate the FVP prediction for this (primitive, tile)
                # pair: the confusion-matrix counters behind the
                # poison-rate breakdown (repro.obs.metrics).
                if entry.predicted_occluded:
                    if contributed:
                        stats.mispredicted_visible += 1
                    else:
                        stats.predicted_occluded_correct += 1
                elif contributed:
                    stats.predicted_visible_correct += 1
                else:
                    stats.predicted_visible_hidden += 1

        flush_bytes = context.color_buffer.byte_size
        memory.framebuffer_flush(flush_bytes)
        stats.color_flush_bytes += flush_bytes

        # The context is reused by the next job, so FVP inputs must be
        # copied out (16x16 arrays — cheap) rather than aliased.
        layer_buffer = z_buffer = None
        if features.uses_layers:
            stats.fvp_updates += 1
            layer_buffer = copy.deepcopy(context.layer_buffer)
            z_buffer = copy.deepcopy(context.z_buffer)

        return TileResult(
            tile=self.tile,
            color=context.color_buffer.snapshot(),
            stats=stats,
            memory_ops=memory.ops,
            tainted=bool(taint.any()),
            layer_buffer=layer_buffer,
            z_buffer=z_buffer,
        )

    def _render_primitive(
        self,
        context: TileContext,
        memory: MemoryTrace,
        kernels,
        batch,
        index: int,
        entry: DisplayListEntry,
        pending: np.ndarray,
        taint: np.ndarray,
        stats: FrameStats,
    ) -> bool:
        """Render one display-list entry; True if it contributed color."""
        features = self.features
        primitive = entry.primitive
        state = primitive.state
        z_buffer = context.z_buffer
        color_buffer = context.color_buffer

        memory.parameter_buffer_read(entry.pointer_offset, POINTER_BYTES)
        memory.parameter_buffer_read(entry.offset, self.attribute_bytes)
        stats.display_list_reads += 1

        if (
            features.hierarchical_z
            and state.depth_test
            and primitive.z_near > z_buffer.z_far
        ):
            # Top-of-the-Z-pyramid rejection (Section VIII): the whole
            # primitive is farther than every stored depth, so no
            # fragment can pass; skip rasterization entirely.  Safe
            # because unwritten pixels hold the far clear depth.
            stats.hiz_tests += 1
            stats.hiz_culled += 1
            return False
        if features.hierarchical_z and state.depth_test:
            stats.hiz_tests += 1

        stats.primitives_rasterized += 1
        stats.raster_attributes += primitive.attribute_count

        frag = batch.fragments(index)
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
        if shaded and features.dsr and self.dsr_rate < 1.0:
            # Dynamic Sampling Rate: shade only each block's anchor and
            # replicate its color to the block's other fragments.  A
            # fragment is reused only when its anchor is also shaded by
            # this primitive; uncovered-anchor fragments shade normally.
            block_h = 2 if self.dsr_rate <= 0.25 else 1
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

        if primitive.writes_z:
            stats.depth_writes += kernels.depth_write(
                z_buffer.depth, passing, frag.depth
            )

        reconstruct = (
            shaded
            and features.fhv
            and entry.predicted_occluded
            and self.history is not None
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
                np.abs(rgba[shaded_mask] - self.history[shaded_mask]).sum()
            )
            rgba = self.history
        elif shaded:
            # Fragment shading (cost model + texture traffic).
            stats.fragments_shaded += shaded
            shader = state.shader
            stats.fragment_instructions += (
                shaded * shader.fragment_instructions
            )
            if shader.texture_fetches:
                stats.texture_samples += shaded * shader.texture_fetches
                memory.texture_batch(
                    shader.texture_id,
                    shader.texture_size,
                    frag.u[shaded_mask],
                    frag.v[shaded_mask],
                    shader.texture_fetches,
                )

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
            opaque_mask = passing & (rgba[:, :, 3] >= _ALPHA_OPAQUE)
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
            kernels.taint_set(taint, opaque_mask, entry.predicted_occluded)
        elif entry.predicted_occluded:
            kernels.taint_or(taint, passing)

        if features.uses_layers and opaque_mask.any():
            layer_buffer = context.layer_buffer
            written = kernels.layer_write(
                layer_buffer.layers, opaque_mask, entry.layer
            )
            if primitive.writes_z and written:
                layer_buffer.zr_register = entry.layer
            stats.layer_buffer_writes += written
        return True

    # -- charged Z pre-pass -------------------------------------------------

    def _charged_depth_prepass(self, context: TileContext, kernels, batch,
                               stats: FrameStats) -> None:
        """Depth-only first pass over the tile's WOZ geometry, with the
        real costs the paper attributes to software Z-prepass (Section
        IV-A): every primitive is rasterized again, every fragment is
        depth-tested again and the Z-buffer is written — only fragment
        *shading* is saved for the second pass.
        """
        depth_buffer = context.z_buffer.depth
        for index, entry in enumerate(self.entries):
            primitive = entry.primitive
            if not (primitive.writes_z and primitive.state.depth_test):
                continue
            stats.prepass_primitives += 1
            frag = batch.fragments(index)
            if frag is None or frag.count == 0:
                continue
            stats.prepass_fragments += frag.count
            closer = kernels.depth_test(depth_buffer, frag.mask, frag.depth)
            stats.prepass_depth_writes += kernels.depth_write(
                depth_buffer, closer, frag.depth
            )

    # -- oracle Z pre-pass --------------------------------------------------

    def _oracle_depth_prepass(self, context: TileContext, kernels,
                              batch) -> None:
        """Fill the Z-buffer with the tile's final depths, for free.

        Models Figure 8's oracle: perfect visibility information in the
        Z-buffer before the tile executes.  Only WOZ primitives determine
        final depths.
        """
        depth_buffer = context.z_buffer.depth
        for index, entry in enumerate(self.entries):
            primitive = entry.primitive
            if not primitive.writes_z:
                continue
            frag = batch.fragments(index)
            if frag is None or frag.count == 0:
                continue
            closer = kernels.depth_test(depth_buffer, frag.mask, frag.depth)
            kernels.depth_write(depth_buffer, closer, frag.depth)


# Worker-side context cache: one set of tile buffers per (geometry, clear)
# signature per process, mirroring the hardware's reusable on-chip memory.
_CONTEXT_CACHE: dict = {}


def execute_tile_job(job: TileJob) -> TileResult:
    """Module-level job entry point (picklable for process pools).

    When an event bus is installed in the executing process — the live
    bus in-process, a forwarding buffer in a pool worker — each job
    emits a :class:`~repro.obs.events.TileJobFinished` with its own
    measured wall time and pid: the dashboard's worker-occupancy data.
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
    ))
    return result
