"""The Raster Pipeline: per-tile rendering through the execution engine.

For each tile the Display List is drained (first list, then second list —
Algorithm 1's order), every primitive is rasterized against the tile,
fragments run through the Early Depth Test, survivors are shaded
(cost-modelled) and blended into the Color Buffer, and at end of tile the
colors are flushed to memory and — under EVR — the tile's FVP is computed
and stored for the next frame.

Rendering Elimination intercepts tiles before any of this: a signature
match reuses the previous frame's colors and skips the whole tile.

Since the execution-engine refactor, the per-tile work itself lives in
:class:`repro.engine.TileJob`; this module *schedules* tiles (the RE skip
check is a scheduling decision), fans the surviving jobs out through the
configured :class:`~repro.engine.Scheduler`, and *reduces* the returned
:class:`~repro.engine.TileResult`s in tile order — merging counters,
replaying memory traces, updating the FVP/signature state and writing the
framebuffer.  The reduction order is fixed, so serial and parallel
schedulers produce identical frames and identical metrics.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..config import GPUConfig
from ..core.evr import VisibilityPredictor
from ..core.oracle import OracleTileComparator
from ..core.rendering_elimination import RenderingElimination
from ..engine.scheduler import Scheduler, SerialScheduler
from ..engine.tile_job import TileJob, TileResult, execute_tile_job
from ..hw.parameter_buffer import ParameterBuffer
from ..kernels import DEFAULT_BACKEND, normalize_backend
from ..kernels.api import RASTER_ATTRIBUTES, normalize_winding
from ..kernels.tile_geometry import tile_region
from ..memsys import MemorySystem
from ..memsys.ops import replay_memory_trace
from ..obs.trace import get_tracer
from ..timing import FrameStats
from .features import PipelineFeatures


class RasterPipeline:
    """Runs the raster half of the pipeline for one frame at a time."""

    def __init__(
        self,
        config: GPUConfig,
        features: PipelineFeatures,
        memory: MemorySystem,
        parameter_buffer: ParameterBuffer,
        predictor: Optional[VisibilityPredictor],
        rendering_elimination: Optional[RenderingElimination],
        comparator: Optional[OracleTileComparator],
        scheduler: Optional[Scheduler] = None,
        backend: str = DEFAULT_BACKEND,
        dsr=None,
    ):
        self.config = config
        self.features = features
        self.memory = memory
        self.parameter_buffer = parameter_buffer
        self.predictor = predictor
        self.re = rendering_elimination
        self.comparator = comparator
        self.scheduler: Scheduler = scheduler or SerialScheduler()
        self.backend = normalize_backend(backend)
        self.dsr = dsr

    def render_frame(
        self,
        image: np.ndarray,
        previous_image: Optional[np.ndarray],
        stats: FrameStats,
    ) -> None:
        """Render every tile of the frame into ``image`` (H, W, 4).

        Args:
            image: output framebuffer for this frame, modified in place.
            previous_image: last frame's framebuffer; the source of colors
                for RE-skipped tiles (None on the first frame, when RE
                can never skip).
            stats: frame counters, updated in place.
        """
        config = self.config
        tracer = get_tracer()
        jobs: List[TileJob] = []
        with tracer.span("schedule", category="raster"):
            # Each job takes its tile's slice of the frame's display-list
            # columns, and of the primitive columns gathered into them,
            # each primitive's winding normalized once for every tile.
            table = self.parameter_buffer.primitives
            lists = self.parameter_buffer.lists
            rows = lists.row
            window, attributes = normalize_winding(
                table.window, table.attributes[:, :, :RASTER_ATTRIBUTES])
            window = window[rows]
            attributes = attributes[rows]
            state = table.state[rows]
            bounds = lists.start.tolist()
            attribute_bytes = (
                self.parameter_buffer.attribute_bytes_per_primitive)
            for tile_y in range(config.tiles_y):
                for tile_x in range(config.tiles_x):
                    tile = tile_y * config.tiles_x + tile_x
                    stats.tiles_total += 1
                    if self._try_skip_tile(tile, tile_x, tile_y, image,
                                           previous_image, stats):
                        continue
                    entries = slice(bounds[tile], bounds[tile + 1])
                    jobs.append(TileJob(
                        tile=tile,
                        tile_x=tile_x,
                        tile_y=tile_y,
                        config=config,
                        features=self.features,
                        window=window[entries],
                        attributes=attributes[entries],
                        state=state[entries],
                        states=table.states,
                        layer=lists.layer[entries],
                        predicted=lists.predicted[entries],
                        offset=lists.offset[entries],
                        pointer=lists.pointer[entries],
                        attribute_bytes=attribute_bytes,
                        backend=self.backend,
                        # Technique inputs are resolved here, parent-side,
                        # so every scheduler renders bit-identically.
                        dsr_rate=(
                            self.dsr.rate_for_tile(tile)
                            if self.dsr is not None else 1.0
                        ),
                        history=self._tile_history(
                            tile_x, tile_y, previous_image
                        ),
                    ))

        with tracer.span("execute", category="raster", tiles=len(jobs)):
            results = self.scheduler.map(execute_tile_job, jobs)
        # The reduce phase splits into two independent sub-loops so the
        # bench can attribute its cost: replaying the recorded memory
        # traces (the historical bottleneck) versus folding the
        # functional results into the frame.  ``drain()`` pins deferred
        # batched-model work inside the replay span.
        with tracer.span("reduce", category="raster", tiles=len(jobs)):
            with tracer.span("reduce-replay", category="raster",
                             tiles=len(jobs)):
                for result in results:
                    stats.merge(result.stats)
                    replay_memory_trace(result.memory_ops, self.memory)
                self.memory.drain()
            with tracer.span("reduce-finalize", category="raster",
                             tiles=len(jobs)):
                for job, result in zip(jobs, results):
                    self._reduce_tile(job, result, image, stats)

    # -- tile skipping (Rendering Elimination) ------------------------------

    def _try_skip_tile(
        self,
        tile: int,
        tile_x: int,
        tile_y: int,
        image: np.ndarray,
        previous_image: Optional[np.ndarray],
        stats: FrameStats,
    ) -> bool:
        if self.re is None:
            return False
        stats.signature_checks += 1
        if not self.re.should_skip_tile(tile):
            return False
        if previous_image is None:
            # Cannot happen: signatures never match before frame 1, but
            # guard against a scene with a single frame.
            return False
        stats.tiles_skipped += 1
        rows, cols = self._tile_region(tile_x, tile_y)
        image[rows, cols] = previous_image[rows, cols]
        return True

    # -- result reduction ----------------------------------------------------

    def _reduce_tile(
        self,
        job: TileJob,
        result: TileResult,
        image: np.ndarray,
        stats: FrameStats,
    ) -> None:
        """Fold one tile's result into the frame — always in tile order.

        Stats merging and memory-trace replay happen in the dedicated
        replay sub-loop of :meth:`render_frame` before this runs.
        """
        if (
            self.re is not None
            and self.features.evr_signature_filter
            and result.tainted
        ):
            self.re.poison_tile(job.tile)
            stats.signature_poisons += 1

        if self.features.uses_layers:
            assert self.predictor is not None
            assert result.layer_buffer is not None
            assert result.z_buffer is not None
            self.predictor.record_tile(
                job.tile, result.layer_buffer, result.z_buffer
            )

        rows, cols = self._tile_region(job.tile_x, job.tile_y)
        height = rows.shape[0]
        width = cols.shape[1]
        image[rows, cols] = result.color[:height, :width]

        if self.comparator is not None:
            self.comparator.record_tile(
                job.tile, result.color[:height, :width]
            )

    # -- helpers ---------------------------------------------------------------------

    def _tile_history(
        self,
        tile_x: int,
        tile_y: int,
        previous_image: Optional[np.ndarray],
    ) -> Optional[np.ndarray]:
        """Previous-frame framebuffer slice for FHV reconstruction.

        Returns a full tile-sized array (edge tiles clear-padded) or
        None when the feature is off / on the first frame.
        """
        if not self.features.fhv or previous_image is None:
            return None
        config = self.config
        rows, cols = self._tile_region(tile_x, tile_y)
        history = np.empty(
            (config.tile_height, config.tile_width, 4),
            dtype=previous_image.dtype,
        )
        history[:, :] = config.clear_color
        history[:rows.shape[0], :cols.shape[1]] = previous_image[rows, cols]
        return history

    def _tile_region(self, tile_x: int, tile_y: int):
        """Index arrays selecting the tile's on-screen pixels (shared
        tile-geometry definition; see :mod:`repro.kernels.tile_geometry`)."""
        config = self.config
        return tile_region(tile_x, tile_y,
                           config.tile_width, config.tile_height,
                           config.screen_width, config.screen_height)
