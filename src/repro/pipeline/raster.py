"""The Raster Pipeline: per-tile rendering through the execution engine.

For each tile the Display List is drained (first list, then second list —
Algorithm 1's order), every primitive is rasterized against the tile,
fragments run through the Early Depth Test, survivors are shaded
(cost-modelled) and blended into the Color Buffer, and at end of tile the
colors are flushed to memory and — under EVR — the tile's FVP is computed
and stored for the next frame.

Rendering Elimination intercepts tiles before any of this: a signature
match reuses the previous frame's colors and skips the whole tile.

The work itself lives in :class:`repro.engine.TileJob`, one job per
contiguous range of rendered tiles, cut at :data:`RANGE_ENTRIES`
display-list entries; this module *schedules* tiles (the RE skip check is a
scheduling decision), fans the jobs out through the configured
:class:`~repro.engine.Scheduler`, and *reduces* the returned
:class:`~repro.engine.TileResult`s in tile order — merging counters,
replaying memory traces, updating the FVP/signature state and writing
the framebuffer.  The cut and the reduction order are fixed, so serial
and parallel schedulers produce identical frames and identical metrics.
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
from ..obs.trace import get_tracer
from ..timing import FrameStats
from .features import PipelineFeatures

#: The display-list entries a raster job takes: consecutive rendered
#: tiles join a job until the next would take it past this many (a tile
#: with more is a job of its own).  A job costs about 0.6-1.0 ms of
#: numpy call overhead whatever its size, so 1024 entries cut the
#: stream workloads' jobs per frame from 16 to 4 and raster execute by
#: 16-22% against 256.  The range path keeps edge factors instead of
#: barycentrics, so the largest job of a stream pass peaks at 6.5-8.0
#: MiB traced (9.7-11.8 MiB with barycentrics stored, 3.0-4.2 MiB at
#: 256 entries); EXPERIMENTS.md, "1024-entry ranges".  The cut
#: ignores the scheduler, so serial and pooled runs stay bit-identical
#: (``fhv`` sums a float per job); a 1196x768 frame is still about 20
#: jobs, and two workers beat serial there at this budget.
RANGE_ENTRIES = 1024


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
        with tracer.span("schedule", category="raster"):
            rendered = []
            for tile_y in range(config.tiles_y):
                for tile_x in range(config.tiles_x):
                    tile = tile_y * config.tiles_x + tile_x
                    stats.tiles_total += 1
                    if not self._try_skip_tile(tile, tile_x, tile_y, image,
                                               previous_image, stats):
                        rendered.append(tile)
            jobs = self._jobs(np.array(rendered, dtype=np.int64),
                              previous_image)

        tiles = len(rendered)
        with tracer.span("execute", category="raster", tiles=tiles,
                         jobs=len(jobs)):
            results = self.scheduler.map(execute_tile_job, jobs)
        # The reduce phase splits into two independent sub-loops so the
        # bench can attribute its cost: replaying the recorded memory
        # traces (the historical bottleneck) versus folding the
        # functional results into the frame.  ``drain()`` pins deferred
        # batched-model work inside the replay span.
        with tracer.span("reduce", category="raster", tiles=tiles):
            with tracer.span("reduce-replay", category="raster",
                             tiles=tiles):
                for result in results:
                    stats.merge(result.stats)
                    self.memory.replay_ops(result.trace)
                self.memory.drain()
            with tracer.span("reduce-finalize", category="raster",
                             tiles=tiles):
                for result in results:
                    self._reduce_range(result, image, stats)

    def _jobs(self, tiles: np.ndarray,
              previous_image: Optional[np.ndarray]) -> List[TileJob]:
        """The jobs rendering ``tiles``, in order: consecutive tiles, each
        job cut before the tile that would take it past
        :data:`RANGE_ENTRIES` entries.  A job takes its tiles' slices of
        the frame's display-list columns, and of the primitive columns
        gathered into them, each primitive's winding normalized once for
        every tile."""
        config = self.config
        table = self.parameter_buffer.primitives
        lists = self.parameter_buffer.lists
        first = lists.start[tiles]
        sizes = lists.start[tiles + 1] - first
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        picked = np.arange(bounds[-1]) + np.repeat(first - bounds[:-1],
                                                   sizes)
        rows = lists.row[picked]
        window, attributes = normalize_winding(
            table.window, table.attributes[:, :, :RASTER_ATTRIBUTES])
        window = window[rows]
        attributes = attributes[rows]
        state = table.state[rows]
        layer = lists.layer[picked]
        predicted = lists.predicted[picked]
        offset = lists.offset[picked]
        pointer = lists.pointer[picked]
        attribute_bytes = self.parameter_buffer.attribute_bytes_per_primitive

        cuts = [0]
        taken = 0
        for index, size in enumerate(sizes.tolist()):
            if index > cuts[-1] and taken + size > RANGE_ENTRIES:
                cuts.append(index)
                taken = 0
            taken += size
        cuts.append(tiles.size)
        jobs: List[TileJob] = []
        for first_tile, stop_tile in zip(cuts[:-1], cuts[1:]):
            if first_tile == stop_tile:
                continue
            start, stop = bounds[first_tile], bounds[stop_tile]
            entries = slice(start, stop)
            job_tiles = tiles[first_tile:stop_tile]
            jobs.append(TileJob(
                tiles=job_tiles,
                config=config,
                features=self.features,
                bounds=bounds[first_tile:stop_tile + 1] - start,
                window=window[entries],
                attributes=attributes[entries],
                state=state[entries],
                states=table.states,
                layer=layer[entries],
                predicted=predicted[entries],
                offset=offset[entries],
                pointer=pointer[entries],
                attribute_bytes=attribute_bytes,
                backend=self.backend,
                # Technique inputs are resolved here, parent-side, so
                # every scheduler renders bit-identically.
                dsr_rate=(
                    np.array([self.dsr.rate_for_tile(tile)
                              for tile in job_tiles.tolist()])
                    if self.dsr is not None else None
                ),
                history=self._history(job_tiles, previous_image),
            ))
        return jobs

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

    def _reduce_range(
        self,
        result: TileResult,
        image: np.ndarray,
        stats: FrameStats,
    ) -> None:
        """Fold one job's tiles into the frame — always in tile order.

        Stats merging and memory-trace replay happen in the dedicated
        replay sub-loop of :meth:`render_frame` before this runs.
        """
        poisons = (self.re is not None
                   and self.features.evr_signature_filter)
        for index, tile in enumerate(result.tiles.tolist()):
            if poisons and result.tainted[index]:
                self.re.poison_tile(tile)
                stats.signature_poisons += 1

            if self.features.uses_layers:
                assert self.predictor is not None
                self.predictor.record_tile(tile, *result.fvp_inputs(index))

            rows, cols = self._tile_region(tile % self.config.tiles_x,
                                           tile // self.config.tiles_x)
            color = result.color[index, :rows.shape[0], :cols.shape[1]]
            image[rows, cols] = color
            if self.comparator is not None:
                self.comparator.record_tile(tile, color)

    # -- helpers ---------------------------------------------------------------------

    def _history(self, tiles: np.ndarray,
                 previous_image: Optional[np.ndarray]
                 ) -> Optional[np.ndarray]:
        """Previous-frame framebuffer slices for FHV reconstruction.

        Returns a ``(t, h, w, 4)`` array, one full tile-sized slice per
        tile of ``tiles`` (edge tiles clear-padded), or None when the
        feature is off / on the first frame.
        """
        if not self.features.fhv or previous_image is None:
            return None
        config = self.config
        history = np.empty(
            (tiles.size, config.tile_height, config.tile_width, 4),
            dtype=previous_image.dtype,
        )
        history[:] = config.clear_color
        for index, tile in enumerate(tiles.tolist()):
            rows, cols = self._tile_region(tile % config.tiles_x,
                                           tile // config.tiles_x)
            history[index, :rows.shape[0], :cols.shape[1]] = \
                previous_image[rows, cols]
        return history

    def _tile_region(self, tile_x: int, tile_y: int):
        """Index arrays selecting the tile's on-screen pixels (shared
        tile-geometry definition; see :mod:`repro.kernels.tile_geometry`)."""
        config = self.config
        return tile_region(tile_x, tile_y,
                           config.tile_width, config.tile_height,
                           config.screen_width, config.screen_height)
