"""The simulated GPU: frame loop, feature wiring and result collection.

A :class:`GPU` owns one memory system, one Parameter Buffer and — when the
corresponding features are on — the Rendering Elimination controller and
the EVR structures.  Its mode is a raw :class:`PipelineFeatures` set or a
technique (a :class:`~repro.techniques.Technique` or a registered name);
:meth:`GPU.from_spec` builds one from a :class:`repro.spec.RunSpec`.
:meth:`GPU.render_stream` consumes a :class:`repro.commands.FrameStream`
and returns a :class:`RunResult` with per-frame statistics, memory
snapshots and the rendered images.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from ..commands import Frame, FrameStream
from ..config import GPUConfig
from ..core.evr import VisibilityPredictor
from ..core.oracle import OracleTileComparator
from ..core.subtile import SubTileVisibilityPredictor
from ..core.rendering_elimination import RenderingElimination
from ..engine.instrumentation import Instrumentation, merge_unit_counters
from ..engine.scheduler import Scheduler
from ..errors import PipelineError
from ..hw.lgt import LayerGeneratorTable
from ..hw.parameter_buffer import ParameterBuffer
from ..kernels import normalize_backend
from ..memsys import create_memory_system
from ..obs.events import PhaseCompleted, cache_ops_of, get_bus
from ..obs.trace import get_tracer
from ..techniques.dsr import DSRController
from ..techniques.registry import Technique, resolve_features
from ..timing import CostModel, CostParameters, FrameStats, StatsAccumulator
from ..energy import EnergyBreakdown, EnergyModel, EnergyParameters
from .features import PipelineFeatures
from .geometry import GeometryPipeline
from .raster import RasterPipeline


@dataclass
class FrameResult:
    """Everything measured while rendering one frame.

    The two pipeline phases each contribute one mergeable
    :class:`~repro.engine.Instrumentation` record (memory-unit counters
    plus DRAM roofline cycles).
    """

    index: int
    stats: FrameStats
    image: np.ndarray
    geometry: Instrumentation
    raster: Instrumentation

    def merged_snapshot(self) -> Dict[str, Dict[str, int]]:
        """Geometry + raster memory counters combined (for energy)."""
        merged: Dict[str, Dict[str, int]] = {}
        merge_unit_counters(merged, self.geometry.units)
        merge_unit_counters(merged, self.raster.units)
        return merged


@dataclass
class RunResult:
    """All frames of a run plus the models needed to cost them."""

    config: GPUConfig
    features: PipelineFeatures
    frames: List[FrameResult] = field(default_factory=list)
    comparator: Optional[OracleTileComparator] = None
    predictor: Optional[VisibilityPredictor] = None
    re_controller: Optional[RenderingElimination] = None
    cost_model: Optional[CostModel] = None
    energy_model: Optional[EnergyModel] = None

    DEFAULT_WARMUP = 2

    def _steady_frames(self, warmup: int) -> List[FrameResult]:
        """Frames past the warm-up transient.

        Frame 0 has no previous-frame information (RE and EVR behave as
        the baseline) and frame 1 is EVR's prediction transient: its
        signatures were built *with* exclusions while frame 0's were
        built without, so they cannot match yet.  The paper's 60-frame
        measurements amortize this; with short runs we drop the warm-up
        explicitly.  If the run is shorter than the warm-up, all frames
        are used.
        """
        if warmup and len(self.frames) > warmup:
            return self.frames[warmup:]
        return self.frames

    def total_stats(self, warmup: int = DEFAULT_WARMUP) -> FrameStats:
        """Aggregate counters over steady-state frames."""
        accumulator = StatsAccumulator()
        for frame_result in self._steady_frames(warmup):
            accumulator.add(frame_result.stats)
        return accumulator.total()

    def total_cycles(self, warmup: int = DEFAULT_WARMUP) -> "CycleTotals":
        """Geometry/Raster cycle totals over steady-state frames."""
        if self.cost_model is None:
            raise PipelineError(
                "RunResult has no cost model attached; cycle totals are "
                "only available on results produced by GPU.render_stream"
            )
        geometry = 0.0
        raster = 0.0
        for frame_result in self._steady_frames(warmup):
            geometry += self.cost_model.geometry_cycles(
                frame_result.stats, frame_result.geometry.dram_cycles
            )
            raster += self.cost_model.raster_cycles(
                frame_result.stats, frame_result.raster.dram_cycles
            )
        return CycleTotals(geometry=geometry, raster=raster)

    def total_energy(self, warmup: int = DEFAULT_WARMUP) -> EnergyBreakdown:
        """Energy breakdown over steady-state frames."""
        if self.energy_model is None:
            raise PipelineError(
                "RunResult has no energy model attached; energy totals are "
                "only available on results produced by GPU.render_stream"
            )
        stats = self.total_stats(warmup)
        merged: Dict[str, Dict[str, int]] = {}
        for frame_result in self._steady_frames(warmup):
            merge_unit_counters(merged, frame_result.merged_snapshot())
        cycles = self.total_cycles(warmup)
        return self.energy_model.compute(
            stats,
            merged,
            cycles.total,
            evr_enabled=self.features.evr_hardware,
            re_enabled=self.features.rendering_elimination,
        )

    # -- headline metrics ----------------------------------------------------

    def shaded_fragments_per_pixel(self, warmup: int = DEFAULT_WARMUP) -> float:
        """Figure 8's metric: average shaded fragments per screen pixel,
        over rendered frames (RE-skipped tiles contribute zero, exactly
        as skipping intends)."""
        frames = self._steady_frames(warmup)
        stats = self.total_stats(warmup)
        pixels = self.config.num_pixels * len(frames)
        return stats.fragments_shaded / pixels if pixels else 0.0

    def redundant_tile_rate(self, warmup: int = DEFAULT_WARMUP) -> float:
        """Figure 9's metric: fraction of tiles skipped (RE/EVR modes) or
        measured equal (oracle comparator)."""
        stats = self.total_stats(warmup)
        if self.features.rendering_elimination:
            return stats.tiles_skipped / stats.tiles_total if stats.tiles_total else 0.0
        if self.comparator is not None:
            return self.comparator.equal_rate
        return 0.0


@dataclass(frozen=True)
class CycleTotals:
    geometry: float
    raster: float

    @property
    def total(self) -> float:
        return self.geometry + self.raster


class GPU:
    """A tile-based-rendering GPU with selectable EVR/RE features."""

    def __init__(
        self,
        config: GPUConfig,
        features: Union[PipelineFeatures, Technique, str] = "baseline",
        cost_params: CostParameters = CostParameters(),
        energy_params: EnergyParameters = EnergyParameters(),
        scheduler: Optional[Scheduler] = None,
        backend: Optional[str] = None,
        memory_system=None,
    ):
        # ``features`` accepts raw flags, a Technique descriptor or a
        # registered technique name (or alias).
        features = resolve_features(features)
        self.config = config
        self.features = features
        self.scheduler = scheduler
        self.backend = normalize_backend(backend)
        # The backend knob selects the memory-system implementation too
        # (scalar reference vs batched trace consumption — bit-identical,
        # so still execution policy).  ``memory_system`` lets harness
        # code inject a recorder/proxy without subclassing the GPU.
        self.memory = (
            memory_system if memory_system is not None
            else create_memory_system(config, self.backend)
        )
        self.parameter_buffer = ParameterBuffer(config.num_tiles)
        self.lgt = LayerGeneratorTable(config.num_tiles) if features.uses_layers else None
        if not features.evr_hardware:
            self.predictor = None
        elif features.subtile_fvp:
            self.predictor = SubTileVisibilityPredictor(
                config.num_tiles, config.tile_width, config.tile_height,
                config.tiles_x,
            )
        else:
            self.predictor = VisibilityPredictor(
                config.num_tiles, history=features.fvp_history
            )
        self.re = (
            RenderingElimination(
                config.num_tiles,
                filter_occluded=features.evr_signature_filter,
            )
            if features.rendering_elimination
            else None
        )
        self.comparator = (
            OracleTileComparator() if features.oracle_redundancy else None
        )
        self.dsr = DSRController(config.num_tiles) if features.dsr else None
        self.cost_model = CostModel(config, cost_params)
        self.energy_model = EnergyModel(config, energy_params)

        self.geometry = GeometryPipeline(
            config, features, self.memory, self.parameter_buffer,
            self.lgt, self.predictor, self.re,
            dsr=self.dsr,
            backend=self.backend,
        )
        self.raster = RasterPipeline(
            config, features, self.memory, self.parameter_buffer,
            self.predictor, self.re, self.comparator,
            scheduler=scheduler,
            backend=self.backend,
            dsr=self.dsr,
        )
        self._previous_image: Optional[np.ndarray] = None
        self._rendering = False

    @classmethod
    def from_spec(
        cls,
        spec,
        mode: Union[PipelineFeatures, Technique, str] = "baseline",
        scheduler: Optional[Scheduler] = None,
    ) -> "GPU":
        """Build a GPU from a :class:`repro.spec.RunSpec`.

        ``mode`` selects the pipeline variant; the spec's feature
        overrides are applied on top of the mode's feature set, and the
        spec's GPU configuration and cost/energy parameters flow into
        the models.  The spec is duck-typed so this module never imports
        :mod:`repro.spec` (which imports the feature definitions from
        this package).  The kernel backend rides in
        ``spec.scheduler.backend`` (execution policy, outside the spec
        hash — backends are bit-identical).
        """
        return cls(
            config=spec.gpu,
            features=spec.features.apply(resolve_features(mode)),
            cost_params=spec.cost,
            energy_params=spec.energy,
            scheduler=scheduler,
            backend=getattr(spec.scheduler, "backend", None),
        )

    def render_stream(self, stream: FrameStream) -> RunResult:
        """Render every frame of ``stream`` and collect results."""
        result = RunResult(
            config=self.config,
            features=self.features,
            comparator=self.comparator,
            predictor=self.predictor,
            re_controller=self.re,
            cost_model=self.cost_model,
            energy_model=self.energy_model,
        )
        for frame in stream:
            result.frames.append(self.render_frame(frame))
        return result

    def render_frame(self, frame: Frame) -> FrameResult:
        """Render a single frame through both pipelines."""
        if self._rendering:
            raise PipelineError("render_frame called re-entrantly")
        self._rendering = True
        try:
            with get_tracer().span("frame", category="frame",
                                   frame=frame.index):
                return self._render_frame(frame)
        finally:
            self._rendering = False

    def _render_frame(self, frame: Frame) -> FrameResult:
        config = self.config
        stats = FrameStats()
        tracer = get_tracer()
        bus = get_bus()

        # -- Geometry Pipeline --
        self.memory.reset_stats()
        phase_start = time.perf_counter()
        with tracer.span("geometry", category="phase", frame=frame.index):
            self.geometry.process_frame(frame, stats)
        geometry_instr = self.memory.instrumentation()
        if bus.enabled:
            bus.emit(PhaseCompleted(
                phase="geometry", frame=frame.index,
                seconds=time.perf_counter() - phase_start,
                cache_ops=cache_ops_of(geometry_instr),
            ))

        # -- Raster Pipeline --
        self.memory.reset_stats()
        image = np.zeros((config.screen_height, config.screen_width, 4))
        image[:, :] = np.array(config.clear_color)
        phase_start = time.perf_counter()
        with tracer.span("raster", category="phase", frame=frame.index):
            self.raster.render_frame(image, self._previous_image, stats)
        self.memory.end_frame()
        raster_instr = self.memory.instrumentation()
        if bus.enabled:
            bus.emit(PhaseCompleted(
                phase="raster", frame=frame.index,
                seconds=time.perf_counter() - phase_start,
                fragments=stats.fragments_shaded,
                cache_ops=cache_ops_of(raster_instr),
            ))

        # -- end of frame --
        if self.re is not None:
            self.re.end_frame()
        if self.dsr is not None:
            self.dsr.end_frame()
        if self.comparator is not None:
            self.comparator.end_frame()
        self._previous_image = image

        return FrameResult(
            index=frame.index,
            stats=stats,
            image=image,
            geometry=geometry_instr,
            raster=raster_instr,
        )
