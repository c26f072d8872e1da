"""Run benchmarks under pipeline modes and distill metrics.

This is the outer loop of the evaluation: for a (benchmark, mode) pair it
builds the scene stream, renders it on a fresh GPU instance and extracts
the scalar metrics every figure consumes.  A :class:`~repro.spec.RunSpec`
is the only description of a run: it carries the GPU configuration
(frames included), feature overrides, cost/energy parameters and the
execution policy (jobs, retries, faults, strict), and every entry point
here takes one.

:class:`SuiteRunner` is the one place a (benchmark, mode) cell is
computed, cached and settled: every cell of ``repro run``, ``figure``,
``report`` and ``profile`` comes from one.  Three layers of reuse stack
on top of each other:

* an in-memory memo per :class:`SuiteRunner` instance (several figures
  share the same underlying runs — Figures 6, 7, 10 and 11 all need
  BASELINE/RE/EVR);
* an optional on-disk cache under ``.repro_cache/`` keyed by the run
  spec's canonical content hash plus (benchmark, mode, code-version) —
  see :func:`repro.engine.diskcache.run_cache_key` — so a *second
  invocation* of any figure script reuses the first one's runs without
  constructing a GPU;
* an optional :class:`~repro.engine.ProcessPoolScheduler` fan-out, so the
  independent (benchmark, mode) simulations of a suite sweep run in
  parallel (``scheduler.jobs`` — ``--jobs N`` / ``REPRO_JOBS``).  A lone
  missing cell would keep one worker busy, so unless resilience is armed
  it renders in this process instead, with the pool fanning each frame's
  tile jobs out.

:meth:`SuiteRunner.simulate` renders one cell that way on request and
returns the full :class:`~repro.pipeline.RunResult`, for callers that
need every frame (per-frame exports, traces, live telemetry, the
profiler); the distilled metrics do not carry frames.

The run cache is also the sweep's checkpoint: every sweep, serial or
pooled, stores each cell as it settles, so re-running a killed sweep's
command recomputes only the cells the cache does not hold.  When a retry
policy or fault plan is armed (``--retries``, ``--job-timeout``,
``--inject-faults``) the fan-out runs under a
:class:`~repro.resilience.ResilientScheduler`, where a permanently
failed cell degrades to a NaN placeholder instead of aborting the sweep.
A failed cell is never cached, so a re-run recomputes it.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..engine.diskcache import DiskCache, run_cache_key
from ..engine.scheduler import Scheduler, make_scheduler
from ..obs.events import MetricSample, RunFinished, RunStarted, get_bus
from ..obs.log import get_logger
from ..obs.profile import SchedulerProfiler
from ..obs.trace import get_tracer
from ..pipeline import GPU, RunResult
from ..resilience import (
    FaultPlan,
    JobFailure,
    ResilientScheduler,
    RetryPolicy,
)
from ..scenes import benchmark_stream
from ..spec import RunSpec
from ..techniques import Technique, metric_extras, resolve_technique

logger = get_logger("harness")


class _NaNBreakdown(dict):
    """Energy breakdown of a failed run: every component reads as NaN,
    so figure arithmetic over a failed cell yields NaN instead of a
    ``KeyError`` — the cell renders as ``nan`` and is visibly broken."""

    def __missing__(self, key: str) -> float:
        return float("nan")


@dataclass(frozen=True)
class RunMetrics:
    """Scalar summary of one (benchmark, mode) run.

    Attributes:
        benchmark: benchmark alias.
        mode: canonical technique name.
        geometry_cycles: steady-state Geometry Pipeline cycles.
        raster_cycles: steady-state Raster Pipeline cycles.
        energy_joules: total steady-state energy.
        energy_breakdown: component -> joules.
        shaded_fragments_per_pixel: Figure 8's metric.
        redundant_tile_rate: Figure 9's metric.
        overshading_kills: Early-Z discarded fragments.
        predicted_occluded_rate: fraction of (primitive, tile) pairs EVR
            predicted occluded (0 for non-EVR modes).
        extra: technique-specific distilled metrics (the registry's
            metric extractors — e.g. ``hiz_culled`` for Hi-Z,
            ``dsr_reused_fragments`` for DSR); empty for techniques
            without extractors.
        error: empty for a real run; the failure description for a cell
            whose simulation failed permanently (graceful degradation —
            all numeric fields are then NaN).
    """

    benchmark: str
    mode: str
    geometry_cycles: float
    raster_cycles: float
    energy_joules: float
    energy_breakdown: Dict[str, float]
    shaded_fragments_per_pixel: float
    redundant_tile_rate: float
    overshading_kills: int
    predicted_occluded_rate: float
    extra: Dict[str, float] = field(default_factory=dict)
    error: str = ""

    @property
    def total_cycles(self) -> float:
        return self.geometry_cycles + self.raster_cycles

    @property
    def failed(self) -> bool:
        return bool(self.error)


def failed_metrics(benchmark: str, mode: Technique,
                   error: str) -> RunMetrics:
    """The NaN-valued placeholder for a cell that failed permanently."""
    nan = float("nan")
    return RunMetrics(
        benchmark=benchmark,
        mode=mode.name,
        geometry_cycles=nan,
        raster_cycles=nan,
        energy_joules=nan,
        energy_breakdown=_NaNBreakdown(),
        shaded_fragments_per_pixel=nan,
        redundant_tile_rate=nan,
        overshading_kills=0,
        predicted_occluded_rate=nan,
        extra={},
        error=error,
    )


def metrics_from_result(benchmark: str, mode: Technique,
                        result: RunResult) -> RunMetrics:
    """Distill a :class:`RunResult` into a :class:`RunMetrics`."""
    cycles = result.total_cycles()
    energy = result.total_energy()
    stats = result.total_stats()
    return RunMetrics(
        benchmark=benchmark,
        mode=mode.name,
        geometry_cycles=cycles.geometry,
        raster_cycles=cycles.raster,
        energy_joules=energy.total,
        energy_breakdown=energy.as_dict(),
        shaded_fragments_per_pixel=result.shaded_fragments_per_pixel(),
        redundant_tile_rate=result.redundant_tile_rate(),
        overshading_kills=stats.early_z_kills,
        predicted_occluded_rate=(
            stats.predicted_occluded / stats.predictions_made
            if stats.predictions_made
            else 0.0
        ),
        extra=metric_extras(mode.name, result),
    )


def simulate_benchmark(
    benchmark: str,
    mode: object,
    spec: Optional[RunSpec] = None,
    scheduler: Optional[Scheduler] = None,
) -> RunResult:
    """Render one benchmark under one mode and return the full result.

    The one simulate path behind ``run_benchmark`` and
    :meth:`SuiteRunner.simulate`: it owns the run's
    ``RunStarted``/``RunFinished`` events and its ``run
    <benchmark>:<mode>`` trace span.  ``spec`` supplies the GPU
    configuration, feature overrides and cost/energy parameters
    (default: the ``scaled`` preset).  ``scheduler`` optionally fans the
    per-frame tile work out (see :mod:`repro.engine`); results are
    identical whichever scheduler runs.
    """
    mode = resolve_technique(mode)
    spec = spec or RunSpec.preset("scaled")
    bus = get_bus()
    started = time.perf_counter()
    if bus.enabled:
        bus.emit(RunStarted(benchmark=benchmark, mode=mode.name,
                            frames=spec.gpu.frames))
    with get_tracer().span(f"run {benchmark}:{mode.name}",
                           category="harness"):
        stream = benchmark_stream(benchmark, spec.gpu)
        gpu = GPU.from_spec(spec, mode, scheduler=scheduler)
        result = gpu.render_stream(stream)
    if bus.enabled:
        bus.emit(RunFinished(
            benchmark=benchmark, mode=mode.name,
            seconds=time.perf_counter() - started,
            frames=len(result.frames),
            fragments=result.total_stats().fragments_shaded,
        ))
    return result


def run_benchmark(
    benchmark: str,
    mode: object,
    spec: Optional[RunSpec] = None,
    scheduler: Optional[Scheduler] = None,
) -> RunMetrics:
    """Render one benchmark under one mode and return its metrics
    (:func:`simulate_benchmark`, then :func:`metrics_from_result`)."""
    mode = resolve_technique(mode)
    result = simulate_benchmark(benchmark, mode, spec=spec,
                                scheduler=scheduler)
    return metrics_from_result(benchmark, mode, result)


def _run_pair(
    payload: Tuple[str, Technique, RunSpec]
) -> RunMetrics:
    """Process-pool entry point for one (benchmark, mode) simulation."""
    benchmark, mode, spec = payload
    return run_benchmark(benchmark, mode, spec=spec)


class SuiteRunner:
    """Memoizing runner shared by all experiment functions.

    The runner's identity is a :class:`~repro.spec.RunSpec`: disk-cache
    keys derive from ``spec.spec_hash()`` plus the simulator code
    version, and execution policy — worker count, retries, faults,
    strict — comes from the spec's scheduler and resilience sections.

    Args:
        spec: the declarative experiment spec this runner executes
            (default: the ``scaled`` preset).
        cache_dir: directory of the persistent run cache, which is also
            the sweep's checkpoint; ``None`` disables disk caching (the
            in-memory memo always applies).
        profiler: optional :class:`~repro.obs.SchedulerProfiler`
            attached to the suite scheduler (observability only).
        retry_policy: an explicit retry policy for the suite fan-out,
            overriding the spec's resilience section (its backoff fields
            have no spec form).  Arming this (or ``fault_plan``) routes
            the fan-out through a
            :class:`~repro.resilience.ResilientScheduler` — per-job
            timeouts, bounded retries, pool rebuilds and graceful
            degradation.
        fault_plan: deterministic fault injection for the suite jobs,
            overriding the spec's; implies a default retry policy.
    """

    def __init__(self, spec: Optional[RunSpec] = None,
                 cache_dir: Optional[str] = None,
                 profiler: Optional[SchedulerProfiler] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 fault_plan: Optional[FaultPlan] = None):
        spec = spec or RunSpec.preset("scaled")
        if retry_policy is None and fault_plan is None:
            retry_policy = spec.resilience.retry_policy()
            fault_plan = spec.resilience.fault_plan()
        self.spec = spec
        self.profiler = profiler
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan
        self._cache: Dict[Tuple[str, Technique], RunMetrics] = {}
        self._disk = DiskCache(cache_dir) if cache_dir else None
        self._scheduler: Optional[Scheduler] = None
        self.cache_hits = 0
        self.cache_misses = 0
        self.failures: Dict[Tuple[str, Technique], JobFailure] = {}

    @property
    def resilient(self) -> bool:
        """Whether suite fan-out runs under the resilient scheduler."""
        return self.retry_policy is not None or self.fault_plan is not None

    @property
    def jobs(self) -> int:
        """Worker processes of the suite fan-out, as the suite scheduler
        resolved ``spec.scheduler.jobs`` (a negative value means every
        CPU core)."""
        return self._suite_scheduler().jobs

    # -- lifecycle ----------------------------------------------------------

    def _suite_scheduler(self) -> Scheduler:
        if self._scheduler is None:
            scheduler = make_scheduler(self.spec.scheduler.jobs,
                                       profiler=self.profiler)
            if self.resilient:
                scheduler = ResilientScheduler(
                    scheduler,
                    policy=self.retry_policy,
                    fault_plan=self.fault_plan,
                )
            self._scheduler = scheduler
        return self._scheduler

    def close(self) -> None:
        """Release pooled workers (idempotent)."""
        if self._scheduler is not None:
            self._scheduler.close()
            self._scheduler = None

    def __enter__(self) -> "SuiteRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- disk cache ---------------------------------------------------------

    def _disk_key(self, benchmark: str, mode: Technique) -> str:
        return run_cache_key(self.spec, benchmark, mode.name)

    def _load_cached(self, benchmark: str,
                     mode: Technique) -> Optional[RunMetrics]:
        if self._disk is None:
            return None
        value = self._disk.get(self._disk_key(benchmark, mode))
        if isinstance(value, RunMetrics):
            self.cache_hits += 1
            return value
        return None

    def _store(self, key: Tuple[str, Technique],
               metrics: RunMetrics) -> None:
        self._cache[key] = metrics
        if self._disk is not None:
            self._disk.put(self._disk_key(*key), metrics)

    def _record_failure(self, key: Tuple[str, Technique],
                        failure: JobFailure) -> None:
        """Graceful degradation: the cell completes as a NaN placeholder
        and the sweep carries on; ``--strict`` turns it into a non-zero
        exit at the CLI layer.  The placeholder stays out of the disk
        cache, so re-running the command recomputes the cell."""
        self.failures[key] = failure
        self._cache[key] = failed_metrics(key[0], key[1], failure.message)

    def cache_summary(self) -> str:
        """One-line disk-cache report for script output."""
        if self._disk is None:
            summary = "run cache: disabled"
        else:
            summary = (f"run cache: {self.cache_hits} hits, "
                       f"{self.cache_misses} misses "
                       f"({self._disk.directory})")
        if self.failures:
            summary += f"; {len(self.failures)} cells FAILED"
        return summary

    def results(self) -> Dict[Tuple[str, Technique], RunMetrics]:
        """A snapshot of every memoized (benchmark, mode) result — the
        run ledger records these per invocation."""
        return dict(self._cache)

    def metrics_records(self) -> List[Dict[str, Any]]:
        """Every memoized run as a ``--metrics`` export record, plus one
        trailing summary record with the runner's cache counters."""
        records: List[Dict[str, Any]] = [
            {"record": "suite-run", **dataclasses.asdict(metrics)}
            for (_, _), metrics in sorted(
                self._cache.items(),
                key=lambda kv: (kv[0][0], kv[0][1].name),
            )
        ]
        records.append({
            "record": "suite-summary",
            "runs": len(self._cache),
            "jobs": self.jobs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "failures": len(self.failures),
            "failed_cells": sorted(
                f"{benchmark}:{mode.name}"
                for benchmark, mode in self.failures
            ),
        })
        return records

    # -- running ------------------------------------------------------------

    def simulate(self, benchmark: str, mode: object) -> RunResult:
        """Render one cell in this process, with the runner's scheduler
        fanning each frame's tile jobs out; store the cell's metrics and
        return the full result.  Under an armed retry policy a tile job
        that exhausts its attempts raises its typed error: a cell that
        did not render has no frames to hand back."""
        mode = resolve_technique(mode)
        scheduler = self._suite_scheduler()
        logger.debug("simulating %s:%s (%d frames, %r)", benchmark,
                     mode.name, self.spec.gpu.frames, scheduler)
        result = simulate_benchmark(benchmark, mode, spec=self.spec,
                                    scheduler=scheduler)
        self._store((benchmark, mode),
                    metrics_from_result(benchmark, mode, result))
        return result

    def run(self, benchmark: str, mode: object) -> RunMetrics:
        """One (benchmark, mode) cell, through :meth:`run_many`."""
        mode = resolve_technique(mode)
        return self.run_many([benchmark], [mode])[(benchmark, mode.name)]

    def run_many(
        self, benchmarks: Sequence[str], modes: Sequence[object]
    ) -> Dict[Tuple[str, str], RunMetrics]:
        """Run the (benchmark, mode) cross product, mapping the uncached
        pairs through the suite scheduler (a process pool when it has
        more than one worker).  A lone uncached pair on a pool goes
        through :meth:`simulate` instead, so its tile jobs use the
        workers one cell would leave idle; a resilient runner always
        maps, so its retries, faults and failed cells stay per cell."""
        techniques = [resolve_technique(mode) for mode in modes]
        pairs = [(benchmark, mode) for benchmark in benchmarks
                 for mode in techniques]
        missing: List[Tuple[str, Technique]] = []
        for key in pairs:
            if key in self._cache or key in missing:
                continue
            cached = self._load_cached(*key)
            if cached is not None:
                self._cache[key] = cached
            else:
                missing.append(key)

        if missing:
            self.cache_misses += len(missing)
            settled = [0]  # suite-progress MetricSample numerator

            def _progress() -> None:
                settled[0] += 1
                bus = get_bus()
                if bus.enabled:
                    bus.emit(MetricSample(name="suite.progress",
                                          value=settled[0] / len(missing)))

            def _settle(index: int, value: Any) -> None:
                if isinstance(value, JobFailure):
                    self._record_failure(missing[index], value)
                else:
                    self._store(missing[index], value)
                _progress()

            scheduler = self._suite_scheduler()
            if (len(missing) == 1 and scheduler.jobs > 1
                    and not self.resilient):
                self.simulate(*missing[0])
                _progress()
            else:
                for benchmark, mode in missing:
                    logger.debug("simulating %s:%s (%d frames, %r)",
                                 benchmark, mode.name, self.spec.gpu.frames,
                                 scheduler)
                payloads = [(benchmark, mode, self.spec)
                            for benchmark, mode in missing]
                # Each cell is stored as it settles, so a kill or a
                # raising cell loses only the cells not yet settled.
                fan_out = (scheduler.map_resilient if self.resilient
                           else scheduler.map)
                with get_tracer().span("suite.map", category="harness",
                                       runs=len(missing)):
                    fan_out(_run_pair, payloads, on_result=_settle)

        return {
            (benchmark, mode.name): self._cache[(benchmark, mode)]
            for benchmark, mode in pairs
        }
