"""Run benchmarks under pipeline modes and distill metrics.

This is the outer loop of the evaluation: for a (benchmark, mode) pair it
builds the scene stream, renders it on a fresh GPU instance and extracts
the scalar metrics every figure consumes.  Three layers of reuse stack on
top of each other:

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
  parallel (``--jobs N`` / ``REPRO_JOBS``).

When a retry policy or fault plan is armed (``--retries``,
``--job-timeout``, ``--inject-faults``) the fan-out additionally runs
under a :class:`~repro.resilience.ResilientScheduler`, each settled cell
is checkpointed to a crash-durable :class:`~repro.resilience.RunJournal`
(``--resume`` replays it), and permanently failed cells degrade to NaN
placeholders instead of aborting the sweep.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..commands import FrameStream
from ..config import GPUConfig
from ..engine.diskcache import DiskCache, run_cache_key
from ..engine.scheduler import Scheduler, make_scheduler
from ..errors import ConfigError
from ..obs.events import MetricSample, RunFinished, RunStarted, get_bus
from ..obs.profile import SchedulerProfiler
from ..obs.trace import get_tracer
from ..pipeline import GPU, RunResult
from ..resilience import (
    FaultPlan,
    JobFailure,
    ResilientScheduler,
    RetryPolicy,
    RunJournal,
)
from ..scenes import benchmark_names, benchmark_stream
from ..spec import RunSpec
from ..techniques import Technique, metric_extras, resolve_technique


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
        mode: pipeline mode value string.
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
        mode=mode.value,
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
        mode=mode.value,
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
        extra=metric_extras(mode.value, result),
    )


def simulate_benchmark(
    benchmark: str,
    mode: object,
    spec: Optional[RunSpec] = None,
    config: Optional[GPUConfig] = None,
    frames: Optional[int] = None,
    scheduler: Optional[Scheduler] = None,
    stream: Optional[FrameStream] = None,
) -> RunResult:
    """Render one benchmark under one mode and return the full result.

    The one simulate path behind ``run_benchmark``, ``repro run`` and
    ``repro profile``: it owns the run's ``RunStarted``/``RunFinished``
    events and its ``run <benchmark>:<mode>`` trace span.  ``spec``
    supplies the feature overrides and cost/energy parameters (defaults
    reproduce the historical behaviour exactly); an explicit
    ``config``/``frames`` wins over ``spec.gpu`` for callers that sweep
    around a fixed spec.  ``scheduler`` optionally fans the per-frame
    tile work out (see :mod:`repro.engine`); results are identical
    whichever scheduler runs.  ``stream`` reuses a built frame stream.
    """
    mode = resolve_technique(mode)
    if spec is None:
        spec = RunSpec.from_config(config or GPUConfig.default())
    config = config or spec.gpu
    bus = get_bus()
    started = time.perf_counter()
    if bus.enabled:
        bus.emit(RunStarted(
            benchmark=benchmark, mode=mode.value,
            frames=frames if frames is not None
            else getattr(config, "frames", 0),
        ))
    with get_tracer().span(f"run {benchmark}:{mode.value}",
                           category="harness"):
        if stream is None:
            stream = benchmark_stream(benchmark, config, frames)
        gpu = GPU.from_spec(spec, mode, scheduler=scheduler, config=config)
        result = gpu.render_stream(stream)
    if bus.enabled:
        bus.emit(RunFinished(
            benchmark=benchmark, mode=mode.value,
            seconds=time.perf_counter() - started,
            frames=len(result.frames),
            fragments=result.total_stats().fragments_shaded,
        ))
    return result


def run_benchmark(
    benchmark: str,
    mode: object,
    config: Optional[GPUConfig] = None,
    frames: Optional[int] = None,
    scheduler: Optional[Scheduler] = None,
    spec: Optional[RunSpec] = None,
) -> RunMetrics:
    """Render one benchmark under one mode and return its metrics
    (:func:`simulate_benchmark`, then :func:`metrics_from_result`)."""
    mode = resolve_technique(mode)
    result = simulate_benchmark(benchmark, mode, spec=spec, config=config,
                                frames=frames, scheduler=scheduler)
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
    and journal keys derive from ``spec.spec_hash()`` plus the simulator
    code version, and execution policy (jobs, retries, faults, resume)
    defaults from the spec's scheduler/resilience sections.  The legacy
    keyword arguments still work — they are folded into an equivalent
    spec — and explicit keywords win over the spec's sections.

    Args:
        config: simulation configuration (default: ``spec.gpu``, or the
            scaled config when no spec is given).
        frames: frame-count override; folded into the spec's GPU config
            (``benchmark_stream`` reads the count from there).
        jobs: worker processes for suite-level fan-out; ``None``/1 runs
            serially, exactly as before.
        cache_dir: directory of the persistent run cache; ``None``
            disables disk caching (the in-memory memo always applies).
        profiler: optional :class:`~repro.obs.SchedulerProfiler`
            attached to the suite scheduler (observability only).
        retry_policy: arming this (or ``fault_plan``) routes the suite
            fan-out through a :class:`~repro.resilience.ResilientScheduler`
            — per-job timeouts, bounded retries, pool rebuilds and
            graceful degradation.  ``None`` (default) preserves the
            historical fail-fast behaviour bit-for-bit.
        fault_plan: deterministic fault injection for the suite jobs
            (``--inject-faults``); implies a default retry policy.
        journal_dir: directory for the crash-durable checkpoint journal;
            ``None`` disables journaling.
        resume: replay completed cells from the journal before running
            (``--resume``); ignored when ``journal_dir`` is None.
        strict: when True the caller is expected to exit non-zero if
            :attr:`failures` is non-empty; the runner itself always
            completes the sweep either way.
        spec: the declarative experiment spec this runner executes.
            ``None`` builds one from the legacy keyword arguments.
    """

    def __init__(self, config: Optional[GPUConfig] = None,
                 frames: Optional[int] = None,
                 jobs: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 profiler: Optional[SchedulerProfiler] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 journal_dir: Optional[str] = None,
                 resume: bool = False,
                 strict: bool = False,
                 spec: Optional[RunSpec] = None):
        if spec is None:
            spec = RunSpec.from_config(config or GPUConfig.default())
        gpu = config if config is not None else spec.gpu
        if frames is not None:
            gpu = gpu.scaled(frames=frames)
        if gpu != spec.gpu:
            spec = dataclasses.replace(spec, gpu=gpu)
        if jobs is None:
            jobs = spec.scheduler.jobs
        if retry_policy is None and fault_plan is None:
            retry_policy = spec.resilience.retry_policy()
            fault_plan = spec.resilience.fault_plan()
        self.spec = spec
        self.config = spec.gpu
        self.jobs = jobs or 1
        self.profiler = profiler
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan
        self.strict = strict or spec.resilience.strict
        resume = resume or spec.resilience.resume
        self._cache: Dict[Tuple[str, Technique], RunMetrics] = {}
        self._disk = DiskCache(cache_dir) if cache_dir else None
        self._scheduler: Optional[Scheduler] = None
        self.cache_hits = 0
        self.cache_misses = 0
        self.journal_hits = 0
        self.failures: Dict[Tuple[str, Technique], JobFailure] = {}
        self._journal: Optional[RunJournal] = None
        if journal_dir:
            self._journal = RunJournal.for_spec(journal_dir, spec)
            if resume:
                self._replay_journal()
            self._journal.open(fresh=not resume)

    @property
    def resilient(self) -> bool:
        """Whether suite fan-out runs under the resilient scheduler."""
        return self.retry_policy is not None or self.fault_plan is not None

    # -- lifecycle ----------------------------------------------------------

    def _suite_scheduler(self) -> Scheduler:
        if self._scheduler is None:
            scheduler = make_scheduler(self.jobs, profiler=self.profiler)
            if self.resilient:
                scheduler = ResilientScheduler(
                    scheduler,
                    policy=self.retry_policy,
                    fault_plan=self.fault_plan,
                )
            self._scheduler = scheduler
        return self._scheduler

    def close(self) -> None:
        """Release pooled workers and the journal (idempotent)."""
        if self._scheduler is not None:
            self._scheduler.close()
            self._scheduler = None
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "SuiteRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- checkpoint journal --------------------------------------------------

    def _replay_journal(self) -> None:
        """Seed the in-memory memo from the journal's completed cells."""
        assert self._journal is not None
        for (benchmark, mode_value), entry in self._journal.load().items():
            if entry.get("status") != "ok":
                continue  # failed cells are retried on resume
            try:
                mode = resolve_technique(mode_value)
                metrics = RunMetrics(**entry["metrics"])
            except (KeyError, TypeError, ValueError, ConfigError):
                continue  # journal written by an incompatible layout
            self._cache[(benchmark, mode)] = metrics
            self.journal_hits += 1

    # -- disk cache ---------------------------------------------------------

    def _disk_key(self, benchmark: str, mode: Technique) -> str:
        return run_cache_key(self.spec, benchmark, mode.value)

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
               metrics: RunMetrics, to_disk: bool) -> None:
        self._cache[key] = metrics
        if to_disk and self._disk is not None:
            self._disk.put(self._disk_key(*key), metrics)
        if to_disk and self._journal is not None:
            self._journal.record_ok(key[0], key[1].value,
                                    dataclasses.asdict(metrics))

    def _record_failure(self, key: Tuple[str, Technique],
                        failure: JobFailure) -> None:
        """Graceful degradation: the cell completes as a NaN placeholder
        and the sweep carries on; ``--strict`` turns it into a non-zero
        exit at the CLI layer."""
        self.failures[key] = failure
        self._cache[key] = failed_metrics(key[0], key[1], failure.message)
        if self._journal is not None:
            self._journal.record_failed(key[0], key[1].value,
                                        failure.message)

    def cache_summary(self) -> str:
        """One-line disk-cache report for script output."""
        if self._disk is None:
            summary = "run cache: disabled"
        else:
            summary = (f"run cache: {self.cache_hits} hits, "
                       f"{self.cache_misses} misses "
                       f"({self._disk.directory})")
        if self.journal_hits:
            summary += f"; journal: {self.journal_hits} cells resumed"
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
                key=lambda kv: (kv[0][0], kv[0][1].value),
            )
        ]
        records.append({
            "record": "suite-summary",
            "runs": len(self._cache),
            "jobs": self.jobs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "journal_hits": self.journal_hits,
            "failures": len(self.failures),
            "failed_cells": sorted(
                f"{benchmark}:{mode.value}"
                for benchmark, mode in self.failures
            ),
        })
        return records

    # -- running ------------------------------------------------------------

    def run(self, benchmark: str, mode: object) -> RunMetrics:
        mode = resolve_technique(mode)
        key = (benchmark, mode)
        if key not in self._cache:
            cached = self._load_cached(benchmark, mode)
            if cached is not None:
                self._cache[key] = cached
            else:
                self.cache_misses += 1
                self._store(
                    key,
                    run_benchmark(benchmark, mode, spec=self.spec),
                    to_disk=True,
                )
        return self._cache[key]

    def run_many(
        self, benchmarks: Sequence[str], modes: Sequence[object]
    ) -> Dict[Tuple[str, str], RunMetrics]:
        """Run the (benchmark, mode) cross product, fanning uncached pairs
        out through the suite scheduler when ``jobs > 1``."""
        techniques = [resolve_technique(mode) for mode in modes]
        pairs = [(benchmark, mode) for benchmark in benchmarks
                 for mode in techniques]
        missing: List[Tuple[str, Technique]] = []
        for key in pairs:
            if key in self._cache:
                continue
            cached = self._load_cached(*key)
            if cached is not None:
                self._cache[key] = cached
            else:
                missing.append(key)

        if missing:
            self.cache_misses += len(missing)
            payloads = [
                (benchmark, mode, self.spec)
                for benchmark, mode in missing
            ]
            total = len(missing)
            settled = [0]  # suite-progress MetricSample numerator

            def _progress() -> None:
                settled[0] += 1
                bus = get_bus()
                if bus.enabled:
                    bus.emit(MetricSample(name="suite.progress",
                                          value=settled[0] / total))

            if self.resilient:
                # Supervised fan-out: each cell settles (and is
                # checkpointed) independently; a permanently failed
                # cell becomes a NaN placeholder instead of aborting
                # the sweep.
                def _settle(index: int, value: Any) -> None:
                    if isinstance(value, JobFailure):
                        self._record_failure(missing[index], value)
                    else:
                        self._store(missing[index], value, to_disk=True)
                    _progress()

                with get_tracer().span("suite.map", category="harness",
                                       runs=len(missing)):
                    self._suite_scheduler().map_resilient(
                        _run_pair, payloads, on_result=_settle
                    )
            elif self.jobs > 1 and len(missing) > 1:
                with get_tracer().span("suite.map", category="harness",
                                       runs=len(missing)):
                    results = self._suite_scheduler().map(
                        _run_pair, payloads
                    )
                for key, metrics in zip(missing, results):
                    self._store(key, metrics, to_disk=True)
                    _progress()
            else:
                for benchmark, mode in missing:
                    self._store(
                        (benchmark, mode),
                        run_benchmark(benchmark, mode, spec=self.spec),
                        to_disk=True,
                    )
                    _progress()

        return {
            (benchmark, mode.value): self._cache[(benchmark, mode)]
            for benchmark, mode in pairs
        }

    # Alias that reads naturally at figure-function call sites.
    prefetch = run_many


def run_suite(
    modes: Sequence[object],
    config: Optional[GPUConfig] = None,
    frames: Optional[int] = None,
    benchmarks: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    spec: Optional[RunSpec] = None,
) -> Dict[Tuple[str, str], RunMetrics]:
    """Run (a subset of) the 20-benchmark suite under several modes."""
    with SuiteRunner(config, frames, jobs=jobs, cache_dir=cache_dir,
                     spec=spec) as runner:
        return runner.run_many(benchmarks or benchmark_names(), modes)
