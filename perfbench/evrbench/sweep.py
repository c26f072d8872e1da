"""The sweep workload: cold pooled SuiteRunner sweeps, each then read warm.

One *round* is a cold sweep of every cell with a 2-worker process pool
and an empty disk cache, followed by a warm pass: a second runner on the
same cache directory that must serve every cell from disk.  Rounds
repeat until the time budget is spent (at least one round).

Per-cell latency is not observable from outside a pool without a probe,
so every sweep attaches the runner's own ``SchedulerProfiler``: it costs
one clock pair per cell, measured in the worker that ran it.  Host times
are brought to reference speed (``calibrate``): while a cold sweep runs,
the runner's pool entry point is wrapped so that each worker times the
calibration kernel right after each cell, as a stream run does after each
frame, and writes the time to a per-process file.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.harness import runner as runner_module
from repro.harness.runner import SuiteRunner
from repro.obs.profile import SchedulerProfiler
from repro.spec import RunSpec, SchedulerSpec

from . import calibrate
from .oracle import cell_digest


class CellKernels:
    """Wraps the suite runner's pool entry point while the ``with`` block
    runs, so that every cell is followed by a timing of the calibration
    kernel in the worker that ran it.  Pool workers fork inside the
    block and inherit the wrapper; their timings land in ``directory``.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self._inner = None

    def __enter__(self) -> "CellKernels":
        global _CELL_KERNELS
        os.makedirs(self.directory, exist_ok=True)
        self._inner = runner_module._run_pair
        runner_module._run_pair = _calibrated_run_pair
        _CELL_KERNELS = self
        return self

    def __exit__(self, *exc) -> None:
        global _CELL_KERNELS
        runner_module._run_pair = self._inner
        _CELL_KERNELS = None

    def speed(self) -> float:
        """Reference seconds per raw second over the cells."""
        samples = []
        for name in os.listdir(self.directory):
            with open(os.path.join(self.directory, name)) as handle:
                samples.extend(float(line) for line in handle)
        return calibrate.REFERENCE_SECONDS / statistics.median(samples)


_CELL_KERNELS: Optional[CellKernels] = None


def _calibrated_run_pair(payload):
    kernels = _CELL_KERNELS
    metrics = kernels._inner(payload)
    path = os.path.join(kernels.directory, f"kernel-{os.getpid()}.txt")
    with open(path, "a") as handle:
        handle.write(f"{calibrate.kernel_seconds()!r}\n")
    return metrics


@dataclass
class SweepRun:
    """What one measured window of the sweep workload produced."""

    cold_s: List[float] = field(default_factory=list)
    raw_cold_s: List[float] = field(default_factory=list)
    scales: List[float] = field(default_factory=list)
    cells: int = 0
    warm_hits: List[int] = field(default_factory=list)
    job_s: List[List[float]] = field(default_factory=list)
    digests: List[Tuple[str, str]] = field(default_factory=list)
    raised: int = 0
    metrics: Dict[str, object] = field(default_factory=dict)
    profilers: List[SchedulerProfiler] = field(default_factory=list)

    @property
    def cold_cells(self) -> int:
        return self.cells * len(self.cold_s)


def sweep_spec(workload) -> RunSpec:
    return RunSpec.from_config(workload.config(),
                               scheduler=SchedulerSpec(jobs=workload.jobs))


def run_round(workload, seed: int, cache_dir: str, run: SweepRun,
              before_warm: Optional[Callable[[], None]] = None) -> None:
    """One cold sweep plus its warm pass, appended to ``run``.
    ``before_warm`` is called between the two."""
    spec = sweep_spec(workload)
    apps = workload.apps(seed)
    profiler = SchedulerProfiler()
    shutil.rmtree(cache_dir, ignore_errors=True)
    kernels = CellKernels(f"{cache_dir}-kernels")
    try:
        with SuiteRunner(spec=spec, cache_dir=cache_dir,
                         profiler=profiler) as runner, kernels:
            start = time.perf_counter()
            cold = runner.run_many(apps, workload.modes)
            cold_s = time.perf_counter() - start
        if before_warm is not None:
            before_warm()
        with SuiteRunner(spec=spec, cache_dir=cache_dir) as warm_runner:
            warm = warm_runner.run_many(apps, workload.modes)
    except Exception:  # noqa: BLE001 - a raising sweep fails its cells
        run.raised += len(workload.cells(seed))
        return
    scale = kernels.speed()
    run.raw_cold_s.append(cold_s)
    run.scales.append(scale)
    run.cold_s.append(cold_s * scale)
    run.warm_hits.append(warm_runner.cache_hits)
    run.cells = len(cold)
    run.profilers.append(profiler)
    frames = workload.frames
    run.job_s.append([timing.duration * scale / frames
                      for timing in profiler.timings])
    for results in (cold, warm):
        for (app, mode), metrics in results.items():
            run.digests.append((f"{app}:{mode}", cell_digest(metrics)))
    if not run.metrics:
        run.metrics = dict(cold)


def run_sweep(workload, seed: int, seconds: float,
              work_dir: str) -> SweepRun:
    """Sweep rounds for about ``seconds`` (always at least one)."""
    run = SweepRun()
    deadline = time.perf_counter() + seconds
    index = 0
    while not index or time.perf_counter() < deadline:
        run_round(workload, seed, os.path.join(work_dir, f"cache-{index}"),
                  run)
        index += 1
    return run
