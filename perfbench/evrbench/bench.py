"""One benchmark run: measure a workload, check it, name its metrics.

The order matters.  The measured window comes first, so the process's
peak memory is read before anything else has run in it; the reference is
loaded (or computed) afterwards, then the set-up probes run.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, Tuple

from . import calibrate, catalog, oracle, report
from .layers import Probe
from .stream import run_stream
from .sweep import SweepRun, run_round, run_sweep, sweep_spec

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_SCRIPT = os.path.join(BENCH_DIR, "run.py")
SETUP_PROBES = 5

Log = Callable[[str], None]
Outcome = Tuple[int, int, Dict[str, float]]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- set-up time ----------------------------------------------------------------

def prepare(workload, seed: int, work_dir: str) -> Callable[[], None]:
    """Build everything ``workload`` needs before its first operation;
    returns the function that releases it.  Runs in a fresh process."""
    if workload.kind == "sweep":
        from repro.engine.scheduler import make_scheduler
        from repro.harness.runner import SuiteRunner

        cache_dir = os.path.join(work_dir, f"setup-{os.getpid()}")
        runner = SuiteRunner(spec=sweep_spec(workload), cache_dir=cache_dir)
        pool = make_scheduler(workload.jobs)
        pool.map(abs, range(workload.jobs))

        def release() -> None:
            pool.close()
            runner.close()
            shutil.rmtree(cache_dir, ignore_errors=True)
        return release
    from repro.engine.scheduler import SerialScheduler
    from repro.pipeline import GPU

    iter(workload.stream(seed))
    GPU(workload.config(), workload.technique, scheduler=SerialScheduler())
    return lambda: None


def setup_seconds(workload_name: str, seed: int, log: Log) -> float:
    """Median, at reference speed, of the time from starting a fresh
    process to its being ready for the first operation."""
    times = []
    raw = []
    for _ in range(SETUP_PROBES):
        kernel = calibrate.kernel_seconds(5)
        start = time.monotonic()
        output = subprocess.run(
            [sys.executable, RUN_SCRIPT, "--role", "setup",
             "--workload", workload_name, "--seed", str(seed)],
            check=True, capture_output=True, text=True, timeout=120,
        ).stdout
        ready = float(output.split("READY", 1)[1].split()[0])
        raw.append(ready - start)
        times.append((ready - start) * calibrate.REFERENCE_SECONDS / kernel)
    log(f"setup_s raw median {statistics.median(raw):.4f} s over "
        f"{SETUP_PROBES} processes")
    return statistics.median(times)


# -- measurement ----------------------------------------------------------------

def measure_stream(workload, seed: int, seconds: float, trace: bool,
                   work_dir: str, log: Log) -> Outcome:
    if not trace:
        run = run_stream(workload, seed, seconds)
        runs = [run]
        rss = peak_rss_mb()
    else:
        untraced = run_stream(workload, seed, seconds / 2)
        with Probe() as probe:
            run = run_stream(workload, seed, seconds / 2)
        runs = [untraced, run]
        untraced_rate = untraced.frames / sum(untraced.reference_frame_s())
        metrics = report.stream_layers(run, probe, untraced_rate)
    reference = oracle.load_reference(workload, seed,
                                      os.path.join(work_dir, "reference"))
    failed = sum(one.raised + oracle.count_failures(
        one.digests, reference["digests"]) for one in runs)
    attempted = sum(one.frames + one.raised for one in runs)
    if not trace:
        metrics = report.stream_end_to_end(workload, run, reference)
        metrics["peak_rss_mb"] = rss
        _, percentile = report.tail(run.frame_s)
        log(f"frame_ms_tail is p{percentile:.0f} of {run.frames} frames; "
            f"raw frames/s {run.frames / sum(run.frame_s):.4f}")
    log(f"{attempted} frames checked against the {reference['backend']} "
        f"backend: {failed} failed")
    return attempted, failed, metrics


def measure_sweep(workload, seed: int, seconds: float, trace: bool,
                  work_dir: str, log: Log) -> Outcome:
    run_dir = os.path.join(work_dir, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        if not trace:
            run = run_sweep(workload, seed, seconds, run_dir)
            runs = [run]
            rss = peak_rss_mb()
            metrics = report.sweep_end_to_end(workload, run)
            metrics["peak_rss_mb"] = rss
            _, percentile = report.tail(run.job_s[0])
            log(f"frame_ms_tail is p{percentile:.0f} of the {run.cells} "
                f"cells of a sweep, median over {len(run.cold_s)} sweeps; "
                f"raw cells/s {run.cold_cells / sum(run.raw_cold_s):.4f}")
        else:
            untraced = run_sweep(workload, seed, 0.0, run_dir)
            run = SweepRun()
            cold_get = []
            with Probe(os.path.join(run_dir, "workers")) as probe:
                os.makedirs(probe.dump_dir)
                run_round(workload, seed, os.path.join(run_dir, "traced"),
                          run, before_warm=lambda: cold_get.append(
                              probe.clock.incl_s.get("diskcache.get", 0.0)))
            runs = [untraced, run]
            metrics = report.sweep_layers(
                workload, seed, run, probe,
                untraced.cold_cells / sum(untraced.cold_s), cold_get[0])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    reference = oracle.load_reference(workload, seed,
                                      os.path.join(work_dir, "reference"))
    expected = reference["cells"]
    failed = sum(one.raised for one in runs) + sum(
        digest != expected.get(cell) for one in runs
        for cell, digest in one.digests)
    attempted = sum(len(one.digests) + one.raised for one in runs)
    log(f"{attempted} cells checked against the {reference['backend']} "
        f"backend: {failed} failed")
    return attempted, failed, metrics


def measure(workload, seed: int, seconds: float, trace: bool,
            work_dir: str, log: Log) -> Outcome:
    """Measure ``workload`` and return ``(attempted, failed, metrics)``
    with every end-to-end metric (``trace`` false) or every per-layer
    metric (``trace`` true)."""
    measure_kind = measure_sweep if workload.kind == "sweep" else \
        measure_stream
    attempted, failed, metrics = measure_kind(workload, seed, seconds,
                                              trace, work_dir, log)
    if not trace:
        metrics["setup_s"] = setup_seconds(workload.name, seed, log)
    return attempted, failed, metrics


def result_line(attempted: int, failed: int, metrics: Dict[str, float],
                trace: bool, log: Log) -> str:
    """Log every reported metric by name and unit; return the JSON line."""
    reported = catalog.PER_LAYER if trace else catalog.END_TO_END
    for metric in reported:
        log(f"{metric.name:28s} {metrics[metric.name]:14.6g} "
            f"{metric.unit:9s} ({metric.kind}, {metric.better} is better)")
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric.name: {"value": metrics[metric.name],
                                  "unit": metric.unit}
                    for metric in reported},
    })
