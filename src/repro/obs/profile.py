"""Scheduler profiling: where wall-clock time and worker capacity go.

A :class:`SchedulerProfiler` attaches to any scheduler (see
``repro.engine.scheduler``) and measures every mapped job *in the process
that executes it*: per-job wall time, queue wait (submission to start)
and which worker ran it.  From those it derives worker occupancy — the
fraction of the fan-out window each worker spent busy — for both the
Serial and ProcessPool schedulers.

The measurement path is deliberately one-way: the job envelope
(:mod:`repro.engine.job`) times the call and passes the job's return
value through untouched, so profiled and unprofiled executions produce
bit-identical simulated results; only observability output differs.
The parent records one timing per kept job and closes one batch per
``Scheduler.map`` call.  Job timings also feed the process-wide
metrics registry (``scheduler.*`` histograms) and, when a
:class:`~repro.obs.trace.ChromeTracer` is attached, become per-tile trace
spans — on the ``main`` track when the job ran in-process (serial
scheduler), on a ``worker-<pid>`` track when a pool worker ran it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .metrics import global_registry
from .trace import MAIN_TRACK, Tracer


@dataclass(frozen=True)
class JobTiming:
    """One mapped job's observed execution."""

    label: str
    batch: int
    start: float
    end: float
    worker: int
    queue_wait: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class BatchTiming:
    """One ``Scheduler.map`` call's envelope."""

    submit: float
    end: float
    jobs: int

    @property
    def wall(self) -> float:
        return self.end - self.submit


def _label_for(item: Any, index: int) -> str:
    """A human label for one work item (tile jobs and suite pairs get
    recognizable names; anything else falls back to its index)."""
    tile = getattr(item, "tile", None)
    if tile is not None:
        return f"tile {tile}"
    if isinstance(item, tuple) and len(item) >= 2:
        mode = getattr(item[1], "name", item[1])
        return f"{item[0]}:{mode}"
    return f"job {index}"


class SchedulerProfiler:
    """Accumulates job and batch timings across ``Scheduler.map`` calls."""

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        self.timings: List[JobTiming] = []
        self.batches: List[BatchTiming] = []
        self._parent_pid = os.getpid()
        self._batch_start = 0  # first timing of the open batch

    # -- scheduler-facing API ------------------------------------------------

    def record_job(self, item: Any, index: int, submitted: float,
                   record: Any) -> None:
        """Record one kept job of the open batch.  ``record`` is the
        job's :class:`~repro.engine.job.JobRecord`; its queue wait runs
        from ``submitted`` to the measured start."""
        timing = JobTiming(
            label=_label_for(item, index),
            batch=len(self.batches),
            start=record.start,
            end=record.end,
            worker=record.worker,
            queue_wait=max(0.0, record.start - submitted),
        )
        self.timings.append(timing)
        registry = global_registry()
        registry.histogram("scheduler.job_seconds").observe(timing.duration)
        registry.histogram("scheduler.queue_wait_seconds").observe(
            timing.queue_wait)
        if self.tracer is not None and self.tracer.enabled:
            track = (MAIN_TRACK if record.worker == self._parent_pid
                     else f"worker-{record.worker}")
            self.tracer.complete(
                timing.label, "tile", record.start, record.end,
                track=track,
                args={"queue_wait_ms": timing.queue_wait * 1e3,
                      "batch": timing.batch},
            )

    def close_batch(self, submit: float) -> None:
        """Close the open batch: one ``Scheduler.map`` call submitted at
        ``submit``, covering every job recorded since the last close."""
        jobs = self.timings[self._batch_start:]
        self._batch_start = len(self.timings)
        end = max([submit] + [timing.end for timing in jobs])
        self.batches.append(BatchTiming(submit, end, len(jobs)))
        registry = global_registry()
        registry.counter("scheduler.jobs").inc(len(jobs))
        registry.counter("scheduler.batches").inc()

    # -- summaries -----------------------------------------------------------

    @property
    def total_wall(self) -> float:
        """Sum of all fan-out windows (submission to last completion)."""
        return sum(batch.wall for batch in self.batches)

    def job_summary(self) -> Dict[str, float]:
        """Aggregate job statistics across every batch."""
        if not self.timings:
            return {"jobs": 0, "busy_seconds": 0.0, "mean_seconds": 0.0,
                    "max_seconds": 0.0, "mean_queue_wait_seconds": 0.0,
                    "max_queue_wait_seconds": 0.0}
        durations = [t.duration for t in self.timings]
        waits = [t.queue_wait for t in self.timings]
        return {
            "jobs": len(self.timings),
            "busy_seconds": sum(durations),
            "mean_seconds": sum(durations) / len(durations),
            "max_seconds": max(durations),
            "mean_queue_wait_seconds": sum(waits) / len(waits),
            "max_queue_wait_seconds": max(waits),
        }

    def worker_summary(self) -> List[Dict[str, float]]:
        """Per-worker rows: jobs run, busy time, occupancy.

        Occupancy is the worker's busy time over the total fan-out wall
        (the only window during which it *could* have been busy).
        """
        wall = self.total_wall
        by_worker: Dict[int, List[JobTiming]] = {}
        for timing in self.timings:
            by_worker.setdefault(timing.worker, []).append(timing)
        rows = []
        for worker in sorted(by_worker):
            timings = by_worker[worker]
            busy = sum(t.duration for t in timings)
            rows.append({
                "worker": ("main" if worker == self._parent_pid
                           else f"worker-{worker}"),
                "jobs": len(timings),
                "busy_seconds": busy,
                "occupancy": busy / wall if wall else 0.0,
            })
        return rows


def phase_breakdown(tracer) -> List[Dict[str, float]]:
    """Wall-time totals per span name for ``frame``/``phase``/``harness``
    category spans of a :class:`~repro.obs.trace.ChromeTracer`."""
    totals: Dict[str, Dict[str, float]] = {}
    for event in tracer.spans():
        if event.get("cat") not in ("frame", "phase", "harness"):
            continue
        entry = totals.setdefault(
            event["name"], {"count": 0, "total_ms": 0.0}
        )
        entry["count"] += 1
        entry["total_ms"] += event["dur"] / 1e3
    return [
        {"span": name, "count": entry["count"],
         "total_ms": entry["total_ms"],
         "mean_ms": entry["total_ms"] / entry["count"]}
        for name, entry in sorted(totals.items(),
                                  key=lambda kv: -kv[1]["total_ms"])
    ]
