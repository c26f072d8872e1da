"""Tests for the scheduler profiler and its observability-only contract."""

from __future__ import annotations

import os

import pytest

from repro.config import GPUConfig
from repro.engine import ProcessPoolScheduler, SerialScheduler
from repro.obs import ChromeTracer, SchedulerProfiler, global_registry, tracing
from repro.obs.profile import phase_breakdown
from repro.pipeline import GPU
from repro.scenes import benchmark_stream
from repro.techniques import EVR

CONFIG = GPUConfig.tiny(frames=3)


def _render(scheduler):
    stream = benchmark_stream("hop", CONFIG)
    gpu = GPU(CONFIG, EVR, scheduler=scheduler)
    return gpu.render_stream(stream)


def _slow_square(n: int) -> int:
    total = 0
    for i in range(2000):
        total += i
    return n * n


class TestProfilerPassThrough:
    def test_results_unchanged_serial(self):
        profiler = SchedulerProfiler()
        scheduler = SerialScheduler(profiler=profiler)
        assert scheduler.map(_slow_square, [3, 1, 2]) == [9, 1, 4]
        assert len(profiler.timings) == 3
        assert len(profiler.batches) == 1

    def test_results_unchanged_pool(self):
        profiler = SchedulerProfiler()
        with ProcessPoolScheduler(2, profiler=profiler) as pool:
            assert pool.map(_slow_square, list(range(8))) == [
                n * n for n in range(8)
            ]
        assert len(profiler.timings) == 8

    def test_profiled_run_bit_identical(self):
        plain = _render(SerialScheduler())
        profiled = _render(SerialScheduler(profiler=SchedulerProfiler()))
        for frame_a, frame_b in zip(plain.frames, profiled.frames):
            assert frame_a.image.tobytes() == frame_b.image.tobytes()
            assert frame_a.stats.as_dict() == frame_b.stats.as_dict()


class TestTimings:
    def test_timings_are_ordered_and_labelled(self):
        profiler = SchedulerProfiler()
        scheduler = SerialScheduler(profiler=profiler)
        scheduler.map(_slow_square, [5, 6])
        first, second = profiler.timings
        assert first.label == "job 0" and second.label == "job 1"
        assert first.end <= second.start  # serial: strictly sequential
        assert first.duration > 0.0
        assert first.queue_wait >= 0.0
        assert first.worker == os.getpid()

    def test_batch_wall_covers_jobs(self):
        profiler = SchedulerProfiler()
        SerialScheduler(profiler=profiler).map(_slow_square, [1, 2, 3])
        [batch] = profiler.batches
        assert batch.jobs == 3
        assert batch.wall >= sum(t.duration for t in profiler.timings)

    def test_pool_workers_differ_from_parent(self):
        profiler = SchedulerProfiler()
        with ProcessPoolScheduler(2, profiler=profiler) as pool:
            pool.map(_slow_square, list(range(8)))
        workers = {t.worker for t in profiler.timings}
        assert os.getpid() not in workers


class TestSummaries:
    def test_job_summary_empty(self):
        assert SchedulerProfiler().job_summary()["jobs"] == 0

    def test_job_and_worker_summaries(self):
        profiler = SchedulerProfiler()
        SerialScheduler(profiler=profiler).map(_slow_square, [1, 2, 3, 4])
        summary = profiler.job_summary()
        assert summary["jobs"] == 4
        assert summary["busy_seconds"] > 0.0
        assert summary["max_seconds"] >= summary["mean_seconds"]
        [worker] = profiler.worker_summary()
        assert worker["worker"] == "main"
        assert worker["jobs"] == 4
        assert 0.0 < worker["occupancy"] <= 1.0

    def test_registry_counters_fed(self):
        registry = global_registry()
        registry.reset()
        profiler = SchedulerProfiler()
        SerialScheduler(profiler=profiler).map(_slow_square, [1, 2])
        assert registry.counter("scheduler.jobs").value == 2
        assert registry.counter("scheduler.batches").value == 1
        assert registry.histogram("scheduler.job_seconds").count == 2
        registry.reset()


class TestTraceIntegration:
    def test_tile_spans_on_main_track_when_serial(self):
        tracer = ChromeTracer()
        profiler = SchedulerProfiler(tracer)
        with tracing(tracer):
            _render(SerialScheduler(profiler=profiler))
        tiles = [e for e in tracer.events if e.get("cat") == "tile"]
        assert tiles
        main_tid = tracer.track_id("main")
        assert {e["tid"] for e in tiles} == {main_tid}

    def test_phase_breakdown_orders_by_total(self):
        tracer = ChromeTracer()
        with tracing(tracer):
            _render(SerialScheduler(profiler=SchedulerProfiler(tracer)))
        rows = phase_breakdown(tracer)
        names = [row["span"] for row in rows]
        assert "frame" in names and "geometry" in names and "raster" in names
        totals = [row["total_ms"] for row in rows]
        assert totals == sorted(totals, reverse=True)
        for row in rows:
            assert row["mean_ms"] * row["count"] == pytest.approx(
                row["total_ms"]
            )
