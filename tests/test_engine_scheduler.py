"""Determinism of the execution engine across schedulers.

The entire design of :mod:`repro.engine` rests on one property: which
scheduler runs the tile jobs must be unobservable in the results.  These
tests pin it directly — serial and process-pool executions of the same
run must produce bit-identical images and equal metrics.
"""

from __future__ import annotations

import os

import pytest

from repro.config import GPUConfig, default_jobs
from repro.engine import (
    ProcessPoolScheduler,
    SerialScheduler,
    make_scheduler,
)
from repro.harness.runner import run_benchmark
from repro.obs.profile import SchedulerProfiler
from repro.pipeline import GPU
from repro.scenes import benchmark_stream
from repro.spec import RunSpec
from repro.techniques import BASELINE, RE, EVR, Technique

CONFIG = GPUConfig.tiny(frames=3)
MODES = (BASELINE, RE, EVR)

# One 3D benchmark (exercises depth, layers, FVP prediction) and one 2D
# benchmark (UI layers, blending) — the two scene families of Table III.
BENCHMARKS = ("ata", "hop")


def _render(benchmark: str, mode: Technique, scheduler):
    stream = benchmark_stream(benchmark, CONFIG)
    gpu = GPU(CONFIG, mode, scheduler=scheduler)
    return gpu.render_stream(stream)


class TestSchedulerDeterminism:
    @pytest.mark.parametrize("alias", BENCHMARKS)
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name)
    def test_images_bit_identical(self, alias, mode):
        serial = _render(alias, mode, SerialScheduler())
        with ProcessPoolScheduler(2) as pool:
            parallel = _render(alias, mode, pool)
        assert len(serial.frames) == len(parallel.frames)
        for frame_s, frame_p in zip(serial.frames, parallel.frames):
            assert frame_s.image.tobytes() == frame_p.image.tobytes()

    @pytest.mark.parametrize("alias", BENCHMARKS)
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name)
    def test_stats_and_memory_equal(self, alias, mode):
        serial = _render(alias, mode, SerialScheduler())
        with ProcessPoolScheduler(2) as pool:
            parallel = _render(alias, mode, pool)
        for frame_s, frame_p in zip(serial.frames, parallel.frames):
            assert frame_s.stats.as_dict() == frame_p.stats.as_dict()
            assert frame_s.merged_snapshot() == frame_p.merged_snapshot()
            assert frame_s.geometry.dram_cycles == frame_p.geometry.dram_cycles
            assert frame_s.raster.dram_cycles == frame_p.raster.dram_cycles

    def test_run_metrics_equal(self):
        with ProcessPoolScheduler(2) as pool:
            for benchmark in BENCHMARKS:
                spec = RunSpec.from_config(CONFIG)
                serial = run_benchmark(benchmark, EVR, spec)
                parallel = run_benchmark(benchmark, EVR, spec,
                                         scheduler=pool)
                assert serial == parallel


class TestSchedulerProtocol:
    def test_serial_map_preserves_order(self):
        scheduler = SerialScheduler()
        assert scheduler.map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]
        scheduler.close()  # no-op, must not raise

    def test_pool_map_preserves_order(self):
        with ProcessPoolScheduler(2) as pool:
            assert pool.map(_square, list(range(8))) == [
                n * n for n in range(8)
            ]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("profiled", [False, True])
    def test_on_result_sees_each_result_in_submission_order(self, jobs,
                                                           profiled):
        seen = []
        profiler = SchedulerProfiler() if profiled else None
        with make_scheduler(jobs, profiler=profiler) as scheduler:
            results = scheduler.map(_square, [3, 1, 2, 5],
                                    on_result=lambda *pair:
                                    seen.append(pair))
        assert results == [9, 1, 4, 25]
        assert seen == [(0, 9), (1, 1), (2, 4), (3, 25)]

    def test_on_result_keeps_what_settled_before_a_raise(self):
        seen = []
        with ProcessPoolScheduler(2) as pool:
            with pytest.raises(ZeroDivisionError):
                pool.map(_inverse, [1, 0, 2],
                         on_result=lambda *pair: seen.append(pair))
        assert seen == [(0, 1.0)]

    def test_pool_rejects_single_worker(self):
        with pytest.raises(ValueError):
            ProcessPoolScheduler(1)

    def test_make_scheduler_dispatch(self):
        assert isinstance(make_scheduler(None), SerialScheduler)
        assert isinstance(make_scheduler(0), SerialScheduler)
        assert isinstance(make_scheduler(1), SerialScheduler)
        pool = make_scheduler(2)
        assert isinstance(pool, ProcessPoolScheduler)
        assert pool.jobs == 2
        pool.close()

    def test_make_scheduler_negative_uses_all_cores(self):
        pool = make_scheduler(-1)
        try:
            if (os.cpu_count() or 1) >= 2:
                assert isinstance(pool, ProcessPoolScheduler)
                assert pool.jobs == os.cpu_count()
            else:  # single-core machine: all cores == serial
                assert isinstance(pool, SerialScheduler)
        finally:
            pool.close()

    def test_default_jobs_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        assert default_jobs(4) == 4
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        assert default_jobs(2) == 2  # CLI wins over env
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        assert default_jobs() == 1


class TestSchedulerLifecycle:
    """Schedulers are context managers and must not leak executors."""

    def test_serial_context_manager(self):
        with SerialScheduler() as scheduler:
            assert scheduler.map(_square, [2]) == [4]

    def test_pool_context_closes_executor(self):
        with ProcessPoolScheduler(2) as pool:
            pool.map(_square, [1, 2, 3])
            assert pool._executor is not None
        assert pool._executor is None

    def test_pool_context_closes_on_exception(self):
        pool = ProcessPoolScheduler(2)
        with pytest.raises(RuntimeError):
            with pool:
                pool.map(_square, [1, 2, 3])
                raise RuntimeError("boom")
        assert pool._executor is None

    def test_close_is_idempotent(self):
        pool = ProcessPoolScheduler(2)
        pool.map(_square, [1, 2, 3])
        pool.close()
        pool.close()
        assert pool._executor is None

    def test_map_after_close_recreates_executor(self):
        pool = ProcessPoolScheduler(2)
        try:
            pool.map(_square, [1, 2, 3])
            pool.close()
            assert pool.map(_square, [4, 5, 6]) == [16, 25, 36]
        finally:
            pool.close()
        assert pool._executor is None



class TestSchedulerShutdownSafety:
    """Satellite hardening: close()/terminate() must be safe in every
    lifecycle state, including an executor that never started."""

    def test_close_before_any_map(self):
        pool = ProcessPoolScheduler(2)
        pool.close()  # executor never created; must not raise
        pool.close()
        assert pool._executor is None

    def test_terminate_before_any_map(self):
        pool = ProcessPoolScheduler(2)
        pool.terminate()
        pool.terminate()
        assert pool._executor is None

    def test_terminate_kills_live_pool(self):
        pool = ProcessPoolScheduler(2)
        assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
        processes = list(pool._executor._processes.values())
        pool.terminate()
        assert pool._executor is None
        for process in processes:
            process.join(timeout=5.0)
            assert not process.is_alive()
        # The scheduler stays usable: a new executor is built on demand.
        assert pool.map(_square, [4, 5]) == [16, 25]
        pool.close()

    def test_close_survives_shutdown_failure(self):
        pool = ProcessPoolScheduler(2)

        class _ExplodingExecutor:
            def shutdown(self, *args, **kwargs):
                raise RuntimeError("shutdown failed")

        pool._executor = _ExplodingExecutor()
        with pytest.raises(RuntimeError):
            pool.close()
        # The reference was dropped first: no half-closed executor.
        assert pool._executor is None
        pool.close()  # and close stays idempotent afterwards

    def test_del_tolerates_unconstructed_instance(self):
        # __del__ on an instance whose __init__ raised must not error.
        pool = ProcessPoolScheduler.__new__(ProcessPoolScheduler)
        pool.__del__()


def _square(n: int) -> int:
    return n * n


def _inverse(n: int) -> float:
    return 1 / n
