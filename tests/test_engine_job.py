"""Tests for the job envelope's settle step and publish rule.

The rule (:mod:`repro.engine.job`): an attempt's timing and events reach
the profiler and the bus only if its result is kept, and one ``map``
call is one profiler batch — on every scheduler path, the resilient
scheduler's optimistic, supervised-pool and serial passes included.
"""

from __future__ import annotations

import os
import time

import pytest

import repro.engine.scheduler as scheduler_module
from repro.engine import ProcessPoolScheduler, SerialScheduler, make_scheduler
from repro.engine.job import JobRecord, settle
from repro.obs.events import EventBus, MetricSample, get_bus, publishing
from repro.obs.profile import SchedulerProfiler
from repro.resilience import ResilientScheduler, RetryPolicy, ScriptedFaultPlan

# Effectively-zero backoff keeps the retry paths fast.
FAST = RetryPolicy(max_attempts=3, backoff_base=0.001, backoff_max=0.002)


def _nap(n: int) -> int:
    time.sleep(0.02)
    return n


def _emit(n: int) -> int:
    get_bus().emit(MetricSample(name="job", value=float(n)))
    return n


def _emit_then_fail_once(arg):
    """Emits its event, then raises on item 5 exactly once (a flag file
    remembers) — the event of the failed attempt must not survive."""
    n, flag = arg
    get_bus().emit(MetricSample(name="job", value=float(n)))
    if n == 5 and not os.path.exists(flag):
        with open(flag, "w"):
            pass
        raise RuntimeError("transient failure")
    return n


def _job_events(bus_events):
    return sorted(event.value for event in bus_events
                  if isinstance(event, MetricSample) and event.name == "job")


class TestSettle:
    def test_profiler_gets_timing_queue_wait_and_label(self):
        profiler = SchedulerProfiler()
        record = JobRecord("result", 2.0, 3.0, os.getpid())
        assert settle(record, ("ata", "evr"), 4, 1.5, profiler) == "result"
        [timing] = profiler.timings
        assert timing.label == "ata:evr"
        assert (timing.queue_wait, timing.duration) == (0.5, 1.0)
        assert profiler.batches == []  # open until the map closes it
        profiler.close_batch(1.5)
        [batch] = profiler.batches
        assert (batch.submit, batch.end, batch.jobs) == (1.5, 3.0, 1)

    def test_unarmed_map_calls_fn_directly(self, monkeypatch):
        def no_envelope(*args, **kwargs):
            raise AssertionError("envelope built with nothing armed")

        monkeypatch.setattr(scheduler_module, "Job", no_envelope)
        assert SerialScheduler().map(_emit, [1, 2]) == [1, 2]
        with ProcessPoolScheduler(2) as pool:
            assert pool.map(_emit, [1, 2, 3]) == [1, 2, 3]


class TestPublishRule:
    def test_resilient_pool_map_is_one_profiler_batch(self):
        profiler = SchedulerProfiler()
        policy = RetryPolicy(max_attempts=3, timeout_seconds=30)
        with ResilientScheduler(ProcessPoolScheduler(2, profiler=profiler),
                                policy) as scheduler:
            assert scheduler.map(_nap, list(range(8))) == list(range(8))
        assert len(profiler.timings) == 8
        [batch] = profiler.batches
        assert batch.jobs == 8
        assert {timing.batch for timing in profiler.timings} == {0}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_discarded_attempt_records_no_timing(self, jobs):
        plan = ScriptedFaultPlan({("1:0", 1): "corrupt",
                                  ("1:2", 1): "raise"})
        profiler = SchedulerProfiler()
        with ResilientScheduler(make_scheduler(jobs, profiler=profiler),
                                FAST, fault_plan=plan) as scheduler:
            assert scheduler.map(_nap, list(range(4))) == [0, 1, 2, 3]
        assert len(profiler.timings) == 4
        assert [batch.jobs for batch in profiler.batches] == [4]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_discarded_attempt_publishes_no_events(self, jobs):
        plan = ScriptedFaultPlan({("1:0", 1): "corrupt"})
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        with publishing(bus):
            with ResilientScheduler(make_scheduler(jobs), FAST,
                                    fault_plan=plan) as scheduler:
                assert scheduler.map(_emit, [0, 1, 2]) == [0, 1, 2]
        assert _job_events(seen) == [0.0, 1.0, 2.0]

    def test_failed_optimistic_pass_publishes_nothing(self, tmp_path):
        flag = str(tmp_path / "failed-once")
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        with publishing(bus):
            with ResilientScheduler(ProcessPoolScheduler(2),
                                    FAST) as scheduler:
                assert scheduler.map(
                    _emit_then_fail_once, [(n, flag) for n in range(8)]
                ) == list(range(8))
        assert os.path.exists(flag)  # the optimistic pass did fail
        assert _job_events(seen) == [float(n) for n in range(8)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_plain_map_settles_in_submission_order(self, jobs):
        profiler = SchedulerProfiler()
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        with publishing(bus), make_scheduler(jobs,
                                             profiler=profiler) as scheduler:
            assert scheduler.map(_emit, [3, 1, 2]) == [3, 1, 2]
        assert [event.value for event in seen] == [3.0, 1.0, 2.0]
        assert [timing.label for timing in profiler.timings] == [
            "job 0", "job 1", "job 2"]
        assert [batch.jobs for batch in profiler.batches] == [3]
