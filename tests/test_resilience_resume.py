"""Resuming a killed suite sweep from the run cache.

The contract under test: the run cache is the sweep's only checkpoint.
A sweep killed at any point leaves every cell it settled in the cache,
so re-running the same sweep recomputes only the rest, bit-identically;
a failed cell is never cached; and an entry is on disk before it is
visible.
"""

from __future__ import annotations

import math
import os

import pytest

import repro.harness.runner as runner_module
from repro.config import GPUConfig
from repro.engine import DiskCache
from repro.harness.runner import RunMetrics, SuiteRunner, failed_metrics
from repro.resilience import RetryPolicy, ScriptedFaultPlan
from repro.spec import RunSpec
from repro.techniques import BASELINE, RE, EVR

SPEC = RunSpec.from_config(GPUConfig.tiny(frames=2))
FAST = RetryPolicy(max_attempts=2, backoff_base=0.001, backoff_max=0.002)


class TestResumeFromCache:
    @pytest.mark.parametrize("policy", [None, FAST],
                             ids=["plain", "resilient"])
    def test_interrupted_then_rerun_is_bit_identical(self, tmp_path,
                                                     monkeypatch, policy):
        # Reference: one uninterrupted sweep (no cache, no resilience).
        with SuiteRunner(SPEC) as runner:
            reference = runner.run_many(["hop"], [BASELINE, EVR])
        # Pass 1 is killed while it simulates its second cell.
        simulate = runner_module.run_benchmark

        def killed_at_evr(benchmark, mode, spec=None, scheduler=None):
            if mode == EVR:
                raise KeyboardInterrupt
            return simulate(benchmark, mode, spec=spec, scheduler=scheduler)

        with monkeypatch.context() as patch, \
                pytest.raises(KeyboardInterrupt):
            patch.setattr(runner_module, "run_benchmark", killed_at_evr)
            with SuiteRunner(SPEC, cache_dir=str(tmp_path),
                             retry_policy=policy) as runner:
                runner.run_many(["hop"], [BASELINE, EVR])
        # Pass 2 re-runs the same sweep: BASELINE comes from the cache,
        # only EVR is computed.
        with SuiteRunner(SPEC, cache_dir=str(tmp_path),
                         retry_policy=policy) as runner:
            rerun = runner.run_many(["hop"], [BASELINE, EVR])
            assert runner.cache_hits == 1
            assert runner.cache_misses == 1
            assert "1 hits, 1 misses" in runner.cache_summary()
        assert rerun == reference

    def test_rerun_skips_all_finished_work(self, tmp_path):
        modes = [BASELINE, RE]
        with SuiteRunner(SPEC, cache_dir=str(tmp_path),
                         retry_policy=FAST) as runner:
            first = runner.run_many(["hop"], modes)
        with SuiteRunner(SPEC, cache_dir=str(tmp_path),
                         retry_policy=FAST) as runner:
            second = runner.run_many(["hop"], modes)
            assert runner.cache_hits == 2
            assert runner.cache_misses == 0
        assert second == first


class TestDurableEntries:
    def test_put_fsyncs_entry_before_publishing_it(self, tmp_path,
                                                   monkeypatch):
        # Each call is recorded with the inode it touches, so the test
        # sees that the file renamed into place is the one fsynced.
        calls = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def recording_replace(source, destination):
            calls.append(("replace", os.stat(source).st_ino))
            replace(source, destination)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        cache = DiskCache(str(tmp_path))
        cache.put("cell", {"x": 1.0})
        inode = os.stat(cache.path_for("cell")).st_ino
        assert calls == [("fsync", inode), ("replace", inode)]
        assert cache.get("cell") == {"x": 1.0}


class TestGracefulDegradation:
    def test_failed_cell_becomes_nan_placeholder(self):
        # Suite job 0 fails on every permitted attempt.
        plan = ScriptedFaultPlan({("1:0", attempt): "raise"
                                  for attempt in (1, 2)})
        with SuiteRunner(SPEC, retry_policy=FAST,
                         fault_plan=plan) as runner:
            results = runner.run_many(
                ["hop"], [BASELINE, EVR]
            )
            assert len(runner.failures) == 1
            assert "1 cells FAILED" in runner.cache_summary()
            summary = runner.metrics_records()[-1]
            assert summary["failures"] == 1
            assert summary["failed_cells"] == ["hop:baseline"]
        failed = results[("hop", "baseline")]
        assert failed.failed
        assert math.isnan(failed.energy_joules)
        assert math.isnan(failed.energy_breakdown["dram"])  # any component
        healthy = results[("hop", "evr")]
        assert not healthy.failed

    def test_failed_cell_is_recomputed_on_rerun(self, tmp_path):
        plan = ScriptedFaultPlan({("1:0", attempt): "raise"
                                  for attempt in (1, 2)})
        with SuiteRunner(SPEC, cache_dir=str(tmp_path), retry_policy=FAST,
                         fault_plan=plan) as runner:
            runner.run_many(["hop"], [BASELINE])
            assert runner.failures
        assert DiskCache(str(tmp_path)).size() == 0  # never cached
        # The re-run runs without a fault plan (the transient condition
        # cleared) and must recompute the failed cell.
        with SuiteRunner(SPEC, cache_dir=str(tmp_path),
                         retry_policy=FAST) as runner:
            results = runner.run_many(["hop"], [BASELINE])
            assert (runner.cache_hits, runner.cache_misses) == (0, 1)
            assert not runner.failures
        assert not results[("hop", "baseline")].failed

    def test_failed_metrics_shape(self):
        metrics = failed_metrics("hop", EVR, "boom")
        assert isinstance(metrics, RunMetrics)
        assert metrics.error == "boom"
        assert math.isnan(metrics.total_cycles)
        assert math.isnan(metrics.energy_breakdown["anything"])
