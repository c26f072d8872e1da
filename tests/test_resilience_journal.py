"""Tests for the checkpoint journal and ``--resume`` semantics.

The contract under test: a suite run killed at any instant leaves a
journal describing exactly the cells that finished, and a resumed run
replays those cells *bit-identically* while recomputing only the rest.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.config import GPUConfig
from repro.harness.runner import RunMetrics, SuiteRunner, failed_metrics
from repro.resilience import RetryPolicy, RunJournal, ScriptedFaultPlan
from repro.spec import ResilienceSpec, RunSpec
from repro.techniques import BASELINE, RE, EVR

CONFIG = GPUConfig.tiny(frames=2)
FAST = RetryPolicy(max_attempts=2, backoff_base=0.001, backoff_max=0.002)


def _spec(config: GPUConfig = CONFIG, resume: bool = False) -> RunSpec:
    return RunSpec.from_config(config,
                               resilience=ResilienceSpec(resume=resume))


class TestRunJournal:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with RunJournal(path, "suite-a") as journal:
            journal.record_ok("ata", "evr", {"energy_joules": 1.25e-05})
            journal.record_failed("hop", "re", "worker died")
        entries = RunJournal(path, "suite-a").load()
        assert entries[("ata", "evr")]["status"] == "ok"
        assert entries[("ata", "evr")]["metrics"] == {
            "energy_joules": 1.25e-05
        }
        assert entries[("hop", "re")] == {
            "record": "result", "benchmark": "hop", "mode": "re",
            "status": "failed", "error": "worker died",
        }

    def test_floats_roundtrip_exactly(self, tmp_path):
        # JSON float repr round-trips in Python — the property that
        # makes journal-resumed metrics bit-identical.
        value = 6.222743129999999e-05
        path = str(tmp_path / "journal.jsonl")
        with RunJournal(path, "k") as journal:
            journal.record_ok("b", "m", {"x": value})
        loaded = RunJournal(path, "k").load()[("b", "m")]["metrics"]["x"]
        assert loaded == value

    def test_later_records_win(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with RunJournal(path, "k") as journal:
            journal.record_failed("b", "m", "first pass died")
            journal.record_ok("b", "m", {"x": 1.0})
        assert RunJournal(path, "k").load()[("b", "m")]["status"] == "ok"

    def test_missing_file_loads_empty(self, tmp_path):
        journal = RunJournal(str(tmp_path / "absent.jsonl"), "k")
        assert journal.load() == {}

    def test_foreign_suite_key_ignored_and_overwritten(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with RunJournal(path, "suite-a") as journal:
            journal.record_ok("ata", "evr", {"x": 1.0})
        other = RunJournal(path, "suite-b")
        assert other.load() == {}  # stale checkpoints never leak
        other.open()  # a mismatched journal is rewritten, not appended
        other.close()
        assert RunJournal(path, "suite-a").load() == {}
        assert RunJournal(path, "suite-b").load() == {}

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with RunJournal(path, "k") as journal:
            journal.record_ok("ata", "evr", {"x": 1.0})
            journal.record_ok("hop", "re", {"x": 2.0})
        with open(path, "a") as handle:
            handle.write('{"record": "result", "benchmark": "tru')  # SIGKILL
        entries = RunJournal(path, "k").load()
        assert set(entries) == {("ata", "evr"), ("hop", "re")}

    def test_resume_appends_to_matching_journal(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with RunJournal(path, "k") as journal:
            journal.record_ok("ata", "evr", {"x": 1.0})
        journal = RunJournal(path, "k")
        journal.open(fresh=False)
        journal.record_ok("hop", "re", {"x": 2.0})
        journal.close()
        assert len(RunJournal(path, "k").load()) == 2

    def test_fresh_open_truncates(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with RunJournal(path, "k") as journal:
            journal.record_ok("ata", "evr", {"x": 1.0})
        journal = RunJournal(path, "k")
        journal.open(fresh=True)
        journal.close()
        assert RunJournal(path, "k").load() == {}


class TestSuiteRunnerResume:
    def _runner(self, tmp_path, resume, **kwargs):
        return SuiteRunner(_spec(resume=resume), retry_policy=FAST,
                           journal_dir=str(tmp_path), **kwargs)

    def test_interrupted_then_resumed_is_bit_identical(self, tmp_path):
        # Reference: one uninterrupted sweep (no journal, no resilience).
        with SuiteRunner(_spec()) as runner:
            reference = runner.run_many(
                ["hop"], [BASELINE, EVR]
            )
        # Pass 1 "dies" after completing only the BASELINE cell.
        with self._runner(tmp_path, resume=False) as runner:
            runner.run_many(["hop"], [BASELINE])
        # Pass 2 resumes: replays BASELINE, computes only EVR.
        with self._runner(tmp_path, resume=True) as runner:
            resumed = runner.run_many(
                ["hop"], [BASELINE, EVR]
            )
            assert runner.journal_hits == 1
            assert runner.cache_misses == 1
            assert "journal: 1 cells resumed" in runner.cache_summary()
        assert resumed == reference

    def test_resume_skips_all_finished_work(self, tmp_path):
        modes = [BASELINE, RE]
        with self._runner(tmp_path, resume=False) as runner:
            first = runner.run_many(["hop"], modes)
        with self._runner(tmp_path, resume=True) as runner:
            second = runner.run_many(["hop"], modes)
            assert runner.journal_hits == 2
            assert runner.cache_misses == 0
        assert second == first

    def test_without_resume_journal_is_restarted(self, tmp_path):
        with self._runner(tmp_path, resume=False) as runner:
            runner.run_many(["hop"], [BASELINE])
        with self._runner(tmp_path, resume=False) as runner:
            runner.run_many(["hop"], [BASELINE])
            assert runner.journal_hits == 0
            assert runner.cache_misses == 1

    def test_config_change_invalidates_journal(self, tmp_path):
        with self._runner(tmp_path, resume=False) as runner:
            runner.run_many(["hop"], [BASELINE])
        other = GPUConfig.tiny(frames=3)
        with SuiteRunner(_spec(other, resume=True), retry_policy=FAST,
                         journal_dir=str(tmp_path)) as runner:
            runner.run_many(["hop"], [BASELINE])
            assert runner.journal_hits == 0


class TestGracefulDegradation:
    def test_failed_cell_becomes_nan_placeholder(self, tmp_path):
        # Suite job 0 fails on every permitted attempt.
        plan = ScriptedFaultPlan({("1:0", attempt): "raise"
                                  for attempt in (1, 2)})
        with SuiteRunner(_spec(), retry_policy=FAST, fault_plan=plan,
                         journal_dir=str(tmp_path)) as runner:
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

    def test_failed_cells_are_retried_on_resume(self, tmp_path):
        plan = ScriptedFaultPlan({("1:0", attempt): "raise"
                                  for attempt in (1, 2)})
        with SuiteRunner(_spec(), retry_policy=FAST, fault_plan=plan,
                         journal_dir=str(tmp_path)) as runner:
            runner.run_many(["hop"], [BASELINE])
            assert runner.failures
        # The resumed pass runs without a fault plan (the transient
        # condition cleared) and must recompute the failed cell.
        with SuiteRunner(_spec(resume=True), retry_policy=FAST,
                         journal_dir=str(tmp_path)) as runner:
            results = runner.run_many(["hop"], [BASELINE])
            assert runner.journal_hits == 0  # failed cells are not replayed
            assert not runner.failures
        assert not results[("hop", "baseline")].failed

    def test_failed_metrics_shape(self):
        metrics = failed_metrics("hop", EVR, "boom")
        assert isinstance(metrics, RunMetrics)
        assert metrics.error == "boom"
        assert math.isnan(metrics.total_cycles)
        assert math.isnan(metrics.energy_breakdown["anything"])

    def test_journal_records_failure(self, tmp_path):
        plan = ScriptedFaultPlan({("1:0", attempt): "raise"
                                  for attempt in (1, 2)})
        with SuiteRunner(_spec(), retry_policy=FAST, fault_plan=plan,
                         journal_dir=str(tmp_path)) as runner:
            runner.run_many(["hop"], [BASELINE])
            journal_path = runner._journal.path
        records = [json.loads(line) for line in open(journal_path)]
        failed = [r for r in records if r.get("status") == "failed"]
        assert len(failed) == 1
        assert (failed[0]["benchmark"], failed[0]["mode"]) == (
            "hop", "baseline"
        )
