"""Tests for the experiment harness: runner, tables, experiments."""

import os

import pytest

from repro import GPUConfig, RunSpec, SchedulerSpec
from repro.harness import (
    figure6_energy,
    figure7_time,
    figure8_overshading,
    figure9_redundant_tiles,
    figure10_energy_vs_re,
    figure11_time_vs_re,
    format_table,
    run_benchmark,
    table2_parameters,
    table3_suite,
)
from repro.harness.runner import SuiteRunner
from repro.obs import SchedulerProfiler
from repro.techniques import BASELINE


@pytest.fixture(scope="module")
def runner():
    """Shared memoizing runner on a small config."""
    return SuiteRunner(RunSpec.from_config(GPUConfig.tiny(frames=5)))


class TestFormatTable:
    def test_alignment_and_precision(self):
        text = format_table(["name", "value"], [["a", 1.23456], ["bb", 2]],
                            precision=2)
        lines = text.splitlines()
        assert lines[0].endswith("value")
        assert "1.23" in text
        assert "2" in text

    def test_title(self):
        text = format_table(["x"], [[1]], title="hello")
        assert text.splitlines()[0] == "hello"


class TestRunner:
    def test_run_benchmark_metrics(self):
        metrics = run_benchmark(
            "hop", BASELINE, RunSpec.from_config(GPUConfig.tiny(frames=3)))
        assert metrics.benchmark == "hop"
        assert metrics.mode == "baseline"
        assert metrics.total_cycles > 0
        assert metrics.energy_joules > 0
        assert metrics.redundant_tile_rate == 0.0

    def test_suite_runner_memoizes(self, runner):
        first = runner.run("hop", BASELINE)
        second = runner.run("hop", BASELINE)
        assert first is second

    def test_negative_jobs_fan_out_over_every_core(self, monkeypatch):
        """``scheduler.jobs = -1`` means one worker per CPU core, so the
        sweep must take the pooled path, not the serial loop."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        spec = RunSpec.from_config(GPUConfig.tiny(frames=2),
                                   scheduler=SchedulerSpec(jobs=-1))
        profiler = SchedulerProfiler()
        with SuiteRunner(spec=spec, profiler=profiler) as runner:
            results = runner.run_many(["hop", "cde"], ["baseline", "re"])
            assert runner.jobs == 2
        assert len(results) == 4
        assert len(profiler.batches) == 1
        assert sorted(timing.label for timing in profiler.timings) == [
            "cde:baseline", "cde:re", "hop:baseline", "hop:re"]

    def test_repeated_mode_is_one_cell(self):
        runner = SuiteRunner(RunSpec.from_config(GPUConfig.tiny(frames=2)))
        results = runner.run_many(["hop"], ["evr", "evr"])
        assert list(results) == [("hop", "evr")]
        assert runner.cache_misses == 1

    def test_lone_missing_cell_fans_its_tile_jobs_out(self, monkeypatch):
        """One uncached cell on a pool renders in this process, with its
        frames' tile jobs on the workers one cell job would leave idle;
        its metrics are the serial run's."""
        from repro.pipeline import raster

        # The pool runs a lone job in this process, so the fan-out shows
        # only with several jobs a frame.  ata holds about 530 entries a
        # frame at this size: one job at the default budget, 3 at 256.
        # (At 1196x768 a frame is still some 20 jobs at the default
        # budget; EXPERIMENTS.md, "1024-entry ranges".)
        monkeypatch.setattr(raster, "RANGE_ENTRIES", 256)
        config = GPUConfig.tiny(frames=2)
        profiler = SchedulerProfiler()
        spec = RunSpec.from_config(config, scheduler=SchedulerSpec(jobs=2))
        with SuiteRunner(spec=spec, profiler=profiler) as runner:
            pooled = runner.run("ata", BASELINE)
        labels = [timing.label for timing in profiler.timings]
        assert labels and all(label.startswith("tile ") for label in labels)
        assert {timing.worker for timing in profiler.timings} - {os.getpid()}
        serial = SuiteRunner(RunSpec.from_config(config)).run("ata", BASELINE)
        assert pooled == serial


class TestTables:
    def test_table2_renders(self):
        result = table2_parameters()
        text = result.render()
        assert "1196x768" in text
        assert "cache:l2" in text
        assert "queue:fragment" in text

    def test_table3_lists_suite(self):
        result = table3_suite()
        assert len(result.rows) == 20
        assert "Candy Crush Saga" in result.render()


class TestFigures:
    """Each figure function runs on a 2-benchmark subset for speed; the
    full-suite versions are the bench targets."""

    BENCHES_2D = ["cde", "hop"]
    BENCHES_3D = ["tib"]

    def test_figure6(self, runner):
        result = figure6_energy(runner, benchmarks=self.BENCHES_2D)
        assert result.rows[-1][0] == "average"
        for row in result.rows[:-1]:
            assert 0.0 < row[1] <= 1.5  # normalized energy
        assert "avg_energy_savings" in result.summary

    def test_figure7(self, runner):
        result = figure7_time(runner, benchmarks=self.BENCHES_2D)
        for row in result.rows[:-1]:
            geometry, raster, total = row[1], row[2], row[3]
            assert total == pytest.approx(geometry + raster)

    def test_figure8(self, runner):
        result = figure8_overshading(runner, benchmarks=self.BENCHES_3D)
        for row in result.rows:
            baseline, evr, oracle = row[1], row[2], row[3]
            assert oracle <= evr + 1e-9
            assert evr <= baseline + 1e-9

    def test_figure9(self, runner):
        result = figure9_redundant_tiles(runner, benchmarks=self.BENCHES_2D)
        for row in result.rows[:-1]:
            re_rate, evr_rate, oracle_rate = row[1], row[2], row[3]
            assert 0.0 <= re_rate <= 1.0
            assert evr_rate <= oracle_rate + 0.05

    def test_figure10(self, runner):
        result = figure10_energy_vs_re(runner, benchmarks=self.BENCHES_2D)
        assert result.rows[-1][0] == "average"
        assert result.summary["avg_energy_vs_re"] > 0

    def test_figure11(self, runner):
        result = figure11_time_vs_re(runner, benchmarks=self.BENCHES_2D)
        for row in result.rows[:-1]:
            assert row[3] == pytest.approx(row[1] + row[2])
            assert row[6] == pytest.approx(row[4] + row[5])

    def test_render_does_not_crash(self, runner):
        text = figure9_redundant_tiles(runner,
                                       benchmarks=self.BENCHES_2D).render()
        assert "Figure 9" in text
