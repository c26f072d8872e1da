"""Tests for the HTML dashboard (:mod:`repro.obs.dashboard`).

The contract: one self-contained file — inline CSS and SVG only, no
scripts, no external references — whose panels are populated from the
ledger/event-log/metrics inputs when data exists and degrade to
explicit "no data" notes when it doesn't.
"""

from __future__ import annotations

import json
import re

from repro.cli import main
from repro.obs.dashboard import (
    build_dashboard,
    effectiveness_panel,
    memsys_panel,
    occupancy_panel,
    phase_panel,
    trajectory_panel,
    write_dashboard,
)
from repro.harness.runner import RunMetrics
from repro.obs.events import EventBus, JsonlEventWriter, TileJobFinished
from repro.obs.ledger import RunLedger


def make_metrics(benchmark="hop", mode="evr", redundant=0.35):
    return RunMetrics(
        benchmark=benchmark, mode=mode, geometry_cycles=1000.0,
        raster_cycles=2000.0, energy_joules=0.25,
        energy_breakdown={"l2": 0.1}, shaded_fragments_per_pixel=1.2,
        redundant_tile_rate=redundant, overshading_kills=0,
        predicted_occluded_rate=0.4,
    )


def seeded_ledger(tmp_path):
    ledger = RunLedger(str(tmp_path / "ledger"))
    for benchmark in ("hop", "cde"):
        for mode, rate in (("re", 0.45), ("evr", 0.35), ("oracle", 0.9)):
            ledger.record_run(
                "h", make_metrics(benchmark=benchmark, mode=mode,
                                  redundant=rate),
                phases={"geometry": 0.1, "raster": 0.4},
            )
    for fps in (2.0, 2.2, 2.1):
        ledger.record_bench({
            "preset": "default",
            "speedup": {"frames_per_second": fps,
                        "cache_ops_per_second": fps * 2},
            "backends": {},
        })
    return ledger


def event_log(tmp_path):
    path = str(tmp_path / "events.jsonl")
    bus = EventBus()
    writer = JsonlEventWriter(path)
    bus.subscribe(writer)
    for tile, (worker, start) in enumerate(
        [(100, 1.0), (101, 1.1), (100, 1.4), (101, 1.5)]
    ):
        bus.emit(TileJobFinished(tile=tile, fragments=64, worker=worker,
                                 start=start, end=start + 0.2))
    writer.close()
    return path


def metrics_export(tmp_path):
    path = str(tmp_path / "metrics.jsonl")
    record = {
        "record": "registry",
        "counters": {"memsys.line_accesses": 1000,
                     "memsys.collapsed_runs": 400,
                     "memsys.batch_lanes": 64,
                     "memsys.closed_form_lanes": 48,
                     "memsys.scalar_tail_lanes": 8},
        "gauges": {},
        "histograms": {"memsys.drain_batch_ops":
                       {"count": 10, "sum": 320.0, "min": 8.0,
                        "max": 64.0, "mean": 32.0}},
    }
    with open(path, "w") as handle:
        handle.write(json.dumps({"record": "spec"}) + "\n")
        handle.write(json.dumps(record) + "\n")
    return path


class TestSelfContainment:
    def test_no_scripts_or_external_references(self, tmp_path):
        page = build_dashboard(seeded_ledger(tmp_path),
                               events_path=event_log(tmp_path),
                               metrics_path=metrics_export(tmp_path))
        assert "<script" not in page
        assert "http://" not in page and "https://" not in page
        # No external resource loads: every src=/href= would be one.
        assert not re.search(r'\b(src|href)\s*=', page)
        assert page.startswith("<!DOCTYPE html>")
        assert "<svg" in page and "<style>" in page

    def test_write_dashboard_creates_file(self, tmp_path):
        path = str(tmp_path / "dash.html")
        assert write_dashboard(path, seeded_ledger(tmp_path)) == path
        with open(path) as handle:
            assert "repro dashboard" in handle.read()


class TestPanels:
    def test_effectiveness_panel_draws_benchmarks_and_modes(self, tmp_path):
        panel = effectiveness_panel(seeded_ledger(tmp_path).entries())
        assert "<svg" in panel
        assert "hop" in panel and "cde" in panel
        assert "evr" in panel and "oracle" in panel

    def test_trajectory_panel_draws_ratio_series(self, tmp_path):
        panel = trajectory_panel(seeded_ledger(tmp_path).entries())
        assert "<svg" in panel and "polyline" in panel
        assert "frames_per_second" in panel

    def test_phase_panel_stacks_measured_phases(self, tmp_path):
        panel = phase_panel(seeded_ledger(tmp_path).entries())
        assert "<svg" in panel
        assert "geometry" in panel and "raster" in panel

    def test_occupancy_panel_one_lane_per_worker(self, tmp_path):
        panel = occupancy_panel(event_log(tmp_path))
        assert "<svg" in panel
        assert "pid 100" in panel and "pid 101" in panel

    def test_memsys_panel_derives_ratios(self, tmp_path):
        panel = memsys_panel(metrics_export(tmp_path))
        # 400/1000 collapse ratio, 48/64 closed-form set fraction and
        # 8/64 tail fraction.
        assert "40.00%" in panel
        assert "closed-form set fraction" in panel and "75.00%" in panel
        assert "12.50%" in panel

    def test_empty_inputs_render_explicit_notes(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "empty"))
        page = build_dashboard(ledger)
        assert page.count('class="empty"') >= 4
        assert "no run entries" in page


class TestDashboardCli:
    def test_dashboard_command(self, tmp_path, capsys):
        ledger = seeded_ledger(tmp_path)
        out_path = str(tmp_path / "dash.html")
        assert main(["dashboard", "--output", out_path,
                     "--ledger", ledger.directory,
                     "--events", event_log(tmp_path),
                     "--metrics", metrics_export(tmp_path)]) == 0
        assert "dashboard (9 ledger entries)" in capsys.readouterr().out
        with open(out_path) as handle:
            page = handle.read()
        assert "<script" not in page and "<svg" in page
