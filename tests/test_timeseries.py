"""Tests for the per-frame time series and CSV export."""

import csv
import io

import pytest

from repro import GPU, GPUConfig, PipelineMode
from repro.harness import frame_series, write_csv
from repro.obs.metrics import frame_record
from repro.scenes import benchmark_stream


@pytest.fixture(scope="module")
def run_result():
    config = GPUConfig.tiny(frames=4)
    stream = benchmark_stream("cde", config)
    return GPU(config, PipelineMode.EVR).render_stream(stream)


class TestFrameSeries:
    def test_one_record_per_frame(self, run_result):
        records = frame_series(run_result)
        assert [r.frame for r in records] == [0, 1, 2, 3]

    def test_totals_consistent_with_run(self, run_result):
        records = frame_series(run_result)
        series_total = sum(r.total_cycles for r in records)
        run_total = run_result.total_cycles(warmup=0).total
        assert series_total == pytest.approx(run_total)

    def test_warmup_transient_visible(self, run_result):
        """Frames 0-1 skip nothing; steady frames skip (static scene
        regions exist in cde)."""
        records = frame_series(run_result)
        assert records[0].tiles_skipped == 0
        assert records[-1].tiles_skipped > 0

    def test_energy_positive_per_frame(self, run_result):
        assert all(r.energy_joules > 0 for r in frame_series(run_result))

    def test_rows_equal_frame_record(self, run_result):
        """The series and the ``--metrics`` frame records are one
        calculation: every row matches its frame's record exactly."""
        for series_row, frame in zip(frame_series(run_result),
                                     run_result.frames):
            record = frame_record("cde", "evr", frame, run_result.cost_model,
                                  run_result.energy_model,
                                  run_result.features)
            stats = record["stats"]
            assert series_row.as_row() == [
                record["frame"], record["geometry_cycles"],
                record["raster_cycles"], record["total_cycles"],
                record["energy_joules"], stats["tiles_rendered"],
                stats["tiles_skipped"], stats["fragments_shaded"],
                stats["early_z_kills"], stats["predicted_occluded"],
                stats["signature_poisons"],
            ]


class TestCSV:
    def test_csv_roundtrip(self, run_result, tmp_path):
        path = str(tmp_path / "series.csv")
        records = frame_series(run_result)
        write_csv(records, path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(records)
        assert int(rows[2]["frame"]) == 2
        assert float(rows[2]["total_cycles"]) == pytest.approx(
            records[2].total_cycles
        )

    def test_csv_to_file_object(self, run_result):
        buffer = io.StringIO()
        write_csv(frame_series(run_result), buffer)
        assert buffer.getvalue().startswith("frame,")
