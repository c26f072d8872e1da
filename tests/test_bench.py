"""Tests for the ``repro bench`` harness (``repro.harness.bench``)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.harness.bench import (
    BENCH_PRESETS,
    check_bench_regression,
    format_bench_summary,
    run_bench,
    write_bench_json,
)


@pytest.fixture(scope="module")
def tiny_record():
    """One real bench run on the tiny preset, both backends, shared by
    the tests below (a run takes a few seconds)."""
    return run_bench("tiny", backends=("numpy", "python"), repeat=1)


class TestPresets:
    def test_known_presets(self):
        assert {"tiny", "default", "scaled", "paper"} <= set(BENCH_PRESETS)

    def test_unknown_preset_raises(self):
        with pytest.raises(ConfigError, match="unknown bench preset"):
            run_bench("nonexistent")

    def test_preset_configs_resolve(self):
        for preset in BENCH_PRESETS.values():
            config = preset.config()
            assert config.screen_width == preset.width
            assert config.frames == preset.frames


class TestRunBench:
    def test_record_shape(self, tiny_record):
        assert tiny_record["preset"] == "tiny"
        assert set(tiny_record["backends"]) == {"numpy", "python"}
        for result in tiny_record["backends"].values():
            assert result["frames"] == BENCH_PRESETS["tiny"].frames
            assert result["frames_per_second"] > 0
            assert result["cache_ops"] > 0
            sweep = result["kernel_sweep"]
            assert sweep["fragments"] > 0
            assert sweep["fragments_per_second"] > 0
            assert sweep["sweep_passes"] == 2

    def test_backends_sweep_same_workload(self, tiny_record):
        sweeps = [result["kernel_sweep"]
                  for result in tiny_record["backends"].values()]
        # Bit-identity: both backends must deliver the same fragments
        # over the same captured display lists.
        assert sweeps[0]["fragments"] == sweeps[1]["fragments"]
        assert sweeps[0]["entries"] == sweeps[1]["entries"]

    def test_speedup_present_and_positive(self, tiny_record):
        speedup = tiny_record["speedup"]
        assert speedup["fragments_per_second"] > 0
        assert speedup["frames_per_second"] > 0
        assert speedup["cache_ops_per_second"] > 0

    def test_machine_info_recorded(self, tiny_record):
        machine = tiny_record["machine"]
        assert machine["numpy_version"]
        assert machine["cpu_model"]
        assert machine["cpu_count"] >= 1
        assert machine["python_version"].count(".") == 2

    def test_memsys_sweep_replays_one_shared_trace(self, tiny_record):
        sweeps = [result["memsys_sweep"]
                  for result in tiny_record["backends"].values()]
        # Both backends replay the same recorded pipeline trace and,
        # being bit-identical, must simulate the same number of cache
        # accesses; only the wall time may differ.
        assert sweeps[0]["trace_ops"] == sweeps[1]["trace_ops"] > 0
        assert sweeps[0]["cache_ops"] == sweeps[1]["cache_ops"] > 0
        for sweep in sweeps:
            assert sweep["best_seconds"] > 0
            assert sweep["cache_ops_per_second"] == pytest.approx(
                sweep["cache_ops"] / sweep["best_seconds"])

    def test_geometry_sweep_replays_the_same_frames(self, tiny_record):
        sweeps = [result["geometry_sweep"]
                  for result in tiny_record["backends"].values()]
        # The warm-up round already asserted identical display lists
        # and stats; both sides replay the same primitives.
        assert sweeps[0]["primitives"] == sweeps[1]["primitives"] > 0
        for sweep in sweeps:
            assert sweep["frames"] == BENCH_PRESETS["tiny"].frames
            assert sweep["primitives_per_second"] == pytest.approx(
                sweep["primitives"] / sweep["best_seconds"])
        assert tiny_record["speedup"]["primitives_per_second"] > 0

    def test_reduce_phase_is_subdivided(self, tiny_record):
        for result in tiny_record["backends"].values():
            phases = result["raster_phase_ms"]
            assert {"reduce", "reduce-replay", "reduce-finalize"} \
                <= set(phases)
            # The sub-spans nest inside the reduce span.
            assert phases["reduce-replay"] + phases["reduce-finalize"] \
                <= phases["reduce"] * 1.01

    def test_summary_mentions_backends(self, tiny_record):
        text = format_bench_summary(tiny_record)
        assert "numpy" in text
        assert "python" in text
        assert "speedup" in text

    def test_json_roundtrip(self, tiny_record, tmp_path):
        path = tmp_path / "BENCH_tiny.json"
        write_bench_json(tiny_record, str(path))
        restored = json.loads(path.read_text())
        assert restored["preset"] == "tiny"
        assert restored["speedup"]["fragments_per_second"] == pytest.approx(
            tiny_record["speedup"]["fragments_per_second"])


class TestKernelSweep:
    def test_divergent_backend_is_refused(self, monkeypatch):
        from repro.harness.bench import _kernel_sweeps, _pipeline_measurement
        from repro.kernels import batched

        jobs = _pipeline_measurement(BENCH_PRESETS["tiny"], "python")["_jobs"]
        prepare_tile = batched.prepare_tile

        class Nudged:
            """The batch's fragments one ulp deeper: the same coverage
            and counts, other depth bits."""

            def __init__(self, batch):
                self._batch = batch

            def fragments(self, index):
                frag = self._batch.fragments(index)
                if frag is None:
                    return None
                return frag._replace(depth=np.nextafter(frag.depth, 2.0))

        monkeypatch.setattr(batched, "prepare_tile",
                            lambda *args: Nudged(prepare_tile(*args)))
        with pytest.raises(AssertionError, match="kernels on backend 'numpy'"):
            _kernel_sweeps(jobs, ("python", "numpy"), repeat=1)


class TestRatioSpread:
    def test_spread_of_paired_rounds(self):
        from repro.harness.bench import ratio_spread

        # Round ratios 2, 4, 5, 8, 10: quartiles 4 and 8 around 5.
        spread = ratio_spread([2.0, 8.0, 5.0, 16.0, 10.0],
                              [1.0, 2.0, 1.0, 2.0, 1.0])
        assert spread == {"rounds": 5, "min": 2.0, "median": 5.0,
                          "max": 10.0, "iqr_over_median": 0.8}

    def test_record_reports_each_gated_ratio(self, tiny_record):
        from repro.harness.bench import GATED_RATIOS

        backends = tiny_record["backends"]
        for key, sweep, label in GATED_RATIOS:
            spread = tiny_record["spread"][key]
            rounds = [backends[backend][sweep]["round_seconds"]
                      for backend in ("python", "numpy")]
            assert spread["rounds"] == len(rounds[0]) == len(rounds[1])
            assert spread["min"] <= spread["median"] <= spread["max"]
            # One round here, and the best round is the only one.
            assert spread["median"] == pytest.approx(
                tiny_record["speedup"][key])
            assert f"{label} ratio over" in format_bench_summary(
                tiny_record)


class TestExecuteSweep:
    def test_replays_the_captured_jobs(self, tiny_record):
        sweeps = [result["execute_sweep"]
                  for result in tiny_record["backends"].values()]
        # The warm-up round already asserted identical tile results.
        assert sweeps[0]["jobs"] == sweeps[1]["jobs"] > 0
        assert sweeps[0]["tiles"] == sweeps[1]["tiles"] >= sweeps[0]["jobs"]
        for sweep in sweeps:
            assert sweep["tiles_per_second"] == pytest.approx(
                sweep["tiles"] / sweep["best_seconds"])
        assert tiny_record["speedup"]["tiles_per_second"] > 0
        assert "execute" in format_bench_summary(tiny_record)

    def test_divergent_backend_is_refused(self, monkeypatch):
        from repro.harness.bench import _execute_sweeps, _pipeline_measurement
        from repro.kernels import batched

        jobs = _pipeline_measurement(BENCH_PRESETS["tiny"], "python")["_jobs"]
        resolve = batched.resolve_range

        def off_by_one(*args):
            run = resolve(*args)
            return run._replace(overdrawn=run.overdrawn + 1)

        monkeypatch.setattr(batched, "resolve_range", off_by_one)
        with pytest.raises(AssertionError, match="tile jobs on backend"):
            _execute_sweeps(jobs, ("python", "numpy"), repeat=1)


class TestGeometrySweep:
    def test_divergent_backend_is_refused(self, monkeypatch):
        from repro.harness.bench import _geometry_sweeps
        from repro.kernels import batched

        preset = BENCH_PRESETS["tiny"]
        frames = list(preset.stream())[:1]
        assemble_frame = batched.assemble_frame

        def drop_last_primitive(*args):
            table = assemble_frame(*args)
            return type(table)(*(column[:-1] if isinstance(column, np.ndarray)
                                 else column for column in table))

        monkeypatch.setattr(batched, "assemble_frame", drop_last_primitive)
        with pytest.raises(AssertionError, match="geometry on backend"):
            _geometry_sweeps(frames, [{}], preset.config(),
                             ("python", "numpy"), repeat=1)


    def test_replay_predicts_from_the_captured_fvp(self):
        from repro.harness.bench import _geometry_once, _pipeline_measurement

        preset = BENCH_PRESETS["tiny"]
        states = _pipeline_measurement(preset, "numpy",
                                       record_trace=True)["_fvp"]
        frames = list(preset.stream())
        assert len(states) == len(frames)
        seeded = _geometry_once(frames, states, preset.config(), "numpy")
        # Frame 0 starts from an empty table, the later ones predict,
        # and Algorithm 1 moves entries to second lists.
        predicted = [stats.predicted_occluded
                     for stats, _, _ in seeded["snapshots"]]
        assert predicted[0] == 0 and all(predicted[1:])
        assert any((lists.split < lists.start[1:]).any()
                   for _, _, lists in seeded["snapshots"][1:])
        empty = _geometry_once(frames, [{}] * len(frames), preset.config(),
                               "numpy")
        assert not any(stats.predicted_occluded
                       for stats, _, _ in empty["snapshots"])


class TestRegressionGate:
    def _record(self, speedup, replay=None):
        out = {"speedup": {"fragments_per_second": speedup}}
        if replay is not None:
            out["speedup"]["cache_ops_per_second"] = replay
        return out

    def _baseline(self, tmp_path, speedup, replay=None):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(self._record(speedup, replay)))
        return str(path)

    def test_clean_when_within_tolerance(self, tmp_path):
        baseline = self._baseline(tmp_path, 10.0)
        assert check_bench_regression(self._record(9.0), baseline,
                                      tolerance=0.2) == []
        # Improvements are always clean.
        assert check_bench_regression(self._record(14.0), baseline,
                                      tolerance=0.2) == []

    def test_fails_below_tolerance_floor(self, tmp_path):
        baseline = self._baseline(tmp_path, 10.0)
        failures = check_bench_regression(self._record(7.9), baseline,
                                          tolerance=0.2)
        assert len(failures) == 1
        assert "regressed" in failures[0]

    def test_missing_speedup_is_a_failure(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"speedup": {}}))
        failures = check_bench_regression(self._record(10.0), str(baseline))
        assert failures

    def test_gates_replay_ratio_when_baselined(self, tmp_path):
        baseline = self._baseline(tmp_path, 10.0, replay=5.0)
        # Both ratios healthy: clean.
        assert check_bench_regression(self._record(10.0, replay=4.5),
                                      baseline, tolerance=0.2) == []
        # Kernel ratio healthy but replay throughput collapsed: fails.
        failures = check_bench_regression(self._record(10.0, replay=3.0),
                                          baseline, tolerance=0.2)
        assert len(failures) == 1
        assert "replay" in failures[0]
        # A record with no replay ratio can't satisfy the baseline.
        failures = check_bench_regression(self._record(10.0), baseline,
                                          tolerance=0.2)
        assert failures

    def test_gates_geometry_ratio_when_baselined(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"speedup": {
            "fragments_per_second": 10.0, "primitives_per_second": 2.0}}))
        record = self._record(10.0)
        record["speedup"]["primitives_per_second"] = 1.7
        assert check_bench_regression(record, str(path),
                                      tolerance=0.2) == []
        record["speedup"]["primitives_per_second"] = 1.5
        failures = check_bench_regression(record, str(path), tolerance=0.2)
        assert len(failures) == 1
        assert "geometry" in failures[0]

    def test_gates_execute_ratio_when_baselined(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"speedup": {
            "fragments_per_second": 10.0, "tiles_per_second": 3.0}}))
        record = self._record(10.0)
        record["speedup"]["tiles_per_second"] = 2.5
        assert check_bench_regression(record, str(path),
                                      tolerance=0.2) == []
        record["speedup"]["tiles_per_second"] = 2.3
        failures = check_bench_regression(record, str(path), tolerance=0.2)
        assert len(failures) == 1
        assert "execute" in failures[0]
        del record["speedup"]["tiles_per_second"]
        assert check_bench_regression(record, str(path), tolerance=0.2)

    def test_old_baseline_without_replay_ratio_still_gates_kernel(
            self, tmp_path):
        baseline = self._baseline(tmp_path, 10.0)
        assert check_bench_regression(self._record(9.0, replay=999.0),
                                      baseline, tolerance=0.2) == []
