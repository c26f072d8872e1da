"""The benchmark's own tests, at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

from evrbench import bench, catalog, oracle  # noqa: E402
from evrbench.workloads import WORKLOADS  # noqa: E402

TINY_STREAM = WORKLOADS["overdraw-baseline"].scaled(64, 48, 5)
TINY_SWEEP = WORKLOADS["suite-sweep"].scaled(48, 32, 3, apps_3d=1,
                                             apps_2d=1)


@pytest.fixture
def work_dir(tmp_path):
    return str(tmp_path)


def _measure(workload, trace, work_dir):
    lines = []
    attempted, failed, metrics = bench.measure(
        workload, 3, 0.5, trace, work_dir, lines.append)
    line = bench.result_line(attempted, failed, metrics, trace,
                             lines.append)
    return lines, json.loads(line)


def test_every_end_to_end_metric_prints_with_its_unit(work_dir):
    lines, result = _measure(TINY_STREAM, False, work_dir)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m.name for m in catalog.END_TO_END}
    for metric in catalog.END_TO_END:
        assert result["metrics"][metric.name]["unit"] == metric.unit
        assert result["metrics"][metric.name]["value"] > 0, metric.name
        assert any(line.split()[:1] == [metric.name]
                   and f" {metric.unit} " in line for line in lines)


def test_stream_finishes_with_no_failed_operation(work_dir):
    _, result = _measure(TINY_STREAM, False, work_dir)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= TINY_STREAM.frames


def test_sweep_finishes_with_no_failed_operation(work_dir):
    _, result = _measure(TINY_SWEEP, False, work_dir)
    assert result["correct"] and result["failed"] == 0
    # Every cell runs cold and is then read back warm.
    assert result["attempted"] >= 2 * len(TINY_SWEEP.cells(3))


def test_corrupt_pixel_fails_exactly_that_frame(work_dir):
    assert oracle.corrupt_pixel_self_test(TINY_STREAM, 3, work_dir,
                                          frame_index=2) == [2]


@pytest.mark.parametrize("workload", [TINY_STREAM, TINY_SWEEP],
                         ids=["stream", "sweep"])
def test_traced_run_attributes_frame_wall(workload, work_dir):
    _, result = _measure(workload, True, work_dir)
    assert result["failed"] == 0
    metrics = {name: value["value"]
               for name, value in result["metrics"].items()}
    assert set(metrics) == {m.name for m in catalog.PER_LAYER}
    assert metrics["layers.sum_ms"] + metrics["unattributed_ms"] == \
        pytest.approx(metrics["frame.wall_ms"])
    assert 0 < metrics["layers.sum_ms"] <= metrics["frame.wall_ms"] * 1.001
    assert metrics["kernels.prepare_ms"] > 0
    assert metrics["memsys.replay_ms"] > 0


def test_probe_leaves_the_program_as_it_found_it():
    from repro.commands import FrameStream
    from repro.engine.tile_job import TileJob
    from repro.harness import runner
    from repro.kernels import batched
    from repro.memsys import BatchedMemorySystem
    from repro.obs.trace import get_tracer
    from evrbench.layers import Probe

    owners = (FrameStream, TileJob, runner, batched, BatchedMemorySystem)
    before = [dict(vars(owner)) for owner in owners]
    tracer = get_tracer()
    with Probe():
        assert batched.prepare_tile is not before[3]["prepare_tile"]
        assert get_tracer() is not tracer
    assert [dict(vars(owner)) for owner in owners] == before
    assert get_tracer() is tracer


def test_seed_105_renders_the_legacy_scaled_preset():
    from repro.engine.scheduler import SerialScheduler
    from repro.pipeline import GPU

    workload = WORKLOADS["scaled-evr"].scaled(192, 160, 10)
    result = GPU(workload.config(), "evr",
                 scheduler=SerialScheduler()).render_stream(
                     workload.stream(105))
    cache_ops = sum(counters.get("accesses", 0)
                    for frame in result.frames
                    for units in (frame.geometry.units, frame.raster.units)
                    for counters in units.values())
    assert result.total_stats(warmup=0).fragments_shaded == 600063
    assert cache_ops == 1367150


def test_benchmark_json_matches_the_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert declared == catalog.benchmark_json(WORKLOADS.values())
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in declared["end_to_end"])}]
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


def test_manifest_describes_every_workload_and_metric():
    with open(os.path.join(BENCH_DIR, "manifest.json")) as handle:
        manifest = json.load(handle)
    assert set(manifest["workloads"]) == set(WORKLOADS)
    for name, entry in manifest["workloads"].items():
        assert entry["why"] == WORKLOADS[name].why
    declared = {**manifest["end_to_end"], **manifest["per_layer"]}
    for metric in catalog.END_TO_END + catalog.PER_LAYER:
        assert declared[metric.name] == {
            "unit": metric.unit, "better": metric.better,
            "kind": metric.kind, "description": metric.description}
