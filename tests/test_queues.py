"""Tests for the pipeline-balance (queue) model."""

import pytest

from repro import GPU, GPUConfig, RunSpec
from repro.harness.balance import pipeline_balance_report
from repro.harness.runner import SuiteRunner
from repro.scenes import benchmark_stream
from repro.techniques import BASELINE, EVR
from repro.timing import (
    FrameStats,
    PipelineBalance,
    StageLoad,
    geometry_balance,
    raster_balance,
)


class TestPipelineBalanceMath:
    def _balance(self):
        return PipelineBalance([
            StageLoad("a", 10, 100.0),
            StageLoad("b", 10, 400.0, upstream_queue_entries=15),
            StageLoad("c", 10, 50.0, upstream_queue_entries=3),
        ])

    def test_bottleneck(self):
        assert self._balance().bottleneck.name == "b"

    def test_additive_is_sum(self):
        assert self._balance().additive_cycles == 550.0

    def test_pipelined_between_bottleneck_and_additive(self):
        balance = self._balance()
        assert balance.bottleneck.busy_cycles <= balance.pipelined_cycles
        assert balance.pipelined_cycles <= balance.additive_cycles

    def test_pipelined_formula(self):
        balance = self._balance()
        # a has no upstream queue: fully exposed (100); c: 50/(1+3).
        assert balance.pipelined_cycles == pytest.approx(
            400.0 + 100.0 + 50.0 / 4.0
        )

    def test_deeper_queue_hides_more(self):
        shallow = PipelineBalance([
            StageLoad("a", 1, 100.0),
            StageLoad("b", 1, 50.0, upstream_queue_entries=1),
        ])
        deep = PipelineBalance([
            StageLoad("a", 1, 100.0),
            StageLoad("b", 1, 50.0, upstream_queue_entries=63),
        ])
        assert deep.pipelined_cycles < shallow.pipelined_cycles

    def test_utilization_normalized_to_bottleneck(self):
        utilization = self._balance().utilization()
        assert utilization["b"] == 1.0
        assert utilization["a"] == pytest.approx(0.25)


class TestStageConstruction:
    def test_geometry_stages_named_after_figure1(self):
        balance = geometry_balance(FrameStats(), GPUConfig.default())
        names = [stage.name for stage in balance.stages]
        assert names == [
            "command-processor", "vertex-processor",
            "primitive-assembly", "polygon-list-builder",
        ]

    def test_raster_stages_named_after_figure1(self):
        balance = raster_balance(FrameStats(), GPUConfig.default())
        names = [stage.name for stage in balance.stages]
        assert names == [
            "tile-scheduler", "rasterizer", "early-z",
            "fragment-processors", "blend",
        ]

    def test_queue_depths_come_from_table2(self):
        config = GPUConfig.default()
        balance = raster_balance(FrameStats(), config)
        fragment_stage = balance.stages[3]
        assert fragment_stage.upstream_queue_entries == 64


class TestOnRealWorkloads:
    def test_fragment_processors_bound_raster(self):
        """On shading-heavy scenes the fragment processors are the
        bottleneck — the architectural premise of removing ineffectual
        fragments."""
        config = GPUConfig.tiny(frames=3)
        stream = benchmark_stream("tib", config)
        result = GPU(config, BASELINE).render_stream(stream)
        balance = raster_balance(result.total_stats(), config)
        assert balance.bottleneck.name == "fragment-processors"

    def test_evr_relieves_the_bottleneck(self):
        config = GPUConfig.tiny(frames=5)
        stream = benchmark_stream("tib", config)
        base = GPU(config, BASELINE).render_stream(stream)
        evr = GPU(config, EVR).render_stream(stream)
        base_balance = raster_balance(base.total_stats(), config)
        evr_balance = raster_balance(evr.total_stats(), config)
        assert (
            evr_balance.bottleneck.busy_cycles
            < base_balance.bottleneck.busy_cycles
        )

    def test_report_renders(self):
        runner = SuiteRunner(RunSpec.from_config(GPUConfig.tiny(frames=3)))
        result = pipeline_balance_report(runner, benchmarks=["hop"])
        text = result.render()
        assert "bottleneck" in text
        assert len(result.rows) == 2  # geometry + raster
