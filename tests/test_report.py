"""Tests for the paper-vs-measured report plumbing.

The full report runs the entire suite (exercised by the bench targets
and ``python -m repro report``); these tests check the claim registry
and the extraction plumbing on a reduced suite.
"""

import pytest

from repro import GPUConfig, RunSpec
from repro.harness.report import _claims, paper_vs_measured, render_report
from repro.harness.runner import SuiteRunner


class TestClaimRegistry:
    def test_every_figure_covered(self):
        experiments = {claim.experiment for claim in _claims()}
        assert experiments == {
            "Figure 6", "Figure 7", "Figure 8", "Figure 9",
            "Figure 10", "Figure 11",
        }

    def test_paper_values_sane(self):
        for claim in _claims():
            assert 0.0 < claim.paper_value <= 1.0
            assert claim.metric
            assert callable(claim.extract)


class TestReducedSuiteReport:
    @pytest.fixture(scope="class")
    def runner(self):
        return SuiteRunner(RunSpec.from_config(GPUConfig.tiny(frames=4)))

    def test_rows_schema(self, runner, monkeypatch):
        # Reduce every figure to a two-benchmark subset for speed.
        import repro.harness.report as report_module

        subset = ["tib", "cde"]
        originals = {}
        for name in ("figure6_energy", "figure7_time",
                     "figure8_overshading", "figure9_redundant_tiles",
                     "figure10_energy_vs_re", "figure11_time_vs_re"):
            figure = getattr(report_module, name)
            originals[name] = figure
            if name == "figure8_overshading":
                benchmarks = ["tib"]
            else:
                benchmarks = subset
            monkeypatch.setattr(
                report_module, name,
                (lambda fig, marks: lambda r, benchmarks=None:
                 fig(r, benchmarks=marks))(figure, benchmarks),
            )
        rows = paper_vs_measured(runner)
        assert len(rows) == len(_claims())
        for row in rows:
            assert set(row) == {"experiment", "metric", "paper",
                                "measured", "note"}
            assert isinstance(row["measured"], float)

    def test_render_report_markdown(self, runner, monkeypatch):
        import repro.harness.report as report_module

        for name in ("figure6_energy", "figure7_time",
                     "figure8_overshading", "figure9_redundant_tiles",
                     "figure10_energy_vs_re", "figure11_time_vs_re"):
            figure = getattr(report_module, name)
            benchmarks = ["tib"]
            monkeypatch.setattr(
                report_module, name,
                (lambda fig, marks: lambda r, benchmarks=None:
                 fig(r, benchmarks=marks))(figure, benchmarks),
            )
        text = render_report(runner)
        assert text.startswith("# Paper vs measured")
        assert "| Figure 9 |" in text
        assert "```" in text
