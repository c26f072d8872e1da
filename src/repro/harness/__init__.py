"""Experiment harness: runs benchmarks and regenerates the paper's figures.

* :mod:`repro.harness.runner` — run one benchmark under one pipeline mode
  and distill a :class:`RunMetrics` record; :class:`SuiteRunner` memoizes
  a sweep.  Every entry point takes a :class:`~repro.spec.RunSpec`.
* :mod:`repro.harness.experiments` — one function per paper table/figure,
  each returning a structured result and able to print the same rows the
  paper plots.  Figures, ablations and analyses share the signature
  ``fn(runner, benchmarks)``.
* :mod:`repro.harness.tables` — plain-text table rendering.
"""

from .alternatives import culling_alternatives
from .balance import pipeline_balance_report
from .timeseries import FrameRecord, frame_series, write_csv
from .report import paper_vs_measured, render_report
from .runner import RunMetrics, run_benchmark
from .tables import format_table
from .ablations import (
    ablation_draw_order,
    ablation_history,
    ablation_prediction_point,
    ablation_subtile,
)
from .experiments import (
    figure6_energy,
    figure7_time,
    figure8_overshading,
    figure9_redundant_tiles,
    figure10_energy_vs_re,
    figure11_time_vs_re,
    table2_parameters,
    table3_suite,
)

__all__ = [
    "RunMetrics",
    "run_benchmark",
    "format_table",
    "table2_parameters",
    "table3_suite",
    "figure6_energy",
    "figure7_time",
    "figure8_overshading",
    "figure9_redundant_tiles",
    "figure10_energy_vs_re",
    "figure11_time_vs_re",
    "ablation_prediction_point",
    "ablation_history",
    "ablation_draw_order",
    "ablation_subtile",
    "paper_vs_measured",
    "render_report",
    "pipeline_balance_report",
    "culling_alternatives",
    "FrameRecord",
    "frame_series",
    "write_csv",
]
