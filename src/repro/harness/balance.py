"""Pipeline-balance report: which stage bounds each benchmark.

Runs a benchmark, feeds its steady-state counters to the queue-aware
balance model (:mod:`repro.timing.queues`), and reports per-stage
utilization and the bottleneck for both pipelines — the analysis an
architect would do before sizing queues or adding fragment processors.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..pipeline import GPU
from ..scenes import benchmark_stream
from ..techniques import resolve_technique
from ..timing import geometry_balance, raster_balance
from .experiments import ExperimentResult
from .runner import SuiteRunner


def pipeline_balance_report(
    runner: Optional[SuiteRunner] = None,
    benchmarks: Optional[Sequence[str]] = None,
    mode: object = "baseline",
) -> ExperimentResult:
    """Bottleneck analysis across benchmarks under one pipeline mode,
    with the GPU and the balance model's costs taken from
    ``runner.spec``."""
    mode = resolve_technique(mode)
    spec = (runner or SuiteRunner()).spec
    config = spec.gpu
    rows: List[List[object]] = []
    for alias in benchmarks or ("cde", "tib", "300"):
        stream = benchmark_stream(alias, config)
        result = GPU.from_spec(spec, mode).render_stream(stream)
        stats = result.total_stats()
        for pipeline_name, balance in (
            ("geometry", geometry_balance(stats, config, spec.cost)),
            ("raster", raster_balance(stats, config, spec.cost)),
        ):
            bottleneck = balance.bottleneck
            overlap = (
                balance.pipelined_cycles / balance.additive_cycles
                if balance.additive_cycles
                else 0.0
            )
            rows.append([
                alias,
                pipeline_name,
                bottleneck.name,
                bottleneck.busy_cycles,
                balance.pipelined_cycles,
                overlap,
            ])
    return ExperimentResult(
        "Analysis",
        f"Pipeline balance under {mode.name}: bottleneck stage and "
        "queue-mediated overlap",
        ["benchmark", "pipeline", "bottleneck", "bottleneck cycles",
         "pipelined cycles", "pipelined/additive"],
        rows,
    )
