"""One function per paper table/figure.

Each function runs (or reuses) the required simulations and returns an
:class:`ExperimentResult` whose rows mirror what the paper plots:

========  ==========================================================
Table II  GPU simulation parameters
Table III benchmark suite inventory
Figure 6  EVR energy normalized to the baseline GPU (+ overheads)
Figure 7  EVR execution time normalized to baseline (Geometry/Raster)
Figure 8  shaded fragments per pixel: Baseline / EVR / Oracle (3D)
Figure 9  % redundant tiles detected: RE / EVR / Oracle
Figure 10 EVR energy normalized to RE
Figure 11 RE and EVR execution time vs baseline (Geometry/Raster)
========  ==========================================================

The paper's numbers come from 60 frames of 20 commercial apps on a
cycle-accurate simulator; ours from synthetic scenes on an event-cost
model, so absolute values differ — the *shape* (who wins, roughly by how
much, where the exceptions are) is the reproduction target, recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..config import GPUConfig
from ..techniques import BASELINE, EVR, EVR_REORDER_ONLY, ORACLE, RE
from ..scenes import BENCHMARKS, benchmark_names
from .runner import SuiteRunner
from .tables import format_table


@dataclass
class ExperimentResult:
    """Structured output of one table/figure regeneration."""

    experiment: str
    title: str
    headers: List[str]
    rows: List[List[object]]
    summary: Dict[str, float] = field(default_factory=dict)

    def render(self, precision: int = 3) -> str:
        text = format_table(self.headers, self.rows,
                            title=f"[{self.experiment}] {self.title}",
                            precision=precision)
        if self.summary:
            summary = "  ".join(
                f"{key}={value:.3f}" for key, value in self.summary.items()
            )
            text += f"\n{summary}"
        return text


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table2_parameters(config: Optional[GPUConfig] = None) -> ExperimentResult:
    """Table II: the simulated GPU's parameters."""
    config = config or GPUConfig.paper()
    rows: List[List[object]] = [
        [key, str(value)] for key, value in config.describe().items()
    ]
    for cache in config.caches:
        rows.append([
            f"cache:{cache.name}",
            f"{cache.size_bytes // 1024} KB, {cache.associativity}-way, "
            f"{cache.line_bytes} B lines, {cache.banks} bank(s), "
            f"{cache.latency_cycles} cycle(s)",
        ])
    for queue in config.queues:
        rows.append([
            f"queue:{queue.name}",
            f"{queue.entries} entries, {queue.entry_bytes} B/entry",
        ])
    rows.append(["lgt", f"{config.num_tiles} entries, {config.lgt_entry_bytes} B/entry"])
    rows.append(["fvp_table", f"{config.num_tiles} entries, {config.fvp_entry_bytes} B/entry"])
    rows.append(["layer_buffer", f"{config.layer_buffer_bytes} B"])
    return ExperimentResult(
        "Table II", "GPU simulation parameters", ["parameter", "value"], rows
    )


def table3_suite() -> ExperimentResult:
    """Table III: the benchmark suite."""
    rows = [
        [info.alias, info.title, info.genre, info.scene_type]
        for info in BENCHMARKS.values()
    ]
    return ExperimentResult(
        "Table III", "Benchmark suite",
        ["alias", "benchmark", "genre", "type"], rows,
    )


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------

def figure6_energy(runner: Optional[SuiteRunner] = None,
                   benchmarks: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Figure 6: EVR energy normalized to the baseline GPU.

    Also reports the two overheads the paper singles out: extra Parameter
    Buffer writes for layer identifiers, and the added EVR/RE hardware.
    """
    runner = runner or SuiteRunner()
    names = list(benchmarks or benchmark_names())
    # One fan-out for every run this figure needs (parallel under --jobs).
    runner.run_many(names, [BASELINE, EVR])
    rows: List[List[object]] = []
    normalized: List[float] = []
    for name in names:
        base = runner.run(name, BASELINE)
        evr = runner.run(name, EVR)
        norm = evr.energy_joules / base.energy_joules
        param_overhead = (
            evr.energy_breakdown["parameter_buffer_overhead"]
            / base.energy_joules
        )
        hw_overhead = (
            evr.energy_breakdown["evr_structures"]
            + evr.energy_breakdown["re_structures"]
        ) / base.energy_joules
        normalized.append(norm)
        rows.append([name, norm, param_overhead, hw_overhead])
    average = _mean(normalized)
    rows.append(["average", average, "", ""])
    return ExperimentResult(
        "Figure 6",
        "Energy of EVR normalized to the Baseline GPU",
        ["benchmark", "evr/baseline", "param-buffer ovh", "extra-hw ovh"],
        rows,
        summary={"avg_energy_norm": average,
                 "avg_energy_savings": 1.0 - average},
    )


def figure7_time(runner: Optional[SuiteRunner] = None,
                 benchmarks: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Figure 7: EVR execution time normalized to baseline, split into
    Geometry and Raster pipeline cycles."""
    runner = runner or SuiteRunner()
    names = list(benchmarks or benchmark_names())
    # One fan-out for every run this figure needs (parallel under --jobs).
    runner.run_many(names, [BASELINE, EVR])
    rows: List[List[object]] = []
    normalized: List[float] = []
    for name in names:
        base = runner.run(name, BASELINE)
        evr = runner.run(name, EVR)
        norm = evr.total_cycles / base.total_cycles
        geometry_norm = evr.geometry_cycles / base.total_cycles
        raster_norm = evr.raster_cycles / base.total_cycles
        normalized.append(norm)
        rows.append([name, geometry_norm, raster_norm, norm])
    average = _mean(normalized)
    rows.append(["average", "", "", average])
    return ExperimentResult(
        "Figure 7",
        "Execution time of EVR normalized to the Baseline GPU",
        ["benchmark", "geometry", "raster", "total"],
        rows,
        summary={"avg_time_norm": average,
                 "avg_time_reduction": 1.0 - average},
    )


def figure8_overshading(runner: Optional[SuiteRunner] = None,
                        benchmarks: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Figure 8: shaded fragments per pixel for Baseline, EVR (reordering
    only, no tile skipping) and the perfect-Z Oracle, on 3D benchmarks.

    Overshading is a fragment-level phenomenon, so the EVR column uses
    the reorder-only mode: Rendering Elimination would remove whole tiles
    and conflate the two effects the paper separates.
    """
    runner = runner or SuiteRunner()
    names = list(benchmarks or benchmark_names("3D"))
    # One fan-out for every run this figure needs (parallel under --jobs).
    runner.run_many(names, [BASELINE, EVR_REORDER_ONLY, ORACLE])
    rows: List[List[object]] = []
    reductions: List[float] = []
    for name in names:
        base = runner.run(name, BASELINE)
        evr = runner.run(name, EVR_REORDER_ONLY)
        oracle = runner.run(name, ORACLE)
        rows.append([
            name,
            base.shaded_fragments_per_pixel,
            evr.shaded_fragments_per_pixel,
            oracle.shaded_fragments_per_pixel,
        ])
        if base.shaded_fragments_per_pixel:
            reductions.append(
                1.0 - evr.shaded_fragments_per_pixel / base.shaded_fragments_per_pixel
            )
    average = _mean(reductions)
    return ExperimentResult(
        "Figure 8",
        "Shaded fragments per pixel: Baseline vs EVR vs Oracle (3D apps)",
        ["benchmark", "baseline", "evr", "oracle"],
        rows,
        summary={"avg_overshading_reduction": average},
    )


def figure9_redundant_tiles(runner: Optional[SuiteRunner] = None,
                            benchmarks: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Figure 9: fraction of tiles detected redundant by RE, EVR-aided RE
    and the pixel-exact oracle."""
    runner = runner or SuiteRunner()
    names = list(benchmarks or benchmark_names())
    # One fan-out for every run this figure needs (parallel under --jobs).
    runner.run_many(names, [RE, EVR, ORACLE])
    rows: List[List[object]] = []
    re_rates: List[float] = []
    evr_rates: List[float] = []
    oracle_rates: List[float] = []
    for name in names:
        re_run = runner.run(name, RE)
        evr_run = runner.run(name, EVR)
        oracle_run = runner.run(name, ORACLE)
        re_rates.append(re_run.redundant_tile_rate)
        evr_rates.append(evr_run.redundant_tile_rate)
        oracle_rates.append(oracle_run.redundant_tile_rate)
        rows.append([
            name,
            re_run.redundant_tile_rate,
            evr_run.redundant_tile_rate,
            oracle_run.redundant_tile_rate,
        ])
    rows.append(["average", _mean(re_rates), _mean(evr_rates), _mean(oracle_rates)])
    return ExperimentResult(
        "Figure 9",
        "Redundant tiles detected: RE vs EVR vs Oracle",
        ["benchmark", "re", "evr", "oracle"],
        rows,
        summary={
            "avg_re": _mean(re_rates),
            "avg_evr": _mean(evr_rates),
            "avg_oracle": _mean(oracle_rates),
            "evr_minus_re": _mean(evr_rates) - _mean(re_rates),
        },
    )


def figure10_energy_vs_re(runner: Optional[SuiteRunner] = None,
                          benchmarks: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Figure 10: EVR energy normalized to the RE GPU."""
    runner = runner or SuiteRunner()
    names = list(benchmarks or benchmark_names())
    # One fan-out for every run this figure needs (parallel under --jobs).
    runner.run_many(names, [RE, EVR])
    rows: List[List[object]] = []
    normalized: List[float] = []
    for name in names:
        re_run = runner.run(name, RE)
        evr_run = runner.run(name, EVR)
        norm = evr_run.energy_joules / re_run.energy_joules
        normalized.append(norm)
        rows.append([name, norm])
    average = _mean(normalized)
    rows.append(["average", average])
    return ExperimentResult(
        "Figure 10",
        "Energy of EVR normalized to Rendering Elimination",
        ["benchmark", "evr/re"],
        rows,
        summary={"avg_energy_vs_re": average,
                 "avg_savings_vs_re": 1.0 - average},
    )


def figure11_time_vs_re(runner: Optional[SuiteRunner] = None,
                        benchmarks: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Figure 11: RE and EVR execution time normalized to baseline,
    split into Geometry and Raster cycles."""
    runner = runner or SuiteRunner()
    names = list(benchmarks or benchmark_names())
    # One fan-out for every run this figure needs (parallel under --jobs).
    runner.run_many(names, [BASELINE, RE, EVR])
    rows: List[List[object]] = []
    re_norms: List[float] = []
    evr_norms: List[float] = []
    for name in names:
        base = runner.run(name, BASELINE)
        re_run = runner.run(name, RE)
        evr_run = runner.run(name, EVR)
        re_norm = re_run.total_cycles / base.total_cycles
        evr_norm = evr_run.total_cycles / base.total_cycles
        re_norms.append(re_norm)
        evr_norms.append(evr_norm)
        rows.append([
            name,
            re_run.geometry_cycles / base.total_cycles,
            re_run.raster_cycles / base.total_cycles,
            re_norm,
            evr_run.geometry_cycles / base.total_cycles,
            evr_run.raster_cycles / base.total_cycles,
            evr_norm,
        ])
    rows.append(["average", "", "", _mean(re_norms), "", "", _mean(evr_norms)])
    return ExperimentResult(
        "Figure 11",
        "Execution time of RE and EVR normalized to the Baseline GPU",
        ["benchmark", "re-geom", "re-raster", "re-total",
         "evr-geom", "evr-raster", "evr-total"],
        rows,
        summary={"avg_re_norm": _mean(re_norms),
                 "avg_evr_norm": _mean(evr_norms)},
    )
