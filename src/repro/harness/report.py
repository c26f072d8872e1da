"""Paper-vs-measured reporting: the EXPERIMENTS.md generator.

Holds the paper's reported numbers for every reproduced quantity and
builds a markdown report comparing them with a fresh run of the harness.
``python -m repro report`` regenerates the comparison on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .experiments import (
    figure6_energy,
    figure7_time,
    figure8_overshading,
    figure9_redundant_tiles,
    figure10_energy_vs_re,
    figure11_time_vs_re,
)
from .runner import SuiteRunner


@dataclass(frozen=True)
class PaperClaim:
    """One quantitative claim from the paper's evaluation section."""

    experiment: str
    metric: str
    paper_value: float
    extract: Callable[[SuiteRunner], float]
    note: str = ""


def _claims() -> List[PaperClaim]:
    return [
        PaperClaim(
            "Figure 6", "average energy vs baseline (lower is better)",
            0.57,
            lambda r: figure6_energy(r).summary["avg_energy_norm"],
            "paper: 43% average energy savings",
        ),
        PaperClaim(
            "Figure 7", "average execution time vs baseline",
            0.61,
            lambda r: figure7_time(r).summary["avg_time_norm"],
            "paper: 39% average speedup",
        ),
        PaperClaim(
            "Figure 8", "overshading reduction on 3D apps",
            0.20,
            lambda r: figure8_overshading(r).summary[
                "avg_overshading_reduction"
            ],
            "paper: EVR removes 20% of shaded fragments, close to oracle",
        ),
        PaperClaim(
            "Figure 9", "average redundant tiles detected by EVR",
            0.54,
            lambda r: figure9_redundant_tiles(r).summary["avg_evr"],
            "paper: 54% of tiles skipped",
        ),
        PaperClaim(
            "Figure 9", "EVR advantage over baseline RE",
            0.05,
            lambda r: figure9_redundant_tiles(r).summary["evr_minus_re"],
            "paper: 5% more redundant tiles than RE",
        ),
        PaperClaim(
            "Figure 10", "average energy vs the RE GPU",
            0.90,
            lambda r: figure10_energy_vs_re(r).summary["avg_energy_vs_re"],
            "paper: 10% average energy reduction over RE",
        ),
        PaperClaim(
            "Figure 11", "average RE-only execution time vs baseline",
            0.85,
            lambda r: figure11_time_vs_re(r).summary["avg_re_norm"],
            "paper: RE alone helps less, and loses on 300/mst "
            "(value estimated from the figure)",
        ),
    ]


def paper_vs_measured(
    runner: Optional[SuiteRunner] = None,
) -> List[Dict[str, object]]:
    """Evaluate every claim; returns rows of experiment/metric/paper/
    measured/ratio."""
    runner = runner or SuiteRunner()
    rows: List[Dict[str, object]] = []
    for claim in _claims():
        measured = claim.extract(runner)
        rows.append({
            "experiment": claim.experiment,
            "metric": claim.metric,
            "paper": claim.paper_value,
            "measured": measured,
            "note": claim.note,
        })
    return rows


def render_report(runner: Optional[SuiteRunner] = None) -> str:
    """Markdown paper-vs-measured table plus the per-figure tables."""
    runner = runner or SuiteRunner()
    spec = runner.spec
    lines = [
        "# Paper vs measured",
        "",
        # Provenance: the exact spec that produced these numbers, so a
        # report is reproducible from its own header.
        f"spec_hash: `{spec.spec_hash()}`",
        f"gpu: {spec.gpu.screen_width}x{spec.gpu.screen_height}, "
        f"{spec.gpu.frames} frames, tile "
        f"{spec.gpu.tile_width}x{spec.gpu.tile_height}",
        "",
        "| experiment | metric | paper | measured |",
        "| --- | --- | ---: | ---: |",
    ]
    for row in paper_vs_measured(runner):
        lines.append(
            f"| {row['experiment']} | {row['metric']} | "
            f"{row['paper']:.3f} | {row['measured']:.3f} |"
        )
    lines.append("")
    for figure in (
        figure6_energy,
        figure7_time,
        figure8_overshading,
        figure9_redundant_tiles,
        figure10_energy_vs_re,
        figure11_time_vs_re,
    ):
        lines.append("```")
        lines.append(figure(runner).render())
        lines.append("```")
        lines.append("")
    return "\n".join(lines)
