"""Comparison of EVR against rival culling/shading-reduction techniques.

Two tables come out of this module, both driven by the technique
registry (:mod:`repro.techniques`) through a :class:`SuiteRunner` — so
every cell is memoized, disk-cacheable and ledgered exactly like the
paper-figure runs:

* :func:`culling_alternatives` — the *exact* mechanisms the paper
  discusses: software Z-prepass (Section IV-A) and Hierarchical-Z
  primitive rejection (Section VIII).  The interesting quantity is not
  just shaded fragments — Z-prepass matches the oracle there by
  construction — but *total cycles*: the pre-pass re-rasterizes and
  re-tests everything, which is the overhead the paper argues "often
  offsets its potential benefits", while EVR gets most of the fragment
  savings for the price of a table lookup.  Hierarchical-Z is
  order-dependent (it can only reject primitives behind already-drawn
  ones), so it shines exactly where EVR's reordering has already put
  the visible geometry first — the two compose.

* :func:`rival_techniques` — the *approximate* successors from the
  lineage (DSR, FHV, VR-Pipe-style early termination) against EVR.
  These trade bounded image error for shading work, so the table
  carries each technique's distilled extra metric (fragments reused,
  reconstructed or killed) next to the shared frags/px and
  normalized-cycles columns.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .experiments import ExperimentResult
from .runner import SuiteRunner

#: Registered technique names for the paper's culling discussion, in
#: table order.  The first entry is the normalization reference.
_MECHANISMS: Tuple[str, ...] = (
    "baseline", "hiz", "z-prepass", "evr-reorder-only", "evr-hiz", "oracle",
)

#: Registered technique names for the rival-technique comparison.
_RIVALS: Tuple[str, ...] = ("baseline", "evr", "dsr", "fhv", "vrpipe-et")

_DEFAULT_3D = ("tib", "ata")


def culling_alternatives(
    runner: Optional[SuiteRunner] = None,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Shaded work and total cycles for each culling mechanism."""
    runner = runner or SuiteRunner()
    benchmarks = benchmarks or _DEFAULT_3D
    results = runner.run_many(benchmarks, _MECHANISMS)
    rows: List[List[object]] = []
    for alias in benchmarks:
        baseline_cycles = results[(alias, _MECHANISMS[0])].total_cycles
        for name in _MECHANISMS:
            metrics = results[(alias, name)]
            rows.append([
                alias,
                name,
                metrics.shaded_fragments_per_pixel,
                metrics.total_cycles / baseline_cycles,
                int(metrics.extra.get("hiz_culled", 0)),
                int(metrics.extra.get("prepass_fragments", 0)),
            ])
    return ExperimentResult(
        "Analysis",
        "Culling alternatives: fragments saved vs cycles paid",
        ["benchmark", "mechanism", "frags/px", "time (norm)",
         "hiz culled", "prepass fragments"],
        rows,
    )


def rival_techniques(
    runner: Optional[SuiteRunner] = None,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """EVR vs the approximate rivals: shading saved vs cycles paid.

    The ``technique metric`` column is each technique's distilled extra
    counter (fragments DSR reused, FHV reconstructed, VR-Pipe killed);
    exact techniques show a dash.
    """
    runner = runner or SuiteRunner()
    benchmarks = benchmarks or _DEFAULT_3D
    results = runner.run_many(benchmarks, _RIVALS)
    rows: List[List[object]] = []
    for alias in benchmarks:
        baseline_cycles = results[(alias, _RIVALS[0])].total_cycles
        for name in _RIVALS:
            metrics = results[(alias, name)]
            extra = ", ".join(
                f"{key}={value:g}" for key, value in
                sorted(metrics.extra.items())
            ) or "-"
            rows.append([
                alias,
                name,
                metrics.shaded_fragments_per_pixel,
                metrics.total_cycles / baseline_cycles,
                extra,
            ])
    return ExperimentResult(
        "Analysis",
        "EVR vs rival techniques: shading saved vs cycles paid",
        ["benchmark", "technique", "frags/px", "time (norm)",
         "technique metric"],
        rows,
    )
