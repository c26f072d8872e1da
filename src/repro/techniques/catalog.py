"""The built-in technique catalog.

Three tiers, mirroring how the repo grew:

* **paper** — the four configurations the HPCA 2019 paper evaluates
  (plus the Figure 8/9 oracle): ``BASELINE``, ``RE``, ``EVR``,
  ``EVR_REORDER_ONLY`` and ``ORACLE``.
* **alternative** — the culling mechanisms the paper *discusses* as
  rivals (software Z-prepass, Hierarchical-Z, and EVR composed with
  Hi-Z), previously the ad-hoc ``_CONFIGURATIONS`` table in
  ``harness/alternatives.py``.
* **rival** — functional models of successor techniques from the
  lineage (PAPERS.md): Dynamic Sampling Rate, Fragment-History Volumes
  and VR-Pipe-style early termination.  These are *approximate*: they
  trade bounded image error for shading work, so their validation
  contract is an error bound plus a shaded-fragments budget rather than
  pixel identity.

Importing this module (via ``repro.techniques``) populates the registry;
every feature construction a mode name stands for is defined here, once.
"""

from __future__ import annotations

from typing import Dict

from ..pipeline.features import PipelineFeatures
from .registry import Technique, register, register_metric_extractor

__all__ = [
    "BASELINE",
    "RE",
    "EVR",
    "EVR_REORDER_ONLY",
    "ORACLE",
    "HIZ",
    "Z_PREPASS",
    "EVR_HIZ",
    "DSR",
    "FHV",
    "VRPIPE_ET",
]

_PAPER = "Anglada et al., 'Early Visibility Resolution' (HPCA 2019)"

# ---------------------------------------------------------------------------
# Paper reference set.
# ---------------------------------------------------------------------------

BASELINE = register(Technique(
    name="baseline",
    summary="plain TBR GPU with Early Depth Test",
    feature_set=PipelineFeatures(),
    kind="paper",
    citation=_PAPER,
))

RE = register(Technique(
    name="re",
    summary="Rendering Elimination: skip signature-identical tiles",
    feature_set=PipelineFeatures(rendering_elimination=True),
    kind="paper",
    citation=_PAPER,
))

EVR = register(Technique(
    name="evr",
    summary="RE + EVR reordering and signature filtering",
    feature_set=PipelineFeatures(
        rendering_elimination=True,
        evr_hardware=True,
        evr_reorder=True,
        evr_signature_filter=True,
    ),
    kind="paper",
    citation=_PAPER,
))

EVR_REORDER_ONLY = register(Technique(
    name="evr-reorder-only",
    summary="EVR hardware + Algorithm 1 reordering, no signature filter",
    feature_set=PipelineFeatures(evr_hardware=True, evr_reorder=True),
    aliases=("evr-reorder",),
    kind="paper",
    citation=_PAPER,
))

ORACLE = register(Technique(
    name="oracle",
    summary="perfect-visibility references for Figures 8/9",
    feature_set=PipelineFeatures(oracle_z=True, oracle_redundancy=True),
    kind="paper",
    citation=_PAPER,
))

# ---------------------------------------------------------------------------
# Alternative culling mechanisms the paper discusses (Sections IV-A, VIII).
# ---------------------------------------------------------------------------

HIZ = register(Technique(
    name="hiz",
    summary="Hierarchical-Z primitive rejection (intra-frame)",
    feature_set=PipelineFeatures(hierarchical_z=True),
    aliases=("hierarchical-z",),
    kind="alternative",
    citation="Greene et al., 'Hierarchical Z-buffer visibility' (1993)",
))

Z_PREPASS = register(Technique(
    name="z-prepass",
    summary="charged software depth-only pre-pass per tile",
    feature_set=PipelineFeatures(z_prepass=True),
    aliases=("prepass",),
    kind="alternative",
    citation=_PAPER + ", Section IV-A",
))

EVR_HIZ = register(Technique(
    name="evr-hiz",
    summary="EVR reordering composed with Hierarchical-Z rejection",
    feature_set=PipelineFeatures(
        evr_hardware=True, evr_reorder=True, hierarchical_z=True,
    ),
    aliases=("evr+hiz",),
    kind="alternative",
    citation=_PAPER + ", Section VIII",
))

# ---------------------------------------------------------------------------
# Rival techniques from the lineage (PAPERS.md) — approximate by design.
# ---------------------------------------------------------------------------

DSR = register(Technique(
    name="dsr",
    summary="per-tile fractional shading rate from signature stability",
    feature_set=PipelineFeatures(dsr=True),
    aliases=("dynamic-sampling-rate",),
    kind="rival",
    pixel_exact=False,
    error_tolerance=0.125,
    citation="Anglada et al., 'Dynamic Sampling Rate' (arXiv:2202.10533)",
))

FHV = register(Technique(
    name="fhv",
    summary="reuse prior-frame framebuffer for predicted-occluded draws",
    # No evr_reorder: reconstruction *replaces* reordering as the
    # overshading defense.  Predicted-occluded primitives stay in
    # submission order, pass the depth test before their occluders
    # arrive, and get last frame's colors instead of shading.
    feature_set=PipelineFeatures(evr_hardware=True, fhv=True),
    aliases=("fragment-history",),
    kind="rival",
    pixel_exact=False,
    error_tolerance=0.125,
    citation="'Fragment-History Volumes' (arXiv:2211.15460)",
))

VRPIPE_ET = register(Technique(
    name="vrpipe-et",
    summary="opacity-threshold early termination for blended stacks",
    feature_set=PipelineFeatures(vrpipe_early_termination=True),
    aliases=("vrpipe", "vr-pipe"),
    kind="rival",
    pixel_exact=False,
    error_tolerance=0.02,
    citation="'VR-Pipe' (arXiv:2502.17078)",
))

# ---------------------------------------------------------------------------
# Distilled-metric extractors: per-technique columns for RunMetrics.extra,
# the rivals figure and the dashboard.  Keyed by name (not stored on the
# descriptor) so techniques stay picklable.
# ---------------------------------------------------------------------------


def _stats_extractor(*fields: str):
    def extract(result) -> Dict[str, float]:
        stats = result.total_stats()
        return {name: float(getattr(stats, name)) for name in fields}
    return extract


register_metric_extractor("hiz", _stats_extractor("hiz_culled"))
register_metric_extractor("z-prepass", _stats_extractor("prepass_fragments"))
register_metric_extractor(
    "evr-hiz", _stats_extractor("hiz_culled"))
register_metric_extractor("dsr", _stats_extractor("dsr_reused_fragments"))
register_metric_extractor(
    "fhv", _stats_extractor("fhv_reconstructed", "fhv_reconstruction_error"))
register_metric_extractor("vrpipe-et", _stats_extractor("vrpipe_killed"))
