"""Feature flags selecting which mechanisms the simulated GPU runs.

:class:`PipelineFeatures` is the one switchboard every mechanism reads.
Named combinations of these flags — the paper's Baseline, RE, EVR,
EVR-reorder-only and Oracle configurations, plus the alternative and
rival techniques — are registered :class:`~repro.techniques.Technique`
descriptors (``repro/techniques/catalog.py``); ablations and spec
overrides recombine the same flags.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class PipelineFeatures:
    """Independent switches for each mechanism.

    Attributes:
        early_z: run the Early Depth Test before fragment shading (all of
            the paper's configurations have it on; turning it off models
            a naive GPU and is used in tests/ablations).
        rendering_elimination: skip tiles whose signature matches the
            previous frame.
        evr_hardware: maintain the EVR structures (LGT, Layer Buffer,
            FVP Table).  Required by the two flags below.
        evr_reorder: Algorithm 1 two-list display-list reordering.
        evr_signature_filter: exclude predicted-occluded primitives from
            RE signatures (requires ``rendering_elimination``).
        oracle_z: pre-fill the Z-buffer with the tile's final depth
            values before rendering it (Figure 8's oracle).
        oracle_redundancy: measure, with pixel-exact frame-to-frame tile
            comparison, how many tiles an oracle could have skipped
            (Figure 9's oracle).  A measurement, not a perf optimization:
            every tile still renders, only the comparator runs on top.
        fvp_history: how many past frames' FVPs a primitive must be
            behind to be predicted occluded.  1 is the paper's design
            (previous frame only); larger values are more conservative —
            the DESIGN.md history-depth ablation.
        prediction_point: which depth of the primitive is compared with
            ``Z_far``: ``"near"`` (closest vertex — the paper's
            conservative choice), ``"centroid"`` (mean vertex depth) or
            ``"far"`` (farthest vertex — most aggressive).  Aggressive
            points predict more occlusion but mispredict visible
            primitives more often, costing signature poisons — the
            DESIGN.md conservatism ablation.
        subtile_fvp: keep four 8x8-quadrant FVPs per tile instead of one
            (the DESIGN.md granularity ablation; 4x FVP Table storage).
        z_prepass: render each tile's WOZ geometry twice — a depth-only
            pass first, then the shading pass against a fully-resolved
            Z-buffer (Section IV-A's software alternative to EVR).
            Unlike ``oracle_z`` the pre-pass is *charged*: rasterization,
            depth tests and depth writes cost cycles and energy, which
            is exactly the overhead the paper argues often offsets the
            benefit.
        hierarchical_z: cull whole primitives before rasterization when
            their nearest vertex is farther than the tile's current
            maximum depth (the top of Greene's Z-pyramid; Section VIII).
            Intra-frame and order-dependent, unlike EVR's cross-frame
            FVP; safe by construction because unwritten pixels hold the
            far clear depth.
        dsr: Dynamic Sampling Rate — shade tiles whose coarse signature
            has been stable across frames at a fractional rate (1x2 or
            2x2 blocks, anchor color replicated).  Approximate: trades
            bounded blur for shading work (``repro.techniques.dsr``).
        fhv: Fragment-History-Volume-style reconstruction — for
            predicted-occluded opaque primitives, write the previous
            frame's framebuffer colors instead of shading.  Requires
            ``evr_hardware`` (the FVP makes the occlusion prediction).
            Approximate: mispredictions show last frame's pixels.
        vrpipe_early_termination: VR-Pipe-style opacity-threshold kill —
            drop blended fragments whose contribution to the pixel
            cannot exceed ``vrpipe_threshold`` per channel.
        vrpipe_threshold: the per-channel contribution (0..1 color
            scale) below which a blended fragment is killed.
    """

    early_z: bool = True
    rendering_elimination: bool = False
    evr_hardware: bool = False
    evr_reorder: bool = False
    evr_signature_filter: bool = False
    oracle_z: bool = False
    oracle_redundancy: bool = False
    fvp_history: int = 1
    prediction_point: str = "near"
    subtile_fvp: bool = False
    z_prepass: bool = False
    hierarchical_z: bool = False
    dsr: bool = False
    fhv: bool = False
    vrpipe_early_termination: bool = False
    vrpipe_threshold: float = 1.0 / 255.0

    def __post_init__(self) -> None:
        if self.evr_reorder and not self.evr_hardware:
            raise ConfigError("evr_reorder requires evr_hardware")
        if self.evr_signature_filter and not self.evr_hardware:
            raise ConfigError("evr_signature_filter requires evr_hardware")
        if self.evr_signature_filter and not self.rendering_elimination:
            raise ConfigError(
                "evr_signature_filter requires rendering_elimination"
            )
        if self.fvp_history < 1:
            raise ConfigError("fvp_history must be >= 1")
        if self.subtile_fvp and not self.evr_hardware:
            raise ConfigError("subtile_fvp requires evr_hardware")
        if self.subtile_fvp and self.fvp_history != 1:
            raise ConfigError("subtile_fvp does not support fvp_history > 1")
        if self.prediction_point not in ("near", "centroid", "far"):
            raise ConfigError(
                f"unknown prediction_point {self.prediction_point!r}"
            )
        if self.z_prepass and self.oracle_z:
            raise ConfigError("z_prepass and oracle_z are exclusive")
        if self.fhv and not self.evr_hardware:
            raise ConfigError("fhv requires evr_hardware")
        if self.vrpipe_threshold < 0.0:
            raise ConfigError("vrpipe_threshold must be >= 0")

    @property
    def uses_layers(self) -> bool:
        return self.evr_hardware

