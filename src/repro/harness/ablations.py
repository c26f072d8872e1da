"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's figures: they vary one EVR design parameter
at a time and report how the trade-off moves.

* **Prediction point** (Section III-A): the paper compares the
  primitive's *closest* vertex against ``Z_far`` — conservative by
  construction.  Using the centroid or the farthest vertex predicts more
  occlusion but mispredicts visible primitives, which (with this
  reproduction's poisoning repair) costs re-rendered tiles instead of
  image errors.
* **FVP history depth**: predicting from the previous frame alone (the
  paper) versus requiring a primitive to be behind the FVPs of the last
  k frames — fewer mispredictions, fewer detections.
* **Draw order** (Section IV-A): how much submission order hurts the
  baseline's Early Depth Test, and how much of that Algorithm 1 recovers
  without any application-side sorting.

Every ablation takes the figure signature ``fn(runner, benchmarks)`` and
builds each GPU from ``runner.spec``: its GPU configuration, feature
overrides, cost/energy parameters, backend and worker count.  The swept
field is applied last, so it wins over a spec override of the same field.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Optional, Sequence, Tuple

from ..config import GPUConfig
from ..engine.scheduler import make_scheduler
from ..math3d import Vec3, Vec4
from ..pipeline import GPU, RunResult
from ..scenes import BoxSpec, LinearOscillation, Scene3D, benchmark_stream
from ..techniques import EVR
from .experiments import ExperimentResult
from .runner import SuiteRunner

_DEFAULT_3D = ("tib", "ata")


def _sweep(
    runner: Optional[SuiteRunner],
    benchmarks: Optional[Sequence[str]],
    field: str,
    points: Sequence[Tuple[object, object]],
    columns: Callable[[RunResult], List[object]],
) -> List[List[object]]:
    """Render each benchmark under EVR once per ``(label, value)`` of the
    swept feature ``field``; one row ``[benchmark, label, *columns]``
    per render.

    The swept value becomes one more feature override of the runner's
    spec, replacing any override of the same field.
    """
    spec = (runner or SuiteRunner()).spec
    rows: List[List[object]] = []
    with make_scheduler(spec.scheduler.jobs) as scheduler:
        for alias in benchmarks or _DEFAULT_3D:
            stream = benchmark_stream(alias, spec.gpu)
            for label, value in points:
                swept = replace(spec, features=replace(spec.features,
                                                       **{field: value}))
                gpu = GPU.from_spec(swept, EVR, scheduler=scheduler)
                rows.append([alias, label]
                            + columns(gpu.render_stream(stream)))
    return rows


def _predicted_rate(result: RunResult) -> float:
    stats = result.total_stats()
    return stats.predicted_occluded / max(stats.predictions_made, 1)


def ablation_prediction_point(
    runner: Optional[SuiteRunner] = None,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Conservatism of the predicted depth: near vs centroid vs far."""
    points = [(point, point) for point in ("near", "centroid", "far")]
    rows = _sweep(runner, benchmarks, "prediction_point", points,
                  lambda result: [_predicted_rate(result),
                                  result.redundant_tile_rate(),
                                  result.total_stats().signature_poisons,
                                  result.shaded_fragments_per_pixel()])
    return ExperimentResult(
        "Ablation A1",
        "Prediction point: conservative Z_near vs centroid vs Z_far",
        ["benchmark", "point", "pred-occluded", "tiles skipped",
         "poisons", "frags/px"],
        rows,
    )


def ablation_history(
    runner: Optional[SuiteRunner] = None,
    benchmarks: Optional[Sequence[str]] = None,
    depths: Sequence[int] = (1, 2, 3),
) -> ExperimentResult:
    """FVP history depth: previous frame only (paper) vs last k frames."""
    points = [(depth, depth) for depth in depths]
    rows = _sweep(runner, benchmarks, "fvp_history", points,
                  lambda result: [_predicted_rate(result),
                                  result.redundant_tile_rate(),
                                  result.total_stats().signature_poisons])
    return ExperimentResult(
        "Ablation A2",
        "FVP history depth: 1 frame (paper) vs k-frame conservative merge",
        ["benchmark", "history", "pred-occluded", "tiles skipped", "poisons"],
        rows,
    )


def ablation_subtile(
    runner: Optional[SuiteRunner] = None,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """FVP granularity: one FVP per tile (paper) vs 2x2 quadrant FVPs.

    Quadrant FVPs refine ``Z_far`` where a tile mixes near and far
    content, but a primitive must now be occluded in *every* quadrant
    its bounding box conservatively overlaps, and quadrants whose
    farthest visible point is NWOZ block depth-based prediction.  On
    this suite the two effects roughly cancel — evidence for the paper's
    choice of a single 4-byte FVP per tile.
    """
    points = [("tile", False), ("2x2-subtile", True)]
    rows = _sweep(runner, benchmarks, "subtile_fvp", points,
                  lambda result: [_predicted_rate(result),
                                  result.redundant_tile_rate(),
                                  result.shaded_fragments_per_pixel()])
    return ExperimentResult(
        "Ablation A4",
        "FVP granularity: per-tile (paper) vs 2x2 sub-tile",
        ["benchmark", "granularity", "pred-occluded", "tiles skipped",
         "frags/px"],
        rows,
    )


def _slab_scene(config: GPUConfig, draw_order: str) -> Scene3D:
    """Mutually-occluding slabs along the view axis (pure WOZ depth
    complexity, no tile redundancy)."""
    boxes = []
    for index in range(5):
        # Farther slabs are smaller, so each is fully hidden behind the
        # nearer ones: the configuration EVR's single-Z_far FVP detects.
        side = 5.0 - 0.6 * index
        boxes.append(
            BoxSpec(
                center=Vec3(0.0, 2.0, -2.0 * index),
                size=Vec3(side, side, 0.5),
                color=Vec4(1.0 - index / 5.0, 0.2, index / 5.0, 1.0),
                motion=LinearOscillation(Vec3(0.2, 0.0, 0.0),
                                         period_frames=16, phase=index),
                name=f"slab{index}",
            )
        )
    return Scene3D(
        config.screen_width, config.screen_height,
        boxes=boxes, ground_size=0.0, translucents=(), hud=None,
        camera_eye=Vec3(0.0, 2.0, 10.0), camera_target=Vec3(0.0, 2.0, 0.0),
        draw_order=draw_order,
    )


def ablation_draw_order(
    runner: Optional[SuiteRunner] = None,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Submission-order sensitivity, with and without EVR reordering.

    The baseline's shaded-fragment count should swing wildly between
    front-to-back and back-to-front submission, while EVR's reordering
    should flatten the difference — order-insensitivity is the point of
    Algorithm 1.  The ablation renders its own slab scene, so
    ``benchmarks`` is ignored.
    """
    spec = (runner or SuiteRunner()).spec
    config = spec.gpu
    rows: List[List[object]] = []
    spread: dict = {}
    with make_scheduler(spec.scheduler.jobs) as scheduler:
        for order in ("front_to_back", "submission", "back_to_front"):
            stream = _slab_scene(config, order).stream(config.frames)
            for mode, label in (("baseline", "baseline"),
                                ("evr-reorder-only", "evr")):
                result = GPU.from_spec(
                    spec, mode, scheduler=scheduler).render_stream(stream)
                frags = result.shaded_fragments_per_pixel()
                rows.append([order, label, frags])
                spread.setdefault(label, []).append(frags)
    summary = {
        f"{label}_spread": max(values) - min(values)
        for label, values in spread.items()
    }
    return ExperimentResult(
        "Ablation A3",
        "Draw-order sensitivity of shaded fragments per pixel",
        ["submission order", "mode", "frags/px"],
        rows,
        summary=summary,
    )
