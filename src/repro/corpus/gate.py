"""The differential replay gate: corpus streams vs every contract.

For each corpus family the gate renders the stream under every
requested pipeline mode crossed with every kernel backend and feeds the
results through :func:`repro.validate.validate_stream` — one
:class:`~repro.validate.ValidationReport` per family covering pixel
identity, the fragment-ordering contract, the oracle skip bound and
backend bit-identity.

On a violation the stream is minimized with the delta-debugging
shrinker (:mod:`repro.corpus.shrink`) under the *same* failure
predicate, and the minimized repro is dropped into a quarantine
directory as a portable ``repro-trace`` next to a JSON violation report
that pins everything needed to replay it standalone: config, modes,
backends, the fault plan (if one was armed) and the check labels that
failed.

Fault injection: a :class:`~repro.resilience.FaultPlan` with a
``pixel`` rate arms :func:`make_pixel_corruptor`, which damages one
deterministic pixel of the first rendered frame for every
(family, mode, backend) the plan selects.  The decision key excludes
the frame count, so the violation survives shrinking — the property
that makes ``--inject-faults pixel:1.0`` a true end-to-end test of the
gate, the shrinker and the quarantine pipeline.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..commands import FrameStream
from ..commands.trace import save_trace
from ..config import GPUConfig
from ..obs.events import CorpusFamilyChecked, get_bus
from ..obs.metrics import global_registry
from ..pipeline import RunResult
from ..resilience.faults import FaultPlan, corrupt_pixel
from ..techniques import Technique, default_modes, resolve_technique
from ..validate import Corruptor, ValidationReport, validate_stream
from .shrink import DEFAULT_MAX_EVALS, ShrinkOutcome, shrink_stream

VIOLATION_REPORT_VERSION = 1


@dataclass
class FamilyResult:
    """The gate's verdict on one corpus family."""

    family: str
    frames: int
    report: ValidationReport
    seconds: float
    shrunk: Optional[ShrinkOutcome] = None
    trace_path: str = ""
    report_path: str = ""

    @property
    def passed(self) -> bool:
        return self.report.passed


def make_pixel_corruptor(plan: Optional[FaultPlan],
                         family: str) -> Optional[Corruptor]:
    """The post-render corruptor for ``family`` under ``plan``.

    Returns ``None`` when the plan is absent or carries no ``pixel``
    rate, so normal replay pays nothing.  The decision key is
    ``corpus/<family>/<mode>/<backend>`` — deliberately independent of
    the stream's frame count so a shrunk stream keeps failing the same
    way.
    """
    if plan is None or plan.rates.get("pixel", 0.0) <= 0.0:
        return None

    def corruptor(mode: str, backend: str, result: RunResult) -> RunResult:
        key = f"corpus/{family}/{mode}/{backend}"
        if plan.decide(key, attempt=0) != "pixel":
            return result
        frames = list(result.frames)
        frames[0] = dataclasses.replace(
            frames[0], image=corrupt_pixel(frames[0].image, key, plan.seed))
        return dataclasses.replace(result, frames=frames)

    return corruptor


def _violation_document(
    result: FamilyResult,
    config: GPUConfig,
    modes: Sequence[Technique],
    backends: Sequence[str],
    plan: Optional[FaultPlan],
    trace_filename: str,
) -> Dict[str, object]:
    shrunk = result.shrunk
    document: Dict[str, object] = {
        "report": "corpus-violation",
        "version": VIOLATION_REPORT_VERSION,
        "family": result.family,
        "trace": trace_filename,
        "failures": list(result.report.failures),
        "checks": list(result.report.checks),
        "gpu": {
            "screen_width": config.screen_width,
            "screen_height": config.screen_height,
            "frames": config.frames,
        },
        "modes": [mode.name for mode in modes],
        "backends": list(backends),
        "fault_plan": plan.describe() if plan is not None else "",
        "fault_seed": plan.seed if plan is not None else 0,
    }
    if shrunk is not None:
        document["shrink"] = {
            "frames": shrunk.frames,
            "draws": shrunk.draws,
            "original_frames": shrunk.original_frames,
            "original_draws": shrunk.original_draws,
            "evals": shrunk.evals,
            "minimal": shrunk.minimal,
        }
    document["replay_hint"] = (
        f"repro trace replay {trace_filename} "
        f"--width {config.screen_width} --height {config.screen_height}"
        + (f" --backends {' '.join(backends)}" if backends else "")
        + (f" --inject-faults {plan.describe()} --fault-seed {plan.seed}"
           if plan is not None else "")
    )
    return document


def _quarantine_violation(
    result: FamilyResult,
    stream: FrameStream,
    quarantine_dir: str,
    config: GPUConfig,
    modes: Sequence[Technique],
    backends: Sequence[str],
    plan: Optional[FaultPlan],
) -> None:
    os.makedirs(quarantine_dir, exist_ok=True)
    trace_filename = f"{result.family}.trace.json"
    trace_path = os.path.join(quarantine_dir, trace_filename)
    report_path = os.path.join(quarantine_dir,
                               f"{result.family}.violation.json")
    minimized = result.shrunk.stream if result.shrunk is not None else stream
    save_trace(minimized, trace_path)
    document = _violation_document(result, config, modes, backends, plan,
                                   trace_filename)
    with open(report_path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    result.trace_path = trace_path
    result.report_path = report_path


def replay_families(
    streams: Mapping[str, FrameStream],
    config: GPUConfig,
    modes: Optional[Sequence[object]] = None,
    backends: Optional[Sequence[str]] = None,
    fault_plan: Optional[FaultPlan] = None,
    quarantine_dir: str = "",
    strict: bool = False,
    shrink: bool = True,
    max_shrink_evals: int = DEFAULT_MAX_EVALS,
) -> List[FamilyResult]:
    """Differentially validate every corpus stream.

    Args:
        streams: family name -> frame stream (insertion order is the
            replay order).
        config: GPU configuration the streams target.
        modes: technique designators to cross-compare (default: every
            registered technique).
        backends: kernel backends (default: the single default backend;
            pass both for the full differential gate).
        fault_plan: optional deterministic fault plan; only its
            ``pixel`` rate is meaningful here.
        quarantine_dir: where minimized violating traces and violation
            reports land ("" disables quarantining).
        strict: stop at the first violating family (fail-fast) instead
            of replaying the rest.
        shrink: minimize violating streams before quarantining.
        max_shrink_evals: predicate budget for the shrinker.

    Returns:
        One :class:`FamilyResult` per replayed family (fewer than
        ``len(streams)`` when ``strict`` stopped early).
    """
    resolved_modes: Tuple[Technique, ...] = (
        default_modes() if modes is None
        else tuple(resolve_technique(mode) for mode in modes)
    )
    registry = global_registry()
    bus = get_bus()
    results: List[FamilyResult] = []
    for family, stream in streams.items():
        corruptor = make_pixel_corruptor(fault_plan, family)

        def run_checks(candidate: FrameStream) -> ValidationReport:
            return validate_stream(candidate, config, modes=resolved_modes,
                                   backends=backends, corruptor=corruptor)

        started = time.perf_counter()
        report = run_checks(stream)
        result = FamilyResult(family=family, frames=len(stream),
                              report=report,
                              seconds=time.perf_counter() - started)
        registry.counter("corpus.families_checked").inc()
        if not report.passed:
            registry.counter("corpus.violations").inc()
            if shrink:
                result.shrunk = shrink_stream(
                    stream,
                    lambda candidate: not run_checks(candidate).passed,
                    max_evals=max_shrink_evals,
                )
                registry.counter("corpus.shrink_evals").inc(
                    result.shrunk.evals)
            if quarantine_dir:
                _quarantine_violation(result, stream, quarantine_dir,
                                      config, resolved_modes,
                                      backends or (), fault_plan)
        result.seconds = time.perf_counter() - started
        if bus.enabled:
            bus.emit(CorpusFamilyChecked(
                family=family,
                frames=result.frames,
                seconds=result.seconds,
                passed=result.passed,
                checks=len(report.checks),
                failures=len(report.failures),
                shrink_evals=(result.shrunk.evals
                              if result.shrunk is not None else 0),
            ))
        results.append(result)
        if strict and not result.passed:
            break
    return results
