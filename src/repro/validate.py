"""Cross-technique validation: prove each technique honors its contract.

Runs a frame stream under every registered technique
(:mod:`repro.techniques`) and checks the library's correctness
contracts:

1. **Pixel-exact techniques** (the paper modes, Z-prepass, Hi-Z, ...)
   render frames bit-identical to the baseline.
2. **Approximate techniques** (DSR, FHV, VR-Pipe-style early
   termination) stay within their registered per-frame mean color-error
   tolerance against baseline *and* never shade more fragments than the
   baseline — an approximation that saves nothing is a bug.
3. Shaded-fragment ordering: Oracle <= EVR-reordered <= Baseline.
4. EVR never skips more tiles than are pixel-identical (oracle bound).

Passing more than one kernel backend makes the run *differential*: the
same techniques are rendered under each backend.  Exact techniques are
compared against the first backend's baseline; approximate techniques
are compared against *their own* rendering under the first backend —
approximation is a modelling choice, backend divergence is a bug, so the
cross-backend contract stays bit-identity for every technique.  The
``corruptor`` hook lets the corpus gate (:mod:`repro.corpus.gate`)
damage rendered results deterministically to prove the comparison
actually detects diffs.

Exposed as :func:`validate_stream` for library users and as
``python -m repro validate <benchmark>`` on the command line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .commands import FrameStream
from .config import GPUConfig
from .kernels import DEFAULT_BACKEND, normalize_backend
from .pipeline import GPU, RunResult
from .techniques import Technique, default_modes, resolve_technique

#: Hook applied to every rendered result before comparison:
#: ``(mode_value, backend, result) -> result``.
Corruptor = Callable[[str, str, RunResult], RunResult]


@dataclass
class ValidationReport:
    """Outcome of one cross-technique validation run."""

    frames: int
    checks: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, description: str, ok: bool) -> None:
        self.checks.append(description)
        if not ok:
            self.failures.append(description)

    def render(self) -> str:
        lines = [
            f"validation over {self.frames} frames: "
            f"{len(self.checks) - len(self.failures)}/{len(self.checks)} "
            "checks passed"
        ]
        for check in self.checks:
            marker = "FAIL" if check in self.failures else "ok"
            lines.append(f"  [{marker}] {check}")
        return "\n".join(lines)


def _images_equal(expected: RunResult, actual: RunResult) -> bool:
    return all(
        np.array_equal(a.image, b.image)
        for a, b in zip(expected.frames, actual.frames)
    )


def _max_frame_error(expected: RunResult, actual: RunResult) -> float:
    """Worst per-frame mean absolute color error (per channel, 0..1)."""
    return max(
        (float(np.abs(a.image - b.image).mean())
         for a, b in zip(expected.frames, actual.frames)),
        default=0.0,
    )


def validate_stream(
    stream: FrameStream,
    config: Optional[GPUConfig] = None,
    modes: Optional[Sequence[object]] = None,
    backends: Optional[Sequence[str]] = None,
    corruptor: Optional[Corruptor] = None,
) -> ValidationReport:
    """Run ``stream`` under every (technique, backend), check contracts.

    Args:
        stream: the frames to validate.
        config: GPU configuration (default :meth:`GPUConfig.default`).
        modes: techniques (or registered names) to cross-compare;
            ``None`` takes every registered technique, so the matrix
            grows as techniques are registered.
        backends: kernel backends to render under.  ``None`` keeps the
            single default backend and the report's historical check
            labels; two or more makes the run differential.
        corruptor: optional hook mangling results post-render (fault
            injection for the corpus gate); never used by normal
            validation.
    """
    config = config or GPUConfig.default()
    techniques: Tuple[Technique, ...] = (
        default_modes() if modes is None
        else tuple(resolve_technique(mode) for mode in modes)
    )
    if backends is None:
        resolved_backends: Tuple[str, ...] = (DEFAULT_BACKEND,)
    else:
        resolved_backends = tuple(
            normalize_backend(backend) for backend in backends)
    differential = len(resolved_backends) > 1
    report = ValidationReport(frames=len(stream))

    results: Dict[Tuple[str, str], RunResult] = {}
    for backend in resolved_backends:
        for technique in techniques:
            result = GPU(
                config, technique, backend=backend
            ).render_stream(stream)
            if corruptor is not None:
                result = corruptor(technique.name, backend, result)
            results[(technique.name, backend)] = result

    reference_backend = resolved_backends[0]
    baseline = results.get(("baseline", reference_backend))
    for (name, backend), result in results.items():
        technique = next(t for t in techniques if t.name == name)
        at_reference = backend == reference_backend
        if technique.pixel_exact:
            if baseline is None or (name == "baseline" and at_reference):
                continue
            if differential:
                label = (f"{name}[{backend}]: pixel-identical to "
                         f"baseline[{reference_backend}]")
            else:
                label = f"{name}: images pixel-identical to baseline"
            report.record(label, _images_equal(baseline, result))
        elif at_reference:
            if baseline is None:
                continue
            tolerance = technique.error_tolerance
            suffix = f"[{backend}]" if differential else ""
            error = _max_frame_error(baseline, result)
            report.record(
                f"{name}{suffix}: mean color error {error:.5f} <= "
                f"{tolerance:g} vs baseline",
                error <= tolerance,
            )
            base_shaded = baseline.total_stats(warmup=0).fragments_shaded
            shaded = result.total_stats(warmup=0).fragments_shaded
            report.record(
                f"{name}{suffix}: shaded fragments <= baseline",
                shaded <= base_shaded,
            )
        else:
            # Approximation is a modelling choice; backend divergence is
            # a bug.  Cross-backend stays a bit-identity contract.
            report.record(
                f"{name}[{backend}]: pixel-identical to "
                f"{name}[{reference_backend}]",
                _images_equal(results[(name, reference_backend)], result),
            )

    for backend in resolved_backends:
        suffix = f" [{backend}]" if differential else ""
        if (
            ("baseline", backend) in results
            and ("evr-reorder-only", backend) in results
            and ("oracle", backend) in results
        ):
            base_shaded = results[
                ("baseline", backend)
            ].total_stats(warmup=0).fragments_shaded
            reorder_shaded = results[
                ("evr-reorder-only", backend)
            ].total_stats(warmup=0).fragments_shaded
            oracle_shaded = results[
                ("oracle", backend)
            ].total_stats(warmup=0).fragments_shaded
            report.record(
                "shaded fragments: oracle <= evr-reordered <= baseline"
                + suffix,
                oracle_shaded <= reorder_shaded <= base_shaded,
            )

        if ("evr", backend) in results and ("oracle", backend) in results:
            evr_skipped = results[("evr", backend)].total_stats(
                warmup=0
            ).tiles_skipped
            oracle_equal = results[
                ("oracle", backend)
            ].comparator.tiles_equal
            report.record(
                "EVR tile skips within the pixel-exact oracle bound"
                + suffix,
                evr_skipped <= oracle_equal,
            )

    return report
