"""Kernel backends: interchangeable implementations of the geometry and
fragment hot paths.

The geometry pipeline's vertex transform and Primitive Assembly (each
backend has one entry point: ``assemble`` per draw command in the
reference, ``assemble_frame`` per frame in the batched backend) and the
raster pipeline's per-tile inner loops — coverage/edge tests,
barycentric interpolation, Early-Z, blending and the overshading/taint
bookkeeping — are expressed as pure kernel functions behind this seam.
Two backends implement the contract declared in
:mod:`repro.kernels.api`:

``python``
    The scalar reference (:mod:`repro.kernels.reference`): the
    historical per-triangle and per-entry loops, moved verbatim.
    Defines the bit-exact semantics.

``numpy``
    The batched backend (:mod:`repro.kernels.batched`): transforms and
    culls a whole frame's draw commands as ``(n, 3)`` coordinate arrays,
    rasterizes display lists as ``(N, h, w)`` array expressions.  Under
    baseline, RE and EVR (Early-Z, and nothing that reads per-entry
    state mid-list) it takes a raster job's whole range of tiles at once
    and resolves it, opaque and blended entries alike, in one array pass
    (``resolve_range``); the other techniques go tile by tile through
    the per-entry loop.  Bit-identical to the reference by construction
    and by test, several times faster — the default.

Because backends are proven bit-identical, the selected backend is
execution policy: it lives in ``RunSpec.scheduler`` (excluded from
``spec_hash()``), so disk-cache entries are shared across backends.

Selection: ``--backend`` on the CLI, ``REPRO_BACKEND`` in the
environment, or ``scheduler.backend`` in a spec file.  Aliases
``scalar``/``reference`` mean ``python``; ``batched`` means ``numpy``.
"""

from __future__ import annotations

from types import ModuleType
from typing import Optional, Tuple

from . import batched, reference
from .api import Fragments

#: The backend used when nothing selects one explicitly.  Safe to default
#: to the fast path: bit-identity with the reference is enforced by the
#: cross-backend property suite.
DEFAULT_BACKEND = "numpy"

_BACKENDS = {
    reference.NAME: reference,
    batched.NAME: batched,
}

_ALIASES = {
    "scalar": reference.NAME,
    "reference": reference.NAME,
    "batched": batched.NAME,
}


def available_backends() -> Tuple[str, ...]:
    """Canonical backend names, sorted (for ``repro --version`` etc.)."""
    return tuple(sorted(_BACKENDS))


def normalize_backend(name: Optional[str]) -> str:
    """Resolve ``name`` (or None for the default) to a canonical backend
    name; raises ``ValueError`` for unknown names.  Case-insensitive, so
    ``REPRO_BACKEND=NumPy`` does what it looks like."""
    if not name:
        return DEFAULT_BACKEND
    folded = name.lower()
    canonical = _ALIASES.get(folded, folded)
    if canonical not in _BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r} "
            f"(available: {', '.join(available_backends())})"
        )
    return canonical


def resolve_backend(name: Optional[str]) -> ModuleType:
    """The backend module for ``name`` (aliases and None accepted)."""
    return _BACKENDS[normalize_backend(name)]


__all__ = [
    "DEFAULT_BACKEND",
    "Fragments",
    "available_backends",
    "batched",
    "normalize_backend",
    "reference",
    "resolve_backend",
]
