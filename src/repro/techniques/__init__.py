"""``repro.techniques`` — the pluggable pipeline-technique registry.

The mode axis of the whole repo: ``workload.modes`` validation, the
``repro validate`` / corpus-gate matrices, harness caching and the CLI
all resolve technique names here.  Importing the package registers the
built-in catalog (paper modes, alternative culling mechanisms, and the
DSR / FHV / VR-Pipe rival models); downstream code registers more with
:func:`register` and they flow through every gate automatically.

Adding a technique is ~50 lines: build a :class:`PipelineFeatures`
combination (adding flags + the fragment-path hook if the mechanism is
new), ``register(Technique(...))`` with a validation contract
(``pixel_exact`` or an ``error_tolerance``), and optionally attach a
:func:`register_metric_extractor` for its distilled metrics.  See
``docs/architecture.md`` §14.
"""

from .registry import (
    Technique,
    default_modes,
    get_technique,
    metric_extras,
    register,
    register_metric_extractor,
    resolve_features,
    resolve_technique,
    technique_names,
    unknown_mode_message,
)
from .catalog import (  # noqa: F401  (importing populates the registry)
    BASELINE,
    DSR,
    EVR,
    EVR_HIZ,
    EVR_REORDER_ONLY,
    FHV,
    HIZ,
    ORACLE,
    RE,
    VRPIPE_ET,
    Z_PREPASS,
)
from .dsr import DSRController, dsr_signature

__all__ = [
    "Technique",
    "register",
    "register_metric_extractor",
    "get_technique",
    "resolve_technique",
    "resolve_features",
    "default_modes",
    "technique_names",
    "unknown_mode_message",
    "metric_extras",
    "DSRController",
    "dsr_signature",
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
