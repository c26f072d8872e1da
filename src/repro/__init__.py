"""repro — a reproduction of *Early Visibility Resolution for Removing
Ineffectual Computations in the Graphics Pipeline* (HPCA 2019).

The package implements a tile-based-rendering mobile GPU simulator
(functional + event-cost model), the Rendering Elimination technique, and
the paper's EVR mechanism (FVP-based visibility prediction, Algorithm-1
display-list reordering, and signature filtering), together with synthetic
benchmark scenes and a harness regenerating every figure of the paper.
Pipeline techniques — the paper modes plus alternative and rival
mechanisms (Hi-Z, Z-prepass, DSR, FHV, VR-Pipe-style early termination)
— live in a pluggable registry (:mod:`repro.techniques`); any call that
takes a mode accepts a registered technique name.

Quickstart::

    from repro import GPU, GPUConfig
    from repro.scenes import benchmark_stream

    config = GPUConfig.default(frames=8)
    stream = benchmark_stream("cde", config)
    result = GPU(config, "evr").render_stream(stream)
    print(result.total_cycles().total, result.redundant_tile_rate())

``repro modes`` on the command line lists every registered technique.
"""

from .config import CacheConfig, GPUConfig, QueueConfig
from .errors import (
    CommandError,
    ConfigError,
    MemoryModelError,
    PipelineError,
    ReproError,
    SceneError,
    SpecError,
)
from .commands import (
    BlendMode,
    DrawCommand,
    Frame,
    FrameStream,
    RenderState,
    ShaderProfile,
)
from .pipeline import (
    GPU,
    FrameResult,
    PipelineFeatures,
    RunResult,
)
from .spec import (
    FeatureOverrides,
    ObsSpec,
    ResilienceSpec,
    ResolvedSpec,
    RunSpec,
    SchedulerSpec,
    WorkloadSpec,
    resolve_spec,
)
from .techniques import (
    Technique,
    default_modes,
    get_technique,
    register,
    technique_names,
)
from .validate import ValidationReport, validate_stream

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "GPUConfig",
    "CacheConfig",
    "QueueConfig",
    "ReproError",
    "ConfigError",
    "PipelineError",
    "CommandError",
    "SceneError",
    "MemoryModelError",
    "ShaderProfile",
    "BlendMode",
    "RenderState",
    "DrawCommand",
    "Frame",
    "FrameStream",
    "GPU",
    "PipelineFeatures",
    "FrameResult",
    "RunResult",
    "SpecError",
    "RunSpec",
    "ResolvedSpec",
    "WorkloadSpec",
    "FeatureOverrides",
    "SchedulerSpec",
    "ResilienceSpec",
    "ObsSpec",
    "resolve_spec",
    "Technique",
    "register",
    "get_technique",
    "technique_names",
    "default_modes",
    "validate_stream",
    "ValidationReport",
]
