"""The TBR graphics pipeline (Figure 1), functional + event-counting.

* :mod:`repro.pipeline.features` — the feature flags selecting which
  mechanisms run.
* :mod:`repro.pipeline.geometry` — the Geometry Pipeline: vertex fetch and
  shading, primitive assembly, and the Polygon List Builder with all the
  EVR hooks (layer assignment, prediction, reordering, signatures).
* :mod:`repro.pipeline.raster` — the Raster Pipeline: per-tile render loop
  with Early Depth Test, fragment shading, blending and FVP bookkeeping.
* :mod:`repro.pipeline.gpu` — the top-level GPU: feature flags, the frame
  loop, and result collection.
"""

from .features import PipelineFeatures
from .gpu import GPU, FrameResult, RunResult

__all__ = [
    "PipelineFeatures",
    "GPU",
    "FrameResult",
    "RunResult",
]
