"""Memory-system model: set-associative caches and a DRAM channel model.

The functional pipeline produces memory *events* (vertex fetches, texture
samples, parameter-buffer traffic, framebuffer flushes); this package turns
them into hit/miss counts and DRAM traffic, which the timing and energy
models convert into cycles and joules.  It plays the role DRAMSim2 and the
cache models play inside the paper's Teapot simulator.

Two implementations sit behind one surface: the scalar
:class:`MemorySystem` (the semantic reference — one ``OrderedDict`` walk
per line) and the batched :class:`BatchedMemorySystem` (structure-of-
arrays trace consumption, bit-identical counters).  Pick one with
:func:`create_memory_system`; the choice rides on the same
``scheduler.backend`` execution-policy knob as the fragment kernels.
"""

from typing import Optional

from .batched import BatchedCache, BatchedMemorySystem
from .cache import AccessResult, Cache
from .dram import DRAMChannelModel
from .hierarchy import MemorySystem
from .ops import MemOp, replay_memory_trace


def create_memory_system(config, backend: Optional[str] = None):
    """Instantiate the memory-system implementation for ``backend``.

    ``"python"`` (aliases ``scalar``/``reference``) returns the scalar
    reference model; ``"numpy"`` (alias ``batched``) returns the batched
    model.  ``None`` resolves to the session default, exactly as the
    fragment-kernel seam does.
    """
    from ..kernels import normalize_backend

    if normalize_backend(backend) == "numpy":
        return BatchedMemorySystem(config)
    return MemorySystem(config)


__all__ = [
    "Cache",
    "AccessResult",
    "DRAMChannelModel",
    "MemorySystem",
    "BatchedCache",
    "BatchedMemorySystem",
    "create_memory_system",
    "MemOp",
    "replay_memory_trace",
]
