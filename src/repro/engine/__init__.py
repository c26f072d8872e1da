"""The execution engine: stateless tile jobs, pluggable schedulers and a
unified instrumentation bus.

Every outer loop of the simulator goes through this layer:

* :mod:`repro.engine.tile_job` — the unit of raster work.  A
  :class:`TileJob` is a stateless, picklable description of a range of
  tiles' rendering (display lists, config, features); executing it
  yields a :class:`TileResult` (each tile's colour patch and end-of-tile
  FVP state, the range's counter totals and texture bursts).  A
  :class:`TileContext` owns the per-tile Z/Color/Layer buffers the
  per-entry loop renders into and is reused across jobs within one
  worker.
* :mod:`repro.engine.scheduler` — the :class:`Scheduler` protocol with
  :class:`SerialScheduler` (default; bit-identical to the historical
  inline loop) and :class:`ProcessPoolScheduler` implementations.  The
  same protocol drives per-frame tile fan-out and suite-level
  (benchmark, mode) fan-out.
* :mod:`repro.engine.job` — the picklable job envelope every scheduler
  (the resilient one included) runs jobs through when a profiler, bus
  or fault plan is armed, and the ``settle`` step that publishes a kept
  job's timing and events in the parent.
* :mod:`repro.engine.instrumentation` — the mergeable
  :class:`Instrumentation` record that tile jobs and pipeline phases
  return and the engine reduces, so serial and parallel executions
  produce identical metrics by construction.
* :mod:`repro.engine.diskcache` — the on-disk run cache under
  ``.repro_cache/`` keyed by (benchmark, mode, config, frames,
  code-version).
"""

from .instrumentation import Instrumentation, merge_unit_counters
from .scheduler import (
    ProcessPoolScheduler,
    Scheduler,
    SerialScheduler,
    make_scheduler,
)
from .diskcache import DiskCache, default_cache_dir
from .tile_job import TileContext, TileJob, TileResult, execute_tile_job

__all__ = [
    "Instrumentation",
    "merge_unit_counters",
    "Scheduler",
    "SerialScheduler",
    "ProcessPoolScheduler",
    "make_scheduler",
    "TileContext",
    "TileJob",
    "TileResult",
    "execute_tile_job",
    "DiskCache",
    "default_cache_dir",
]
