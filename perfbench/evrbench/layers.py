"""Per-layer timing for the traced run, measured from outside the program.

A :class:`LayerClock` keeps one stack of open intervals.  Two sources push
onto it:

* the program's own tracer spans (``frame``, ``geometry``, ``command``,
  ``raster``, ``schedule``, ``execute``, ``reduce*``, ``cache.*``,
  ``run ...``), received by installing :class:`ClockTracer` as the
  process tracer;
* wrappers that :class:`Probe` installs around public entry points of
  the scenes, core, hw, kernels, engine, memsys and harness layers, and
  removes again when the traced run ends.

Each key's *self time* is its interval minus the part its children
cover, so the self times of all keys add up to the time spent inside
the outermost intervals.  A pool worker forked while a probe is active
inherits it; its clock is written to a per-process file after every cell
(see :func:`traced_run_pair`) and merged by the parent.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.evr import VisibilityPredictor
from repro.core.rendering_elimination import RenderingElimination
from repro.core.subtile import SubTileVisibilityPredictor
from repro.commands import FrameStream
from repro.engine.instrumentation import merge_unit_counters
from repro.engine.tile_job import TileJob
from repro.harness import runner as runner_module
from repro.hw.lgt import LayerGeneratorTable
from repro.hw.parameter_buffer import ParameterBuffer
from repro.kernels import batched as batched_kernels
from repro.kernels import reference as reference_kernels
from repro.memsys import BatchedMemorySystem, MemorySystem
from repro.obs.trace import ChromeTracer, tracing

#: Tracer spans are clock keys under their own names, except these and
#: ``run <bench>:<mode>``, which becomes "cell".
SPAN_KEYS = {"cache.get": "diskcache.get", "cache.put": "diskcache.put"}

#: Memory-system calls are charged to the pipeline phase that is open
#: when they are made (the batched model drains the geometry phase's
#: traffic in the ``instrumentation()`` call right after the phase).
_PHASE_OF_SPAN = {"frame": "geometry", "geometry": "geometry",
                  "raster": "raster"}

_KERNEL_OPS = ("depth_test", "depth_write", "color_write", "color_blend",
               "layer_write", "overdraw_update", "taint_set", "taint_or")

_MEMSYS_METHODS = ("fetch_vertex", "fetch_vertex_range",
                   "parameter_buffer_write", "parameter_buffer_read",
                   "texture_batch", "framebuffer_flush", "framebuffer_load",
                   "replay_ops", "end_frame", "reset_stats", "drain",
                   "instrumentation", "snapshot")

#: How many tile results the probe keeps to measure their pickled size.
RESULT_SAMPLE = 64


class LayerClock:
    """Self and inclusive seconds per key, from one stack of intervals."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.phase = "geometry"
        self._stack: List[list] = []

    def enter(self, key: str) -> None:
        self._stack.append([key, time.perf_counter(), 0.0])

    def exit(self) -> None:
        key, start, children = self._stack.pop()
        elapsed = time.perf_counter() - start
        self.self_s[key] += elapsed - children
        self.incl_s[key] += elapsed
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][2] += elapsed

    def timed(self, key: str, fn: Callable) -> Callable:
        def timed_call(*args, **kwargs):
            self.enter(key)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return timed_call

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {"self": dict(self.self_s), "incl": dict(self.incl_s),
                "calls": dict(self.calls)}

    def reset(self) -> None:
        self.self_s.clear()
        self.incl_s.clear()
        self.calls.clear()

    def merge(self, snapshot: Dict[str, Dict[str, float]]) -> None:
        for field, into in (("self", self.self_s), ("incl", self.incl_s),
                            ("calls", self.calls)):
            for key, value in snapshot[field].items():
                into[key] += value


class _ClockSpan:
    __slots__ = ("_clock", "_key", "_phase")

    def __init__(self, clock: LayerClock, key: str, phase: Optional[str]):
        self._clock = clock
        self._key = key
        self._phase = phase

    def __enter__(self) -> "_ClockSpan":
        if self._phase is not None:
            self._clock.phase = self._phase
        self._clock.enter(self._key)
        return self

    def __exit__(self, *exc) -> None:
        self._clock.exit()


class ClockTracer(ChromeTracer):
    """A tracer whose spans open and close intervals on a clock."""

    def __init__(self, clock: LayerClock):
        super().__init__()
        self.clock = clock

    def span(self, name: str, category: str = "sim", track: str = "main",
             **args: Any) -> _ClockSpan:
        key = "cell" if name.startswith("run ") else SPAN_KEYS.get(name, name)
        return _ClockSpan(self.clock, key, _PHASE_OF_SPAN.get(name))


class _TimedBatch:
    """Times ``fragments`` on a kernel backend's tile batch."""

    __slots__ = ("_batch", "_clock")

    def __init__(self, batch, clock: LayerClock):
        self._batch = batch
        self._clock = clock

    def fragments(self, index: int):
        self._clock.enter("kernels.fragments")
        try:
            return self._batch.fragments(index)
        finally:
            self._clock.exit()


# The probe that is active in this process, if any.  A forked pool worker
# inherits it, which is how worker-side layers reach the parent.
_ACTIVE: Optional["Probe"] = None


class Probe:
    """Installs timing wrappers and the clock tracer; ``close`` removes them.

    ``dump_dir`` is where forked pool workers write their per-cell clock
    snapshots; the parent reads them with :meth:`worker_snapshots`.
    """

    def __init__(self, dump_dir: Optional[str] = None):
        self.clock = LayerClock()
        self.dump_dir = dump_dir
        self.results: List[Any] = []
        self.cell_counters: Dict[str, float] = {}
        self._parent_pid = os.getpid()
        self._original_run_pair = runner_module._run_pair
        self._restore: List[Tuple[object, str, object]] = []
        self._tracing = None

    # -- installation ---------------------------------------------------------

    def _patch(self, owner: object, name: str, wrapper_for) -> None:
        """Replace ``owner.name`` by ``wrapper_for(original)``.  Names a
        class only inherits are left alone: the base's patch covers them."""
        namespace = vars(owner)
        if name not in namespace:
            return
        original = namespace[name]
        if isinstance(original, staticmethod):
            replacement = staticmethod(wrapper_for(original.__func__))
        else:
            replacement = wrapper_for(original)
        self._restore.append((owner, name, original))
        setattr(owner, name, replacement)

    def _time(self, owner: object, name: str, key: str) -> None:
        self._patch(owner, name, lambda fn: self.clock.timed(key, fn))

    def install(self) -> "Probe":
        global _ACTIVE
        clock = self.clock
        self._time(FrameStream, "frame", "scenes")
        for predictor in (VisibilityPredictor, SubTileVisibilityPredictor):
            self._time(predictor, "predict", "evr.predict")
            self._time(predictor, "record_tile", "evr.record")
        for name in ("primitive_crc", "on_primitive_binned",
                     "should_skip_tile", "poison_tile", "end_frame"):
            self._time(RenderingElimination, name, "re")
        for name in ("store_primitive", "display_list", "reset"):
            self._time(ParameterBuffer, name, "hw")
        for name in ("assign_layer", "reset"):
            self._time(LayerGeneratorTable, name, "hw")
        for module in (batched_kernels, reference_kernels):
            self._patch(module, "prepare_tile", self._timed_prepare)
            for name in _KERNEL_OPS:
                self._time(module, name, "kernels.ops")
        self._patch(TileJob, "run", self._timed_job)
        for system in (MemorySystem, BatchedMemorySystem):
            for name in _MEMSYS_METHODS:
                self._patch(system, name, self._timed_memsys)
        self._patch(runner_module, "metrics_from_result",
                    self._timed_distill)
        self._patch(runner_module, "_run_pair", lambda fn: traced_run_pair)
        self._tracing = tracing(ClockTracer(clock))
        self._tracing.__enter__()
        _ACTIVE = self
        return self

    def close(self) -> None:
        global _ACTIVE
        _ACTIVE = None
        if self._tracing is not None:
            self._tracing.__exit__(None, None, None)
            self._tracing = None
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Probe":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- wrappers ---------------------------------------------------------------

    def _timed_prepare(self, fn: Callable) -> Callable:
        clock = self.clock

        def prepare_tile(*args, **kwargs):
            clock.enter("kernels.prepare")
            try:
                return _TimedBatch(fn(*args, **kwargs), clock)
            finally:
                clock.exit()
        return prepare_tile

    def _timed_job(self, fn: Callable) -> Callable:
        clock = self.clock
        results = self.results

        def run(job, *args, **kwargs):
            clock.enter("tile_job")
            try:
                result = fn(job, *args, **kwargs)
            finally:
                clock.exit()
            if len(results) < RESULT_SAMPLE:
                results.append(result)
            return result
        return run

    def _timed_distill(self, fn: Callable) -> Callable:
        clock = self.clock

        def metrics_from_result(benchmark, mode, result):
            clock.enter("distill")
            try:
                return fn(benchmark, mode, result)
            finally:
                clock.exit()
                self.cell_counters = run_counters(result)
        return metrics_from_result

    def _timed_memsys(self, fn: Callable) -> Callable:
        clock = self.clock

        def memsys_call(*args, **kwargs):
            clock.enter("memsys." + clock.phase)
            try:
                return fn(*args, **kwargs)
            finally:
                clock.exit()
        return memsys_call

    # -- pool workers -----------------------------------------------------------

    def worker_snapshots(self) -> List[Dict[str, Any]]:
        """Every per-cell record the pool workers wrote, in file order."""
        records: List[Dict[str, Any]] = []
        if not self.dump_dir or not os.path.isdir(self.dump_dir):
            return records
        for name in sorted(os.listdir(self.dump_dir)):
            with open(os.path.join(self.dump_dir, name)) as handle:
                records.extend(json.loads(line) for line in handle if line)
        return records


def traced_run_pair(payload):
    """Stand-in for the suite runner's pool entry point while a probe is
    active: runs the cell, then (in a pool worker) appends the worker
    clock's snapshot and the cell's counters to a per-process file."""
    probe = _ACTIVE
    in_worker = os.getpid() != probe._parent_pid
    if in_worker:
        # Drop what the worker's clock inherited from the parent at fork.
        probe.clock.reset()
    metrics = probe._original_run_pair(payload)
    if in_worker and probe.dump_dir:
        record = probe.clock.snapshot()
        record["counters"] = probe.cell_counters
        record["result_bytes"] = [len(pickle.dumps(result))
                                  for result in probe.results]
        probe.results.clear()
        path = os.path.join(probe.dump_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    return metrics


def run_counters(result) -> Dict[str, float]:
    """Every frame's ``FrameStats`` and memory-unit counters, summed.

    Memory counters are flattened to ``mem.<unit>.<counter>``.
    """
    counters: Dict[str, float] = dict(result.total_stats(warmup=0).as_dict())
    units: Dict[str, Dict[str, int]] = {}
    for frame in result.frames:
        merge_unit_counters(units, frame.geometry.units)
        merge_unit_counters(units, frame.raster.units)
    for unit, values in units.items():
        for name, value in values.items():
            counters[f"mem.{unit}.{name}"] = value
    counters["frames"] = len(result.frames)
    return counters


def add_counters(into: Dict[str, float], counters: Dict[str, float]) -> None:
    for name, value in counters.items():
        into[name] = into.get(name, 0) + value
