"""``repro bench``: backend throughput benchmarking and regression gating.

Measures four things per kernel backend, on a preset workload:

1. **End-to-end pipeline throughput** — a full :meth:`GPU.render_stream`
   run under the paper's EVR configuration, with the observability
   tracer attached: frames/sec, simulated cache operations/sec and the
   per-phase wall-time breakdown (geometry/raster/schedule/execute/
   reduce spans).  This number is dominated by the memory-system
   *simulation* (an inherently sequential cache model), so backends
   differ by modest factors here — that is the honest Amdahl story.

2. **Fragment-kernel throughput** — the hot path the backend seam
   actually abstracts.  The preset's real per-tile display lists are
   captured from a pipeline run, then replayed tile by tile through the
   backend's :func:`prepare_tile`/``fragments`` kernel exactly as
   :meth:`TileJob.run` drives it under a depth-prepass variant
   (z-prepass/oracle): fragments are requested once for the depth-only
   pass and once for shading.  ``fragments_per_second`` counts the
   fragments delivered across both passes.  This is the ``>= 10x``
   headline metric for the numpy backend.

3. **Geometry throughput** — the preset's frames replayed through each
   backend's geometry phase alone (vertex transform, Primitive
   Assembly and the Polygon List Builder) on the same memory-system
   implementation, each frame predicting from the FVP Table the
   pipeline run left for it: ``primitives_per_second``.

4. **Execute throughput** — the captured raster jobs, each a range of
   tiles, replayed through :meth:`TileJob.run` on each backend, the
   whole raster execute step (rasterization, the Early Depth Test,
   shading bookkeeping, blending and the texture bursts; under EVR the
   numpy backend renders each range in one array pass):
   ``tiles_per_second``.

The emitted ``BENCH_<preset>.json`` also records the numpy/python
ratio of every sweep (``speedup``) and, for each ratio CI gates, its
spread over the sweep's rounds (``spread``: min, median, max and
IQR/median of the per-round ratios).  Because a ratio compares two
measurements from the same process on the same machine, it is far more
stable across hardware than absolute numbers — the CI perf-smoke job
gates on the ratios via :func:`check_bench_regression`.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import gc
import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import GPUConfig
from ..engine.scheduler import SerialScheduler
from ..engine.tile_job import TileContext, TileJob
from ..errors import ConfigError
from ..kernels import available_backends, resolve_backend
from ..kernels.tile_geometry import tile_origin, valid_mask
from ..memsys import BatchedMemorySystem, create_memory_system
from ..obs.events import MetricSample, cache_ops_of, get_bus
from ..obs.profile import phase_breakdown
from ..obs.trace import ChromeTracer, tracing
from ..pipeline import GPU
from ..scenes import benchmark_stream, scaled_world_stream
from ..timing import FrameStats


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchPreset:
    """One named bench workload (resolution, frames, geometry load)."""

    name: str
    description: str
    width: int
    height: int
    frames: int
    workload: str            # Table III alias, or "scaled" for the
    num_boxes: int = 0       # scaled-up world scene (num_boxes props)

    def config(self) -> GPUConfig:
        return GPUConfig(screen_width=self.width,
                         screen_height=self.height,
                         frames=self.frames)

    def stream(self):
        config = self.config()
        if self.workload == "scaled":
            return scaled_world_stream(config, num_boxes=self.num_boxes)
        return benchmark_stream(self.workload, config)


BENCH_PRESETS: Dict[str, BenchPreset] = {
    preset.name: preset
    for preset in (
        BenchPreset("tiny", "CI smoke: tib at thumbnail resolution",
                    width=64, height=48, frames=4, workload="tib"),
        BenchPreset("default", "tib at the repo's default resolution",
                    width=192, height=160, frames=10, workload="tib"),
        BenchPreset("scaled",
                    "geometry-scaled world scene: deep display lists",
                    width=192, height=160, frames=10, workload="scaled",
                    num_boxes=96),
        BenchPreset("paper", "tib at the paper's 1196x768 over 60 frames",
                    width=1196, height=768, frames=60, workload="tib"),
    )
}

#: Depth-prepass access pattern: one depth-only pass plus one shading
#: pass per entry, as in TileJob.run with z_prepass/oracle_z.
SWEEP_PASSES = 2


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class _CaptureScheduler(SerialScheduler):
    """Serial scheduler that also keeps every job it executed."""

    def __init__(self) -> None:
        super().__init__()
        self.jobs: List[TileJob] = []

    def map(self, fn, items):
        self.jobs.extend(items)
        return super().map(fn, items)


class _TraceRecorder(BatchedMemorySystem):
    """The batched memory system, also keeping the traffic a run hands
    it: each frame's traces, in the order ``replay_ops`` received them,
    closed by ``end_frame``.

    ``replay_ops`` is the only way traffic reaches a memory system, so
    this is the run's complete memory traffic for the memsys replay
    sweep: per frame two traces, its geometry trace (vertex fetches and
    Parameter Buffer writes) and its raster trace (display-list reads,
    texture bursts and tile flushes), or the geometry trace alone when
    Rendering Elimination skipped every tile.  Frame boundaries are
    kept (``end_frame`` traffic is part of replay cost); stat resets are
    not, so replaying the traffic once yields lifetime counters both
    implementations must agree on.
    """

    def __init__(self, config: GPUConfig):
        super().__init__(config)
        self.frames: List[List] = []
        self._open: List = []

    def replay_ops(self, trace) -> None:
        self._open.append(trace)
        super().replay_ops(trace)

    def end_frame(self) -> None:
        self.frames.append(self._open)
        self._open = []
        super().end_frame()


def machine_info() -> Dict[str, object]:
    """The hardware/runtime facts a bench number is meaningless without."""
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "cpu_model": cpu_model,
        "cpu_count": os.cpu_count(),
    }


def _fvp_state(predictor) -> Dict[str, object]:
    """A copy of everything ``predictor`` predicts from: its FVP Table,
    history and sub-tile entries (its counters are left out)."""
    return copy.deepcopy({name: value
                          for name, value in vars(predictor).items()
                          if name != "stats"})


def _pipeline_measurement(preset: BenchPreset, backend: str,
                          record_trace: bool = False) -> Dict:
    """One full EVR-mode run: frames/sec, cache ops/sec, phase times.

    With ``record_trace`` the run's memory system is a
    :class:`_TraceRecorder` and the measurement carries each frame's
    traces under ``"_trace"`` (recording is one list append per trace),
    and the FVP state each frame's geometry phase starts from under
    ``"_fvp"``.  That state is copied before each frame's span opens
    and the copying is left out of the run's timings.
    """
    config = preset.config()
    capture = _CaptureScheduler()
    recorder = _TraceRecorder(config) if record_trace else None
    gpu = GPU(config, "evr", scheduler=capture, backend=backend,
              memory_system=recorder)
    fvp_states: List[Dict[str, object]] = []
    capture_seconds = 0.0
    if record_trace:
        render_frame = gpu.render_frame

        def capturing(frame):
            nonlocal capture_seconds
            start = time.perf_counter()
            fvp_states.append(_fvp_state(gpu.predictor))
            capture_seconds += time.perf_counter() - start
            return render_frame(frame)
        gpu.render_frame = capturing
    tracer = ChromeTracer()
    start = time.perf_counter()
    with tracing(tracer):
        result = gpu.render_stream(preset.stream())
    elapsed = time.perf_counter() - start - capture_seconds
    stats = result.total_stats(warmup=0)
    cache_ops = sum(cache_ops_of(frame.geometry) + cache_ops_of(frame.raster)
                    for frame in result.frames)
    measurement = {
        "wall_seconds": elapsed,
        "frames": len(result.frames),
        "frames_per_second": len(result.frames) / elapsed,
        "fragments_shaded": stats.fragments_shaded,
        "cache_ops": cache_ops,
        "cache_ops_per_second": cache_ops / elapsed,
        "phases": phase_breakdown(tracer),
        "raster_phase_ms": _raster_phase_totals(tracer),
        "_jobs": capture.jobs,
    }
    if recorder is not None:
        measurement["_trace"] = recorder.frames
        measurement["_fvp"] = fvp_states
    return measurement


def _raster_phase_totals(tracer: ChromeTracer) -> Dict[str, float]:
    """Total milliseconds per raster-engine span (schedule/execute/reduce)."""
    totals: Dict[str, float] = {}
    for event in tracer.spans(category="raster"):
        totals[event["name"]] = (totals.get(event["name"], 0.0)
                                 + event["dur"] / 1e3)
    return totals


def _round_seconds(backends: Sequence[str], repeat: int,
                   seconds: Callable[[str], float]
                   ) -> Dict[str, List[float]]:
    """``seconds(backend)`` for ``repeat`` rounds per backend,
    interleaved round by round: CPU-frequency drift over a minutes-long
    bench would otherwise dominate the cross-backend ratio CI gates on.
    A sweep reports the best round (``best_seconds``) and keeps every
    round (``round_seconds``) for :func:`ratio_spread`."""
    rounds: Dict[str, List[float]] = {backend: [] for backend in backends}
    for _ in range(max(1, repeat)):
        for backend in backends:
            rounds[backend].append(seconds(backend))
    return rounds


def _timed_rounds(rounds: List[float]) -> Dict[str, object]:
    """A sweep's ``best_seconds`` and ``round_seconds`` fields."""
    return {"best_seconds": min(rounds), "round_seconds": rounds}


def _seconds(fn: Callable, *args) -> float:
    """Wall-clock seconds of ``fn(*args)``."""
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _warm_up(backends: Sequence[str], run: Callable[[str], Any],
             identity: Callable[[Any], Any], what: str) -> Dict[str, Any]:
    """The warm-up round and bit-identity check: every backend's
    ``run(backend)``, raising when one's ``identity(outcome)`` differs
    from the first backend's (no speedup for a model that diverged)."""
    outcomes = {backend: run(backend) for backend in backends}
    for backend in backends[1:]:
        if identity(outcomes[backend]) != identity(outcomes[backends[0]]):
            raise AssertionError(f"{what} on backend {backend!r} diverged "
                                 f"from {backends[0]!r}")
    return outcomes


class _DigestedBatch:
    """A tile batch that feeds each ``Fragments`` it delivers to
    ``digest``: mask, count, and depth, rgba, u and v under the mask.
    No on-screen coverage reads as empty, whether the backend delivers
    an empty mask (the reference) or None (numpy)."""

    def __init__(self, batch, digest) -> None:
        self._batch = batch
        self._digest = digest

    def fragments(self, index: int):
        frag = self._batch.fragments(index)
        if frag is None or not frag.count:
            self._digest.update(b"-")
            return frag
        mask = frag.mask
        self._digest.update(frag.count.to_bytes(8, "little"))
        for values in (mask, frag.depth[mask], frag.rgba[mask],
                       frag.u[mask], frag.v[mask]):
            self._digest.update(values.tobytes())
        return frag


def _sweep_once(jobs: Sequence[TileJob], backend: str,
                digest=None) -> int:
    """One full kernel sweep: replay every captured display list, tile by
    tile, through ``backend``'s ``prepare_tile``/``fragments`` exactly
    as :meth:`TileJob.run` drives it under a depth-prepass variant
    (each entry's fragments requested ``SWEEP_PASSES`` times), feeding
    ``digest`` (a ``hashlib`` object) if given."""
    kernels = resolve_backend(backend)
    fragments = 0
    for job in jobs:
        config = job.config
        bounds = job.bounds.tolist()
        for index, tile in enumerate(job.tiles.tolist()):
            start, stop = bounds[index], bounds[index + 1]
            tile_x, tile_y = tile % config.tiles_x, tile // config.tiles_x
            x0, y0 = tile_origin(tile_x, tile_y,
                                 config.tile_width, config.tile_height)
            valid = valid_mask(tile_x, tile_y,
                               config.tile_width, config.tile_height,
                               config.screen_width, config.screen_height)
            batch = kernels.prepare_tile(
                job.window[start:stop], job.attributes[start:stop], x0, y0,
                config.tile_width, config.tile_height, valid,
            )
            if digest is not None:
                batch = _DigestedBatch(batch, digest)
            for _ in range(SWEEP_PASSES):
                for entry in range(stop - start):
                    frag = batch.fragments(entry)
                    if frag is not None:
                        fragments += frag.count
    return fragments


def _kernel_sweeps(jobs: Sequence[TileJob], backends: Sequence[str],
                   repeat: int) -> Dict[str, Dict]:
    """Best-of-``repeat`` kernel throughput for every backend
    (:func:`_round_seconds`).  The warm-up round is the bit-identity
    check: every backend must deliver the first backend's exact
    fragments (:class:`_DigestedBatch`)."""
    def digested(backend: str) -> Tuple[int, str]:
        digest = hashlib.sha256()
        return _sweep_once(jobs, backend, digest), digest.hexdigest()

    outcomes = _warm_up(backends, digested, itemgetter(1), "kernels")
    rounds = _round_seconds(
        backends, repeat, lambda backend: _seconds(_sweep_once, jobs,
                                                   backend))
    entries = sum(len(job.state) for job in jobs)
    return {
        backend: {
            "sweep_passes": SWEEP_PASSES,
            "jobs": len(jobs),
            "entries": entries,
            "fragments": outcomes[backend][0],
            **_timed_rounds(rounds[backend]),
            "fragments_per_second": (outcomes[backend][0]
                                     / min(rounds[backend])),
        }
        for backend in backends
    }


def _memsys_replay_once(frames: Sequence[Sequence], config: GPUConfig,
                        backend: str) -> Dict[str, object]:
    """Replay the recorded traffic through a fresh ``backend`` memory
    system, each frame's traces then its ``end_frame``; returns the
    elapsed seconds and the final snapshot."""
    memory = create_memory_system(config, backend)
    start = time.perf_counter()
    for traces in frames:
        for trace in traces:
            memory.replay_ops(trace)
        memory.end_frame()
    memory.drain()
    elapsed = time.perf_counter() - start
    return {"seconds": elapsed, "snapshot": memory.snapshot(),
            "dram_cycles": memory.dram.cycles()}


def _memsys_sweeps(frames: Sequence[Sequence], config: GPUConfig,
                   backends: Sequence[str], repeat: int) -> Dict[str, Dict]:
    """Best-of-``repeat`` memory-trace replay throughput per backend.

    The memory-system analogue of :func:`_kernel_sweeps`: the traces the
    numpy pipeline run handed its memory system replay through every
    implementation, interleaved round by round for ratio stability.  The
    warm-up round doubles as the bit-identity check — every backend must
    produce the first backend's exact counters and DRAM cycle count, so
    a bench can never report a speedup for a model that diverged.
    """
    reference = _warm_up(
        backends, lambda backend: _memsys_replay_once(frames, config,
                                                      backend),
        itemgetter("snapshot", "dram_cycles"), "memsys")[backends[0]]
    cache_ops = sum(counters.get("accesses", 0)
                    for counters in reference["snapshot"].values())
    rounds = _round_seconds(backends, repeat, lambda backend: (
        _memsys_replay_once(frames, config, backend)["seconds"]))
    # Every trace's ops, and one end-of-frame op per frame.
    trace_ops = sum(trace.ops for traces in frames for trace in traces)
    return {
        backend: {
            "trace_ops": trace_ops + len(frames),
            "cache_ops": cache_ops,
            **_timed_rounds(rounds[backend]),
            "cache_ops_per_second": cache_ops / min(rounds[backend]),
        }
        for backend in backends
    }


def _geometry_once(frames: Sequence, fvp_states: Sequence,
                   config: GPUConfig, backend: str) -> Dict[str, object]:
    """Replay ``frames`` through a fresh EVR GPU's geometry phase on
    ``backend``.  No raster phase runs: before each frame the predictor
    takes the FVP state that frame started from in the pipeline run
    (``fvp_states``; geometry only reads it), so the replay predicts,
    reorders and filters signatures as the run did.
    The memory system is the batched one on every backend: geometry
    traffic is queued, never simulated, so the timing is the geometry
    phase's own.  Returns the elapsed seconds, the counters and every
    frame's primitive table and display lists."""
    gpu = GPU(config, "evr", backend=backend,
              memory_system=create_memory_system(config, "numpy"))
    snapshots = []
    primitives = 0
    elapsed = 0.0
    for frame, fvp_state in zip(frames, fvp_states):
        vars(gpu.predictor).update(fvp_state)
        stats = FrameStats()
        start = time.perf_counter()
        gpu.geometry.process_frame(frame, stats)
        gpu.re.end_frame()
        elapsed += time.perf_counter() - start
        primitives += stats.primitives_in
        snapshots.append((stats, gpu.parameter_buffer.primitives,
                          gpu.parameter_buffer.lists))
    return {"seconds": elapsed, "primitives": primitives,
            "snapshots": snapshots}


def _geometry_identity(outcome: Dict[str, object]) -> List[tuple]:
    """What two geometry replays must agree on: per frame the counters,
    and every column of the primitive table and the display lists
    (arrays by dtype, shape and bytes)."""
    return [(stats,) + tuple(
        (value.dtype.str, value.shape, value.tobytes())
        if isinstance(value, np.ndarray) else value
        for columns in (primitives, lists) for value in columns)
        for stats, primitives, lists in outcome["snapshots"]]


@contextlib.contextmanager
def _frozen_heap():
    """Move every object alive now out of the collector's reach for the
    block (``gc.freeze``), so collections inside it traverse only what
    the block allocates."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _geometry_sweeps(frames: Sequence, fvp_states: Sequence,
                     config: GPUConfig, backends: Sequence[str],
                     repeat: int) -> Dict[str, Dict]:
    """Best-of-``repeat`` geometry throughput for every backend,
    interleaved round by round like the other sweeps.  The warm-up
    round is the bit-identity check: every backend must build the first
    backend's exact display lists (both halves, predictions included)
    and ``FrameStats``.

    The bench holds its captures (tile jobs, the recorded trace, the
    frames) throughout, and a replay allocates enough objects to start
    a full garbage collection or two, each of which would traverse them
    all and charge that to the replay.  The sweep runs with them frozen,
    so a collection sees only what the replays allocate.
    """
    with _frozen_heap():
        # Only the count is kept: the snapshots are released.
        primitives = _warm_up(
            backends, lambda backend: _geometry_once(frames, fvp_states,
                                                     config, backend),
            _geometry_identity, "geometry")[backends[0]]["primitives"]
        rounds = _round_seconds(backends, repeat, lambda backend: (
            _geometry_once(frames, fvp_states, config, backend)["seconds"]))
    return {
        backend: {
            "frames": len(frames),
            "primitives": primitives,
            **_timed_rounds(rounds[backend]),
            "primitives_per_second": primitives / min(rounds[backend]),
        }
        for backend in backends
    }


def _execute_once(jobs: Sequence[TileJob], context: TileContext) -> None:
    """Run every job through :meth:`TileJob.run` on one reused context,
    as a worker does."""
    for job in jobs:
        job.run(context)


def _execute_sweeps(jobs: Sequence[TileJob], backends: Sequence[str],
                    repeat: int) -> Dict[str, Dict]:
    """Interleaved rounds of raster-job throughput for every backend,
    like the other sweeps.  Every backend replays the same captured
    jobs, each a range of tiles: on numpy the run techniques take the
    range kernel, on python the per-entry loop tile by tile.  The
    warm-up round is the bit-identity check: every backend must return
    the first backend's exact :class:`TileResult` for every job."""
    per_backend = {
        backend: [dataclasses.replace(job, backend=backend) for job in jobs]
        for backend in backends
    }
    context = TileContext.for_config(jobs[0].config) if jobs else None
    _warm_up(backends, lambda backend: [job.run(context).fingerprint()
                                        for job in per_backend[backend]],
             lambda fingerprints: fingerprints, "tile jobs")
    rounds = _round_seconds(backends, repeat, lambda backend: _seconds(
        _execute_once, per_backend[backend], context))
    tiles = sum(job.tiles.size for job in jobs)
    return {
        backend: {
            "jobs": len(jobs),
            "tiles": tiles,
            **_timed_rounds(rounds[backend]),
            "tiles_per_second": tiles / min(rounds[backend]),
        }
        for backend in backends
    }


#: The numpy/python ratios CI gates, by ``speedup`` key: the sweep each
#: comes from and its label.
GATED_RATIOS = (
    ("fragments_per_second", "kernel_sweep", "kernel fragments/sec"),
    ("cache_ops_per_second", "memsys_sweep", "memsys replay ops/sec"),
    ("primitives_per_second", "geometry_sweep", "geometry primitives/sec"),
    ("tiles_per_second", "execute_sweep", "execute tiles/sec"),
)


def ratio_spread(scalar_seconds: Sequence[float],
                 batched_seconds: Sequence[float]) -> Dict[str, float]:
    """The spread of a gated ratio over a sweep's rounds: round ``i``'s
    ratio is ``scalar_seconds[i] / batched_seconds[i]`` (both backends
    do the same work, so that is the throughput ratio).  Returns the
    rounds' count, min, median and max, and the interquartile range over
    the median."""
    ratios = np.asarray(scalar_seconds) / np.asarray(batched_seconds)
    low, median, high = np.percentile(ratios, (25, 50, 75))
    return {"rounds": int(ratios.size), "min": float(ratios.min()),
            "median": float(median), "max": float(ratios.max()),
            "iqr_over_median": float((high - low) / median)}


def run_bench(preset_name: str,
              backends: Optional[Sequence[str]] = None,
              repeat: int = 3) -> Dict:
    """Run the bench for ``preset_name`` and return the result record."""
    try:
        preset = BENCH_PRESETS[preset_name]
    except KeyError:
        raise ConfigError(
            f"unknown bench preset {preset_name!r}; "
            f"known: {sorted(BENCH_PRESETS)}"
        ) from None
    chosen = tuple(backends) if backends else available_backends()
    bus = get_bus()

    results: Dict[str, Dict] = {}
    jobs: Optional[List[TileJob]] = None
    trace: Optional[List[List]] = None
    fvp_states: Optional[List] = None
    for backend in chosen:
        # The numpy run doubles as the trace recorder: traffic is
        # backend-independent (bit-identical contract), so the traces
        # it hands its memory system feed every memsys sweep.
        record_trace = backend == "numpy"
        measurement = _pipeline_measurement(preset, backend,
                                            record_trace=record_trace)
        captured = measurement.pop("_jobs")
        if jobs is None:
            # Display lists are backend-independent (bit-identical
            # contract); capture once and reuse for every sweep.
            jobs = captured
        if record_trace:
            trace = measurement.pop("_trace")
            fvp_states = measurement.pop("_fvp")
        results[backend] = measurement
        if bus.enabled:
            bus.emit(MetricSample(
                name=f"bench.{backend}.frames_per_second",
                value=measurement["frames_per_second"]))
            bus.emit(MetricSample(
                name=f"bench.{backend}.cache_ops_per_second",
                value=measurement["cache_ops_per_second"]))
    for backend, sweep in _kernel_sweeps(jobs, chosen, repeat).items():
        results[backend]["kernel_sweep"] = sweep
    for backend, sweep in _execute_sweeps(jobs, chosen, repeat).items():
        results[backend]["execute_sweep"] = sweep
    if trace is not None:
        sweeps = _memsys_sweeps(trace, preset.config(), chosen, repeat)
        for backend, sweep in sweeps.items():
            results[backend]["memsys_sweep"] = sweep
    frames = list(preset.stream())
    if fvp_states is None:
        # Without the numpy run there is no capture: replay from empty
        # FVP Tables (a fresh predictor's state).
        fvp_states = [{}] * len(frames)
    sweeps = _geometry_sweeps(frames, fvp_states, preset.config(), chosen,
                              repeat)
    for backend, sweep in sweeps.items():
        results[backend]["geometry_sweep"] = sweep

    record = {
        "preset": preset.name,
        "description": preset.description,
        "config": {
            "width": preset.width,
            "height": preset.height,
            "frames": preset.frames,
            "workload": preset.workload,
            "num_boxes": preset.num_boxes,
        },
        "mode": "evr",
        "python_version": platform.python_version(),
        "machine": machine_info(),
        "backends": results,
    }
    if "python" in results and "numpy" in results:
        scalar = results["python"]
        batched = results["numpy"]
        record["speedup"] = {
            "fragments_per_second": (
                batched["kernel_sweep"]["fragments_per_second"]
                / scalar["kernel_sweep"]["fragments_per_second"]
            ),
            "frames_per_second": (
                batched["frames_per_second"] / scalar["frames_per_second"]
            ),
            "primitives_per_second": (
                batched["geometry_sweep"]["primitives_per_second"]
                / scalar["geometry_sweep"]["primitives_per_second"]
            ),
            "tiles_per_second": (
                batched["execute_sweep"]["tiles_per_second"]
                / scalar["execute_sweep"]["tiles_per_second"]
            ),
        }
        if "memsys_sweep" in scalar and "memsys_sweep" in batched:
            record["speedup"]["cache_ops_per_second"] = (
                batched["memsys_sweep"]["cache_ops_per_second"]
                / scalar["memsys_sweep"]["cache_ops_per_second"]
            )
        record["spread"] = {
            key: ratio_spread(scalar[sweep]["round_seconds"],
                              batched[sweep]["round_seconds"])
            for key, sweep, _ in GATED_RATIOS
            if sweep in scalar and sweep in batched
        }
        if bus.enabled:
            for name, value in sorted(record["speedup"].items()):
                bus.emit(MetricSample(name=f"bench.speedup.{name}",
                                      value=value))
    return record


# ---------------------------------------------------------------------------
# Output and regression gating
# ---------------------------------------------------------------------------

def write_bench_json(record: Dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_bench_summary(record: Dict) -> str:
    lines = [f"bench preset={record['preset']} mode={record['mode']} "
             f"({record['config']['width']}x{record['config']['height']}"
             f" x{record['config']['frames']} frames)"]
    for backend, result in record["backends"].items():
        sweep = result["kernel_sweep"]
        line = (
            f"  {backend:>7}: {sweep['fragments_per_second']:>12,.0f}"
            f" frags/s (kernel)  "
            f"{result['frames_per_second']:6.2f} frames/s  "
            f"{result['cache_ops_per_second']:>11,.0f} cache ops/s"
        )
        memsys = result.get("memsys_sweep")
        if memsys:
            line += (f"  {memsys['cache_ops_per_second']:>11,.0f}"
                     f" replay ops/s")
        geometry = result["geometry_sweep"]
        line += (f"  {geometry['primitives_per_second']:>9,.0f}"
                 f" geometry prims/s")
        execute = result["execute_sweep"]
        line += (f"  {execute['tiles_per_second']:>8,.0f}"
                 f" execute tiles/s")
        lines.append(line)
    speedup = record.get("speedup")
    if speedup:
        line = (
            f"  numpy/python speedup: "
            f"{speedup['fragments_per_second']:.2f}x kernel frags/s, "
            f"{speedup['frames_per_second']:.2f}x frames/s"
        )
        if "cache_ops_per_second" in speedup:
            line += (f", {speedup['cache_ops_per_second']:.2f}x "
                     f"memsys replay")
        line += (f", {speedup['primitives_per_second']:.2f}x geometry"
                 f", {speedup['tiles_per_second']:.2f}x execute")
        lines.append(line)
    for key, _, label in GATED_RATIOS:
        spread = record.get("spread", {}).get(key)
        if spread:
            lines.append(
                f"  {label} ratio over {spread['rounds']} rounds: "
                f"min {spread['min']:.2f}x, median {spread['median']:.2f}x,"
                f" max {spread['max']:.2f}x, IQR/median "
                f"{spread['iqr_over_median']:.3f}")
    return "\n".join(lines)


def check_bench_regression(record: Dict, baseline_path: str,
                           tolerance: float = 0.2) -> List[str]:
    """Compare a fresh bench against a committed baseline JSON.

    Gates on the backend *speedup ratios* (machine-independent), not on
    absolute throughput: a regression is the numpy/python
    ``fragments_per_second`` (kernel sweep), ``cache_ops_per_second``
    (memsys replay sweep), ``primitives_per_second`` (geometry sweep) or
    ``tiles_per_second`` (execute sweep) ratio dropping more than
    ``tolerance`` (fractional) below the baseline's; the last three are
    gated when the baseline has them.
    Returns failure messages, empty when the bench is clean.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    failures: List[str] = []
    base = baseline.get("speedup", {})
    new = record.get("speedup", {})
    if base.get("fragments_per_second") is None \
            or new.get("fragments_per_second") is None:
        failures.append(
            "baseline or current record lacks a numpy/python speedup "
            "(both backends must be benched to gate)"
        )
        return failures
    gated = [(key, label) for key, _, label in GATED_RATIOS
             if key == "fragments_per_second" or base.get(key) is not None]
    for key, label in gated:
        base_speedup = base[key]
        new_speedup = new.get(key)
        if new_speedup is None:
            failures.append(
                f"current record lacks the {label} speedup the baseline "
                f"gates on"
            )
            continue
        floor = base_speedup * (1.0 - tolerance)
        if new_speedup < floor:
            failures.append(
                f"{label} speedup regressed: {new_speedup:.2f}x "
                f"< {floor:.2f}x (baseline {base_speedup:.2f}x "
                f"- {tolerance:.0%} tolerance)"
            )
    return failures
