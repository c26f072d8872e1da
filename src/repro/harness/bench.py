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
   captured from a pipeline run, then replayed through the backend's
   :func:`prepare_tile`/``fragments`` kernel exactly as
   :meth:`TileJob.run` drives it under a depth-prepass variant
   (z-prepass/oracle): fragments are requested once for the depth-only
   pass and once for shading.  ``fragments_per_second`` counts the
   fragments delivered across both passes.  This is the ``>= 10x``
   headline metric for the numpy backend.

3. **Geometry throughput** — the preset's frames replayed through each
   backend's geometry phase alone (vertex transform, Primitive
   Assembly and the shared Polygon List Builder) on the same
   memory-system implementation: ``primitives_per_second``.

4. **Execute throughput** — the captured tile jobs replayed through
   :meth:`TileJob.run` on each backend, the whole raster execute step
   (rasterization, the Early Depth Test, shading bookkeeping, blending
   and the memory trace; under EVR the numpy backend resolves opaque
   runs in one pass): ``tiles_per_second``.

The emitted ``BENCH_<preset>.json`` also records the numpy/python
ratio of every sweep (``speedup``).  Because a ratio compares two
measurements from the same process on the same machine, it is far more
stable across hardware than absolute numbers — the CI perf-smoke job
gates on the ratios via :func:`check_bench_regression`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..config import GPUConfig
from ..engine.scheduler import SerialScheduler
from ..engine.tile_job import TileContext, TileJob
from ..errors import ConfigError
from ..kernels import available_backends, resolve_backend
from ..kernels.tile_geometry import tile_origin, valid_mask
from ..memsys import MemorySystem, create_memory_system
from ..memsys.ops import (
    EndFrameOp,
    FBLoadOp,
    FlushOp,
    MemOps,
    PBReadOp,
    PBWriteOp,
    TextureOp,
    VertexOp,
    VertexRangeOp,
    replay_memory_trace,
)
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


class _TraceRecorder(MemorySystem):
    """A scalar memory system that also records its op stream.

    Captures the run's complete memory traffic — geometry-side vertex
    and Parameter Buffer writes as well as the replayed raster tile
    traces — as one flat :class:`MemOps` list for the memsys replay
    sweep.  Frame boundaries are recorded (``end_frame`` traffic is part
    of replay cost); stat resets are not, so replaying the trace once
    yields lifetime counters both implementations must agree on.
    """

    def __init__(self, config: GPUConfig):
        super().__init__(config)
        self.ops = MemOps()
        self._in_range = False

    def fetch_vertex(self, vertex_index, vertex_bytes=48):
        # The scalar range loop re-enters here per vertex; the range op
        # already covers those, so don't record them twice.
        if not self._in_range:
            self.ops.append(VertexOp(vertex_index, vertex_bytes))
        super().fetch_vertex(vertex_index, vertex_bytes)

    def fetch_vertex_range(self, start, count, vertex_bytes=48):
        self.ops.append(VertexRangeOp(start, count, vertex_bytes))
        self._in_range = True
        try:
            super().fetch_vertex_range(start, count, vertex_bytes)
        finally:
            self._in_range = False

    def parameter_buffer_write(self, offset, size):
        self.ops.append(PBWriteOp(offset, size))
        super().parameter_buffer_write(offset, size)

    def parameter_buffer_read(self, offset, size):
        self.ops.append(PBReadOp(offset, size))
        super().parameter_buffer_read(offset, size)

    def texture_batch(self, texture_id, texture_size, u, v,
                      samples_per_fragment=1, bilinear=True):
        if u.size and samples_per_fragment > 0 and bilinear:
            self.ops.append(TextureOp(texture_id, texture_size, u, v,
                                      samples_per_fragment))
        super().texture_batch(texture_id, texture_size, u, v,
                              samples_per_fragment, bilinear)

    def framebuffer_flush(self, num_bytes):
        self.ops.append(FlushOp(num_bytes))
        super().framebuffer_flush(num_bytes)

    def framebuffer_load(self, num_bytes):
        self.ops.append(FBLoadOp(num_bytes))
        super().framebuffer_load(num_bytes)

    def end_frame(self):
        self.ops.append(EndFrameOp())
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


def _pipeline_measurement(preset: BenchPreset, backend: str,
                          record_trace: bool = False) -> Dict:
    """One full EVR-mode run: frames/sec, cache ops/sec, phase times.

    With ``record_trace`` the run's memory system is a scalar
    :class:`_TraceRecorder` and the measurement carries the captured op
    stream under ``"_trace"`` (recording is per-op list appends — noise
    next to the scalar model it rides on).
    """
    config = preset.config()
    capture = _CaptureScheduler()
    recorder = _TraceRecorder(config) if record_trace else None
    gpu = GPU(config, "evr", scheduler=capture, backend=backend,
              memory_system=recorder)
    tracer = ChromeTracer()
    start = time.perf_counter()
    with tracing(tracer):
        result = gpu.render_stream(preset.stream())
    elapsed = time.perf_counter() - start
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
        measurement["_trace"] = recorder.ops
    return measurement


def _raster_phase_totals(tracer: ChromeTracer) -> Dict[str, float]:
    """Total milliseconds per raster-engine span (schedule/execute/reduce)."""
    totals: Dict[str, float] = {}
    for event in tracer.spans(category="raster"):
        totals[event["name"]] = (totals.get(event["name"], 0.0)
                                 + event["dur"] / 1e3)
    return totals


def _sweep_once(jobs: Sequence[TileJob], backend: str) -> int:
    """One full kernel sweep: replay every captured display list through
    ``backend``'s ``prepare_tile``/``fragments`` exactly as
    :meth:`TileJob.run` drives it under a depth-prepass variant (each
    entry's fragments requested ``SWEEP_PASSES`` times)."""
    kernels = resolve_backend(backend)
    fragments = 0
    for job in jobs:
        config = job.config
        x0, y0 = tile_origin(job.tile_x, job.tile_y,
                             config.tile_width, config.tile_height)
        valid = valid_mask(job.tile_x, job.tile_y,
                           config.tile_width, config.tile_height,
                           config.screen_width, config.screen_height)
        batch = kernels.prepare_tile(
            job.entries, x0, y0,
            config.tile_width, config.tile_height, valid,
        )
        for _ in range(SWEEP_PASSES):
            for index in range(len(job.entries)):
                frag = batch.fragments(index)
                if frag is not None:
                    fragments += frag.count
    return fragments


def _kernel_sweeps(jobs: Sequence[TileJob], backends: Sequence[str],
                   repeat: int) -> Dict[str, Dict]:
    """Best-of-``repeat`` kernel throughput for every backend.

    The backends are timed *interleaved*, round by round, so each
    round's measurements are adjacent in time and see the same machine
    state (CPU-frequency drift over a minutes-long bench otherwise
    dominates the cross-backend ratio — the number CI gates on).
    """
    fragments = 0
    for backend in backends:           # warm-up (also the fragment count)
        fragments = _sweep_once(jobs, backend)
    best = {backend: float("inf") for backend in backends}
    for _ in range(max(1, repeat)):
        for backend in backends:
            start = time.perf_counter()
            _sweep_once(jobs, backend)
            best[backend] = min(best[backend],
                                time.perf_counter() - start)
    entries = sum(len(job.entries) for job in jobs)
    return {
        backend: {
            "sweep_passes": SWEEP_PASSES,
            "jobs": len(jobs),
            "entries": entries,
            "fragments": fragments,
            "best_seconds": best[backend],
            "fragments_per_second": fragments / best[backend],
        }
        for backend in backends
    }


def _memsys_replay_once(ops: MemOps, config: GPUConfig,
                        backend: str) -> Dict[str, object]:
    """Replay the recorded trace through a fresh ``backend`` memory
    system; returns the elapsed seconds and the final snapshot."""
    memory = create_memory_system(config, backend)
    start = time.perf_counter()
    replay_memory_trace(ops, memory)
    memory.drain()
    elapsed = time.perf_counter() - start
    return {"seconds": elapsed, "snapshot": memory.snapshot(),
            "dram_cycles": memory.dram.cycles()}


def _memsys_sweeps(ops: MemOps, config: GPUConfig,
                   backends: Sequence[str], repeat: int) -> Dict[str, Dict]:
    """Best-of-``repeat`` memory-trace replay throughput per backend.

    The memory-system analogue of :func:`_kernel_sweeps`: the same
    recorded op stream replays through every implementation,
    interleaved round by round for ratio stability.  The warm-up round
    doubles as the bit-identity check — every backend must produce the
    scalar reference's exact counters and DRAM cycle count, so a bench
    can never report a speedup for a model that diverged.
    """
    reference: Optional[Dict[str, object]] = None
    cache_ops = 0
    for backend in backends:           # warm-up + bit-identity check
        outcome = _memsys_replay_once(ops, config, backend)
        if reference is None:
            reference = outcome
            cache_ops = sum(
                counters.get("accesses", 0)
                for counters in outcome["snapshot"].values()
            )
        elif (outcome["snapshot"] != reference["snapshot"]
                or outcome["dram_cycles"] != reference["dram_cycles"]):
            raise AssertionError(
                f"memsys backend {backend!r} diverged from "
                f"{backends[0]!r} on the replayed trace"
            )
    best = {backend: float("inf") for backend in backends}
    for _ in range(max(1, repeat)):
        for backend in backends:
            best[backend] = min(
                best[backend],
                _memsys_replay_once(ops, config, backend)["seconds"],
            )
    return {
        backend: {
            "trace_ops": len(ops),
            "cache_ops": cache_ops,
            "best_seconds": best[backend],
            "cache_ops_per_second": cache_ops / best[backend],
        }
        for backend in backends
    }


def _geometry_once(frames: Sequence, config: GPUConfig,
                   backend: str) -> Dict[str, object]:
    """Replay ``frames`` through a fresh EVR GPU's geometry phase on
    ``backend``, resetting the per-frame structures exactly as
    :meth:`GPU.render_frame` does (no raster phase runs, so every FVP
    lookup finds an empty table).  The memory system is the batched one
    on every backend: geometry traffic is queued, never simulated, so
    the timing is the geometry phase's own.  Returns the elapsed
    seconds, the counters and every frame's display lists."""
    gpu = GPU(config, "evr", backend=backend,
              memory_system=create_memory_system(config, "numpy"))
    snapshots = []
    primitives = 0
    elapsed = 0.0
    for frame in frames:
        stats = FrameStats()
        start = time.perf_counter()
        gpu.parameter_buffer.reset()
        gpu.lgt.reset()
        gpu.geometry.process_frame(frame, stats)
        gpu.re.end_frame()
        elapsed += time.perf_counter() - start
        primitives += stats.primitives_in
        snapshots.append((stats, [(list(display_list.first),
                                   list(display_list.second))
                                  for _, display_list
                                  in gpu.parameter_buffer.tiles()]))
    return {"seconds": elapsed, "primitives": primitives,
            "snapshots": snapshots}


def _geometry_sweeps(frames: Sequence, config: GPUConfig,
                     backends: Sequence[str],
                     repeat: int) -> Dict[str, Dict]:
    """Best-of-``repeat`` geometry throughput for every backend,
    interleaved round by round like the other sweeps.  The warm-up
    round is the bit-identity check: every backend must build the first
    backend's exact display lists and ``FrameStats``."""
    reference: Optional[Dict[str, object]] = None
    for backend in backends:           # warm-up + bit-identity check
        outcome = _geometry_once(frames, config, backend)
        if reference is None:
            reference = outcome
        elif outcome["snapshots"] != reference["snapshots"]:
            raise AssertionError(
                f"geometry on backend {backend!r} diverged from "
                f"{backends[0]!r} on the preset's frames"
            )
    primitives = reference["primitives"]
    reference = None                   # release the snapshots
    best = {backend: float("inf") for backend in backends}
    for _ in range(max(1, repeat)):
        for backend in backends:
            best[backend] = min(
                best[backend],
                _geometry_once(frames, config, backend)["seconds"],
            )
    return {
        backend: {
            "frames": len(frames),
            "primitives": primitives,
            "best_seconds": best[backend],
            "primitives_per_second": primitives / best[backend],
        }
        for backend in backends
    }


def _execute_once(jobs: Sequence[TileJob], context: TileContext) -> float:
    """Seconds to run every job through :meth:`TileJob.run` on one
    reused context, as a worker does."""
    start = time.perf_counter()
    for job in jobs:
        job.run(context)
    return time.perf_counter() - start


def _execute_sweeps(jobs: Sequence[TileJob], backends: Sequence[str],
                    repeat: int) -> Dict[str, Dict]:
    """Best-of-``repeat`` tile-job throughput for every backend,
    interleaved round by round like the other sweeps.  The warm-up
    round is the bit-identity check: every backend must return the
    first backend's exact :class:`TileResult` for every job."""
    per_backend = {
        backend: [dataclasses.replace(job, backend=backend) for job in jobs]
        for backend in backends
    }
    context = TileContext.for_config(jobs[0].config) if jobs else None
    reference = None
    for backend in backends:           # warm-up + bit-identity check
        outcome = [job.run(context).fingerprint()
                   for job in per_backend[backend]]
        if reference is None:
            reference = outcome
        elif outcome != reference:
            raise AssertionError(
                f"tile jobs on backend {backend!r} diverged from "
                f"{backends[0]!r} on the captured jobs"
            )
    reference = None                   # release the fingerprints
    best = {backend: float("inf") for backend in backends}
    for _ in range(max(1, repeat)):
        for backend in backends:
            best[backend] = min(best[backend],
                                _execute_once(per_backend[backend], context))
    return {
        backend: {
            "jobs": len(jobs),
            "best_seconds": best[backend],
            "tiles_per_second": len(jobs) / best[backend],
        }
        for backend in backends
    }


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
    trace: Optional[MemOps] = None
    for backend in chosen:
        # The scalar run doubles as the trace recorder: traffic is
        # backend-independent (bit-identical contract), so one captured
        # stream feeds every memsys sweep.
        record_trace = backend == "python"
        measurement = _pipeline_measurement(preset, backend,
                                            record_trace=record_trace)
        captured = measurement.pop("_jobs")
        if jobs is None:
            # Display lists are backend-independent (bit-identical
            # contract); capture once and reuse for every sweep.
            jobs = captured
        if record_trace:
            trace = measurement.pop("_trace")
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
    sweeps = _geometry_sweeps(list(preset.stream()), preset.config(),
                              chosen, repeat)
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
    gated = [("fragments_per_second", "kernel fragments/sec")]
    if base.get("cache_ops_per_second") is not None:
        gated.append(("cache_ops_per_second", "memsys replay ops/sec"))
    if base.get("primitives_per_second") is not None:
        gated.append(("primitives_per_second", "geometry primitives/sec"))
    if base.get("tiles_per_second") is not None:
        gated.append(("tiles_per_second", "execute tiles/sec"))
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
