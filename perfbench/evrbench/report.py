"""Turn measured runs into the benchmark's named metrics."""

from __future__ import annotations

import pickle
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.pipeline import RunResult
from repro.techniques import resolve_technique

from .layers import LayerClock, add_counters
from .sweep import sweep_spec

L1_UNITS = ("vertex", "tile", "texture0", "texture1", "texture2", "texture3")
TAIL_BEYOND = 10


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that has at least
    ten samples beyond it (the maximum when there are too few)."""
    ordered = sorted(samples)
    count = len(ordered)
    index = max(0, count - 1 - TAIL_BEYOND)
    return ordered[index], 100.0 * (index + 1) / count


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- end to end ---------------------------------------------------------------

def stream_end_to_end(workload, run, reference) -> Dict[str, float]:
    """End-to-end metrics of a stream run (setup and memory come later)."""
    sim = run.sim
    counterpart = reference["counterpart"]
    evr, base = ((sim, counterpart) if workload.technique == "evr"
                 else (counterpart, sim))
    frame_s = run.reference_frame_s()
    frames_per_s = run.frames / sum(frame_s)
    return {
        "frames_per_s": frames_per_s,
        "frame_ms_p50": statistics.median(frame_s) * 1e3,
        "frame_ms_tail": tail(frame_s)[0] * 1e3,
        "cells_per_s": frames_per_s / workload.frames,
        "sim_mcycles_per_frame": sim["cycles"] / sim["frames"] / 1e6,
        "sim_energy_mj_per_frame": sim["energy_j"] / sim["frames"] * 1e3,
        "shaded_frags_per_px": sim["shaded_frags_per_px"],
        "redundant_tile_rate": sim["redundant_tile_rate"],
        "sim_energy_ratio": _ratio(evr["energy_j"], base["energy_j"]),
        "sim_time_ratio": _ratio(evr["cycles"], base["cycles"]),
    }


def sweep_end_to_end(workload, run) -> Dict[str, float]:
    """End-to-end metrics of a sweep run (setup and memory come later)."""
    cells = list(run.metrics.values())
    warmup = RunResult.DEFAULT_WARMUP
    steady = (workload.frames - warmup if workload.frames > warmup
              else workload.frames)
    by_app: Dict[str, Dict[str, object]] = {}
    for metrics in cells:
        by_app.setdefault(metrics.benchmark, {})[metrics.mode] = metrics
    energy = [modes["evr"].energy_joules / modes["baseline"].energy_joules
              for modes in by_app.values()]
    cycles = [modes["evr"].total_cycles / modes["baseline"].total_cycles
              for modes in by_app.values()]
    skipping = [metrics.redundant_tile_rate for metrics in cells
                if metrics.mode != "baseline"]
    cold_s = sum(run.cold_s)
    return {
        "frames_per_s": run.cold_cells * workload.frames / cold_s,
        "frame_ms_p50": statistics.median(
            value for one in run.job_s for value in one) * 1e3,
        # Per sweep, so the percentile does not depend on how many
        # sweeps fit in the run.
        "frame_ms_tail": statistics.median(
            tail(one)[0] for one in run.job_s) * 1e3,
        "cells_per_s": run.cold_cells / cold_s,
        "sim_mcycles_per_frame": statistics.fmean(
            metrics.total_cycles for metrics in cells) / steady / 1e6,
        "sim_energy_mj_per_frame": statistics.fmean(
            metrics.energy_joules for metrics in cells) / steady * 1e3,
        "shaded_frags_per_px": statistics.fmean(
            metrics.shaded_fragments_per_pixel for metrics in cells),
        "redundant_tile_rate": statistics.fmean(skipping),
        "sim_energy_ratio": statistics.fmean(energy),
        "sim_time_ratio": statistics.fmean(cycles),
    }


# -- per layer ----------------------------------------------------------------

def _layer_metrics(clock, counters: Dict[str, float], frames: int,
                   wall_s: float, scale: float) -> Dict[str, float]:
    """Per-frame layer metrics from a clock and summed run counters, with
    host times multiplied by ``scale`` (to reference machine speed)."""
    self_s = {key: value * scale for key, value in clock.self_s.items()}
    incl_s = {key: value * scale for key, value in clock.incl_s.items()}
    wall_s *= scale

    def ms(*keys: str) -> float:
        return sum(self_s.get(key, 0.0) for key in keys) * 1e3 / frames

    def count(name: str) -> float:
        return counters.get(name, 0) / frames

    kernel_s = sum(self_s.get(key, 0.0) for key in
                   ("kernels.prepare", "kernels.fragments", "kernels.ops"))
    memsys_s = self_s.get("memsys.geometry", 0.0) + self_s.get(
        "memsys.raster", 0.0)
    job_s = self_s.get("execute", 0.0) + self_s.get("tile_job", 0.0)
    cache_ops = sum(value for name, value in counters.items()
                    if name.startswith("mem.") and name.endswith(".accesses")
                    and not name.startswith("mem.dram."))

    def mem(units: Sequence[str], field: str) -> float:
        return sum(counters.get(f"mem.{unit}.{field}", 0) for unit in units)

    # A sweep cell's own span (GPU and stream construction, the frame
    # loop) is what the named layers leave unattributed.
    layers_ms = sum(value for key, value in self_s.items()
                    if key != "cell") * 1e3 / frames
    wall_ms = wall_s * 1e3 / frames
    return {
        "frame.wall_ms": wall_ms,
        "layers.sum_ms": layers_ms,
        "unattributed_ms": wall_ms - layers_ms,
        "scenes.gen_ms": ms("scenes"),
        "scenes.tris": count("primitives_in"),
        "gpu.frame_ms": ms("frame"),
        "geometry.ms": incl_s.get("geometry", 0.0) * 1e3 / frames,
        "geometry.self_ms": ms("geometry", "command"),
        "geometry.us_per_prim": _ratio(incl_s.get("geometry", 0.0) * 1e6,
                                       counters.get("primitives_in", 0)),
        "geometry.prims_in": count("primitives_in"),
        "geometry.cull_rate": _ratio(counters.get("primitives_culled", 0),
                                     counters.get("primitives_in", 0)),
        "geometry.prim_tile_pairs": count("primitive_tile_pairs"),
        "evr.predict_ms": ms("evr.predict"),
        "evr.record_ms": ms("evr.record"),
        "re.signature_ms": ms("re"),
        "hw.pb_ms": ms("hw"),
        "evr.predicted_occluded_rate": _ratio(
            counters.get("predicted_occluded", 0),
            counters.get("predictions_made", 0)),
        "evr.mispredict_rate": _ratio(
            counters.get("mispredicted_visible", 0),
            counters.get("mispredicted_visible", 0)
            + counters.get("predicted_occluded_correct", 0)),
        "re.poisons": count("signature_poisons"),
        "raster.schedule_ms": ms("schedule"),
        "raster.finalize_ms": ms("raster", "reduce", "reduce-replay",
                                 "reduce-finalize"),
        "raster.jobs": count("tiles_rendered"),
        "execute.ms": incl_s.get("execute", 0.0) * 1e3 / frames,
        "tile_job.self_ms": job_s * 1e3 / frames,
        "tile_job.us_per_job": _ratio(job_s * 1e6,
                                      counters.get("tiles_rendered", 0)),
        "kernels.prepare_ms": ms("kernels.prepare"),
        "kernels.fragments_ms": ms("kernels.fragments"),
        "kernels.ops_ms": ms("kernels.ops"),
        "kernels.frags_per_s": _ratio(counters.get("fragments_generated", 0),
                                      kernel_s),
        "kernels.frags_generated": count("fragments_generated"),
        "kernels.frags_shaded": count("fragments_shaded"),
        "kernels.overshade_rate": _ratio(
            counters.get("overdrawn_fragments", 0),
            counters.get("fragments_shaded", 0)),
        "memsys.replay_ms": ms("memsys.raster"),
        "memsys.geometry_ms": ms("memsys.geometry"),
        "memsys.cache_ops": cache_ops / frames,
        "memsys.ops_per_s": _ratio(cache_ops, memsys_s),
        "memsys.l1_hit_rate": _ratio(mem(L1_UNITS, "hits"),
                                     mem(L1_UNITS, "accesses")),
        "memsys.l2_hit_rate": _ratio(mem(("l2",), "hits"),
                                     mem(("l2",), "accesses")),
        "memsys.dram_mb": (mem(("dram",), "read_bytes")
                           + mem(("dram",), "write_bytes")) / 1e6 / frames,
    }


_POOL_LAYERS = ("pool.spawn_s", "pool.busy_frac", "pool.queue_wait_ms",
                "pool.payload_kb", "pool.result_kb", "runner.cell_s",
                "runner.distill_ms", "diskcache.put_ms", "diskcache.hit_ms",
                "diskcache.hits")


def _mean_pickled_kb(values: Iterable[object]) -> float:
    sizes = [len(pickle.dumps(value)) for value in values]
    return _ratio(sum(sizes) / 1024, len(sizes))


def stream_layers(run, probe, untraced_rate: float) -> Dict[str, float]:
    """Per-layer metrics of a traced stream run; ``untraced_rate`` is the
    untraced frames per second at reference speed."""
    frame_s = run.reference_frame_s()
    scale = sum(frame_s) / sum(run.frame_s)
    layers = _layer_metrics(probe.clock, run.counters, run.frames,
                            sum(run.frame_s), scale)
    layers["obs.trace_overhead"] = untraced_rate * sum(frame_s) / (
        run.frames) - 1.0
    layers["tile_job.result_kb"] = _mean_pickled_kb(probe.results)
    layers.update({name: 0.0 for name in _POOL_LAYERS})
    return layers


def sweep_layers(workload, seed: int, run, probe, untraced_rate: float,
                 cold_get_s: float) -> Dict[str, float]:
    """Per-layer metrics of a traced sweep round.  ``cold_get_s`` is the
    cache-lookup time the cold pass spent (all misses)."""
    workers = LayerClock()
    counters: Dict[str, float] = {}
    result_bytes: List[int] = []
    for record in probe.worker_snapshots():
        workers.merge(record)
        add_counters(counters, record["counters"])
        result_bytes.extend(record["result_bytes"])
    frames = counters.get("frames", 0) or 1
    cell_s = workers.incl_s.get("cell", 0.0)
    scale = run.scales[0]
    layers = _layer_metrics(workers, counters, frames, cell_s, scale)
    layers["obs.trace_overhead"] = untraced_rate / (
        run.cold_cells / sum(run.cold_s)) - 1.0
    layers["tile_job.result_kb"] = _ratio(sum(result_bytes) / 1024,
                                          len(result_bytes))
    profiler = run.profilers[0]
    timings = profiler.timings
    batch = profiler.batches[0]
    busy = sum(timing.duration for timing in timings)
    parent = probe.clock
    cells = len(timings) or 1
    layers.update({
        "pool.spawn_s": (min(timing.start for timing in timings)
                         - batch.submit) * scale,
        "pool.busy_frac": busy / (workload.jobs * batch.wall),
        "pool.queue_wait_ms": statistics.fmean(
            timing.queue_wait for timing in timings) * 1e3 * scale,
        "pool.payload_kb": _mean_pickled_kb(
            (app, resolve_technique(mode), sweep_spec(workload))
            for app, mode in workload.cells(seed)),
        "pool.result_kb": _mean_pickled_kb(run.metrics.values()),
        "runner.cell_s": busy / cells * scale,
        "runner.distill_ms": workers.self_s.get("distill", 0.0) * 1e3
        / cells * scale,
        "diskcache.put_ms": parent.incl_s.get("diskcache.put", 0.0) * 1e3
        / cells * scale,
        "diskcache.hit_ms": _ratio(
            (parent.incl_s.get("diskcache.get", 0.0) - cold_get_s) * 1e3,
            sum(run.warm_hits)) * scale,
        "diskcache.hits": float(sum(run.warm_hits)),
    })
    return layers
