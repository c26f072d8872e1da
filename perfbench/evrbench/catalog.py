"""Every metric the benchmark reports: name, unit, direction and kind.

``sim`` metrics are simulated and deterministic: for one seed they repeat
exactly, and no host-only change may move them.  ``host`` metrics are
measured on the machine running the benchmark and, for times, brought
to reference machine speed (see ``calibrate``).  Every workload reports
every metric; where a quantity has no natural meaning for a workload the
description says how it is defined there.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    kind: str
    description: str
    bound: float = 0.0


END_TO_END: Tuple[Metric, ...] = (
    Metric("frames_per_s", "1/s", "higher", "host",
           "frames per second at reference machine speed, untraced "
           "(sweep: frames simulated by the cold sweeps)", 0.25),
    Metric("frame_ms_p50", "ms", "lower", "host",
           "median time per frame at reference speed (sweep: a cell's "
           "time over its frames)", 0.25),
    Metric("frame_ms_tail", "ms", "lower", "host",
           "highest percentile with at least ten samples beyond it, at "
           "reference speed (sweep: per sweep, median over sweeps); the "
           "percentile and sample count are printed", 0.25),
    Metric("cells_per_s", "1/s", "higher", "host",
           "(scene, technique) runs per second: cold sweep cells, or "
           "stream passes", 0.25),
    Metric("setup_s", "s", "lower", "host",
           "process start to first frame or first cell, including imports, "
           "scene and GPU construction and pool spawn; median of several "
           "fresh processes, at reference speed", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "host",
           "peak resident memory of the benchmark process plus the "
           "largest pool worker", 0.10),
    Metric("sim_mcycles_per_frame", "Mcycles", "lower", "sim",
           "simulated GPU cycles per steady-state frame", 0.02),
    Metric("sim_energy_mj_per_frame", "mJ", "lower", "sim",
           "simulated GPU plus memory energy per steady-state frame", 0.02),
    Metric("shaded_frags_per_px", "frags/px", "lower", "sim",
           "Fig. 8: shaded fragments per screen pixel", 0.02),
    Metric("redundant_tile_rate", "ratio", "higher", "sim",
           "Fig. 9: share of tiles RE skips, or under a technique that "
           "skips nothing the share equal to the previous frame", 0.02),
    Metric("sim_energy_ratio", "ratio", "lower", "sim",
           "EVR/baseline energy, mean over apps; a stream has one "
           "(paper: 0.57)", 0.02),
    Metric("sim_time_ratio", "ratio", "lower", "sim",
           "EVR/baseline cycles, mean over apps; a stream has one "
           "(paper: 0.61)", 0.02),
)


_HOST_UNITS = ("ms", "us", "s", "1/s", "KiB")


def _layer(name: str, unit: str, better: str, description: str,
           kind: str = "") -> Metric:
    """A per-layer metric; times and rates are host, counts and ratios of
    simulated counters are sim unless ``kind`` says otherwise."""
    return Metric(name, unit, better,
                  kind or ("host" if unit in _HOST_UNITS else "sim"),
                  description)


PER_LAYER: Tuple[Metric, ...] = (
    _layer("frame.wall_ms", "ms", "lower", "traced frame wall time"),
    _layer("layers.sum_ms", "ms", "lower", "sum of all layer self times"),
    _layer("unattributed_ms", "ms", "lower",
           "frame wall minus the sum of layer self times"),
    _layer("obs.trace_overhead", "ratio", "lower",
           "untraced over traced throughput, minus one", "host"),
    _layer("scenes.gen_ms", "ms", "lower", "building frames (FrameStream)"),
    _layer("scenes.tris", "count", "lower", "triangles per frame"),
    _layer("gpu.frame_ms", "ms", "lower",
           "GPU frame loop outside both pipelines"),
    _layer("geometry.ms", "ms", "lower", "geometry phase, inclusive"),
    _layer("geometry.self_ms", "ms", "lower",
           "geometry minus its calls into core, hw and memsys"),
    _layer("geometry.us_per_prim", "us", "lower",
           "geometry phase per input triangle"),
    _layer("geometry.prims_in", "count", "lower", "triangles per frame"),
    _layer("geometry.cull_rate", "ratio", "higher",
           "culled over input triangles"),
    _layer("geometry.prim_tile_pairs", "count", "lower",
           "binned (triangle, tile) pairs per frame"),
    _layer("evr.predict_ms", "ms", "lower", "FVP prediction"),
    _layer("evr.record_ms", "ms", "lower", "end-of-tile FVP recording"),
    _layer("re.signature_ms", "ms", "lower",
           "RE signatures: CRC, updates, skip checks, poisons"),
    _layer("hw.pb_ms", "ms", "lower",
           "Parameter Buffer and Layer Generator Table"),
    _layer("evr.predicted_occluded_rate", "ratio", "higher",
           "pairs predicted occluded over predictions"),
    _layer("evr.mispredict_rate", "ratio", "lower",
           "occluded predictions found visible"),
    _layer("re.poisons", "count", "lower", "signature poisons per frame"),
    _layer("raster.schedule_ms", "ms", "lower", "tile scheduling"),
    _layer("raster.finalize_ms", "ms", "lower",
           "reduction outside memsys and FVP recording"),
    _layer("raster.jobs", "count", "lower", "tile jobs per frame"),
    _layer("execute.ms", "ms", "lower", "raster execute, inclusive"),
    _layer("tile_job.self_ms", "ms", "lower", "execute minus kernels"),
    _layer("tile_job.us_per_job", "us", "lower",
           "execute minus kernels, per tile job"),
    _layer("tile_job.result_kb", "KiB", "lower",
           "pickled tile result size"),
    _layer("kernels.prepare_ms", "ms", "lower", "prepare_tile"),
    _layer("kernels.fragments_ms", "ms", "lower", "batch.fragments"),
    _layer("kernels.ops_ms", "ms", "lower", "per-fragment array ops"),
    _layer("kernels.frags_per_s", "1/s", "higher",
           "fragments generated per kernel second"),
    _layer("kernels.frags_generated", "count", "lower",
           "fragments generated per frame"),
    _layer("kernels.frags_shaded", "count", "lower",
           "fragments shaded per frame"),
    _layer("kernels.overshade_rate", "ratio", "lower",
           "overdrawn over shaded fragments (ineffectual work)"),
    _layer("memsys.replay_ms", "ms", "lower", "raster-phase memsys"),
    _layer("memsys.geometry_ms", "ms", "lower", "geometry-phase memsys"),
    _layer("memsys.cache_ops", "count", "lower",
           "simulated cache accesses per frame"),
    _layer("memsys.ops_per_s", "1/s", "higher",
           "cache accesses per memsys second"),
    _layer("memsys.l1_hit_rate", "ratio", "higher",
           "first-level cache hit rate"),
    _layer("memsys.l2_hit_rate", "ratio", "higher", "L2 hit rate"),
    _layer("memsys.dram_mb", "MB", "lower", "DRAM traffic per frame"),
    _layer("pool.spawn_s", "s", "lower",
           "first cell's start after submission"),
    _layer("pool.busy_frac", "ratio", "higher",
           "worker busy time over workers x fan-out wall", "host"),
    _layer("pool.queue_wait_ms", "ms", "lower",
           "mean submission-to-start wait per cell"),
    _layer("pool.payload_kb", "KiB", "lower", "pickled cell payload"),
    _layer("pool.result_kb", "KiB", "lower", "pickled cell result"),
    _layer("runner.cell_s", "s", "lower", "worker time per cell"),
    _layer("runner.distill_ms", "ms", "lower",
           "metrics distillation per cell"),
    _layer("diskcache.put_ms", "ms", "lower", "run-cache store per cell"),
    _layer("diskcache.hit_ms", "ms", "lower", "run-cache hit per cell"),
    _layer("diskcache.hits", "count", "higher",
           "warm-pass cache hits per sweep"),
)


def benchmark_json(workloads) -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": workload.name, "why": workload.why}
                      for workload in workloads],
        "end_to_end": [{"name": metric.name, "unit": metric.unit,
                        "better": metric.better, "bound": metric.bound}
                       for metric in END_TO_END],
        "per_layer": [{"name": metric.name, "unit": metric.unit,
                       "better": metric.better} for metric in PER_LAYER],
    }


def manifest_json(workloads, machine: dict, reference_seeds: dict) -> dict:
    """The content of ``perfbench/manifest.json``: what ``BENCHMARK.json``
    has no room for (metric kinds, workload details, the machine)."""
    described = {}
    for workload in workloads:
        entry = {"why": workload.why, "kind": workload.kind,
                 "loop": workload.loop,
                 "seed": workload.seed_role,
                 "committed_reference_seeds": reference_seeds[workload.name],
                 "size": f"{workload.width}x{workload.height}, "
                         f"{workload.frames} frames"}
        if workload.kind == "stream":
            entry["technique"] = workload.technique
            entry["compared_with"] = workload.counterpart
        else:
            entry["technique"] = ", ".join(workload.modes)
            entry["sample"] = (f"{workload.apps_3d} 3D + {workload.apps_2d} "
                               f"2D Table III apps, {workload.jobs} workers")
        described[workload.name] = entry
    return {
        "machine": machine,
        "workloads": described,
        "end_to_end": {metric.name: {"unit": metric.unit,
                                     "better": metric.better,
                                     "kind": metric.kind,
                                     "description": metric.description}
                       for metric in END_TO_END},
        "per_layer": {metric.name: {"unit": metric.unit,
                                    "better": metric.better,
                                    "kind": metric.kind,
                                    "description": metric.description}
                      for metric in PER_LAYER},
    }
