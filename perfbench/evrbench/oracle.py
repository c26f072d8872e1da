"""Output digests and the scalar-backend reference they are checked against.

Every operation's output is reduced to a sha256 digest.  A frame's digest
covers its image, its ``FrameStats`` and both phases' memory
``Instrumentation`` (unit counters and DRAM cycles); a sweep cell's digest
covers its ``RunMetrics``.  The reference digests come from the scalar
``python`` backend, the repository's oracle, and are stored as JSON under
``perfbench/reference/``.  A seed without a committed reference has one
computed on first use and kept in the run's work directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Dict, List

import numpy as np

from repro.engine.scheduler import SerialScheduler
from repro.harness.runner import run_benchmark
from repro.pipeline import GPU
from repro.resilience import corrupt_pixel
from repro.spec import RunSpec, SchedulerSpec

ORACLE_BACKEND = "python"

REFERENCE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "reference")


def _hash_json(hasher, value) -> None:
    hasher.update(json.dumps(value, sort_keys=True).encode())


def frame_digest(frame) -> str:
    """Digest of one :class:`repro.pipeline.FrameResult`."""
    hasher = hashlib.sha256()
    image = np.ascontiguousarray(frame.image)
    hasher.update(repr((image.shape, image.dtype.str)).encode())
    hasher.update(image.tobytes())
    _hash_json(hasher, frame.stats.as_dict())
    for record in (frame.geometry, frame.raster):
        _hash_json(hasher, record.units)
        hasher.update(repr(record.dram_cycles).encode())
    return hasher.hexdigest()


def cell_digest(metrics) -> str:
    """Digest of one :class:`repro.harness.runner.RunMetrics`."""
    hasher = hashlib.sha256()
    _hash_json(hasher, dataclasses.asdict(metrics))
    return hasher.hexdigest()


def steady_totals(result) -> Dict[str, float]:
    """The simulated totals a run is compared by (steady-state frames)."""
    frames = len(result.frames)
    warmup = result.DEFAULT_WARMUP
    steady = frames - warmup if frames > warmup else frames
    return {"frames": steady,
            "cycles": result.total_cycles().total,
            "energy_j": result.total_energy().total}


def _reference_path(workload, seed: int, directory: str) -> str:
    """Where the reference lives.  The sweep's cells do not depend on the
    seed (it only orders them), so one reference serves every seed."""
    size = f"{workload.width}x{workload.height}x{workload.frames}"
    if workload.kind == "sweep":
        name = f"{size}-{workload.apps_3d}+{workload.apps_2d}apps.json"
    else:
        name = f"{size}-seed{seed}.json"
    return os.path.join(directory, workload.name, name)


def compute_reference(workload, seed: int) -> Dict:
    """Run ``workload`` at ``seed`` on the oracle backend."""
    if workload.kind == "sweep":
        spec = RunSpec.from_config(workload.config(),
                                   scheduler=SchedulerSpec(
                                       backend=ORACLE_BACKEND))
        cells = {}
        for app, mode in workload.cells(seed):
            metrics = run_benchmark(app, mode, spec=spec)
            cells[f"{app}:{mode}"] = cell_digest(metrics)
        return {"workload": workload.name, "backend": ORACLE_BACKEND,
                "cells": cells}
    config = workload.config()
    result = GPU(config, workload.technique, scheduler=SerialScheduler(),
                 backend=ORACLE_BACKEND).render_stream(workload.stream(seed))
    counterpart = GPU(config, workload.counterpart,
                      scheduler=SerialScheduler()).render_stream(
                          workload.stream(seed))
    return {
        "workload": workload.name, "seed": seed, "backend": ORACLE_BACKEND,
        "technique": workload.technique,
        "digests": [frame_digest(frame) for frame in result.frames],
        "totals": steady_totals(result),
        "counterpart": dict(technique=workload.counterpart,
                            **steady_totals(counterpart)),
    }


def store_reference(workload, seed: int, directory: str) -> Dict:
    """Compute the reference for ``(workload, seed)`` into ``directory``."""
    reference = compute_reference(workload, seed)
    path = _reference_path(workload, seed, directory)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp_path = f"{path}.{os.getpid()}.tmp"
    with open(tmp_path, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp_path, path)
    return reference


def load_reference(workload, seed: int, cache_dir: str) -> Dict:
    """The reference for ``(workload, seed)``: the committed one if there
    is one, else one computed earlier into ``cache_dir``, else a fresh one
    computed now and kept in ``cache_dir``."""
    for directory in (REFERENCE_DIR, cache_dir):
        try:
            with open(_reference_path(workload, seed, directory)) as handle:
                return json.load(handle)
        except FileNotFoundError:
            continue
    return store_reference(workload, seed, cache_dir)


def count_failures(digests: List[List[str]], expected: List[str]) -> int:
    """How many operations of the given passes differ from ``expected``
    (``digests[p][i]`` is frame ``i`` of pass ``p``)."""
    return sum(digest != expected[index]
               for one_pass in digests
               for index, digest in enumerate(one_pass))


def corrupt_pixel_self_test(workload, seed: int, cache_dir: str,
                            frame_index: int = 1) -> List[int]:
    """Check that the digest check catches a one-pixel error.

    Renders one pass, damages frame ``frame_index`` with
    :func:`repro.resilience.corrupt_pixel` and returns the indices of the
    frames that then fail the reference check; a sound check returns
    exactly ``[frame_index]``.
    """
    reference = load_reference(workload, seed, cache_dir)
    result = GPU(workload.config(), workload.technique,
                 scheduler=SerialScheduler()).render_stream(
                     workload.stream(seed))
    damaged = result.frames[frame_index]
    damaged.image = corrupt_pixel(damaged.image,
                                  f"{workload.name}:{seed}:{frame_index}")
    digests = [frame_digest(frame) for frame in result.frames]
    return [index for index, digest in enumerate(digests)
            if digest != reference["digests"][index]]
