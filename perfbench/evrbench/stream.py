"""Stream workloads: render one seeded stream pass after pass, timing frames.

A pass renders the whole stream on a fresh :class:`repro.pipeline.GPU`
through :meth:`GPU.render_stream`, so every pass repeats the same outputs
and each frame is checked against the reference frame of its index.  A
frame's time runs from the moment ``render_stream`` asks the stream for
it (so it includes building the frame's draw commands) to the moment it
asks for the next one; the calibration kernel (``calibrate``) runs,
untimed, between the two.  Passes repeat until the time budget is spent;
the first pass always completes, because the simulated metrics come from
it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List

import numpy as np

from repro.engine.scheduler import SerialScheduler
from repro.pipeline import GPU, RunResult

from . import calibrate
from .layers import add_counters, run_counters
from .oracle import frame_digest, steady_totals


@dataclass
class StreamRun:
    """What one measured window of a stream workload produced."""

    frame_s: List[float] = field(default_factory=list)
    kernel_s: List[float] = field(default_factory=list)
    digests: List[List[str]] = field(default_factory=list)
    #: Frames of passes that raised, each counted as a failed operation.
    raised: int = 0
    sim: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def frames(self) -> int:
        return len(self.frame_s)

    def reference_frame_s(self) -> List[float]:
        """Frame times at reference machine speed (see ``calibrate``)."""
        return [raw * calibrate.REFERENCE_SECONDS / kernel
                for raw, kernel in zip(self.frame_s, self.kernel_s)]


def _timed(stream, run: "StreamRun", stop: Callable[[], bool]) -> Iterator:
    """Yield the stream's frames, timing each from the request for it to
    the request for the next one, and calibrating after each frame."""
    frames = iter(stream)
    start = None
    while True:
        if start is not None:
            run.frame_s.append(time.perf_counter() - start)
            run.kernel_s.append(calibrate.kernel_seconds())
        if stop():
            return
        start = time.perf_counter()
        try:
            frame = next(frames)
        except StopIteration:
            return
        yield frame


def equal_tile_rate(result: RunResult) -> float:
    """Share of steady-state tiles whose pixels equal the previous frame's
    (Figure 9's redundancy as the oracle comparator measures it)."""
    config = result.config
    frames = result.frames
    warmup = result.DEFAULT_WARMUP
    equal = total = 0
    for previous, current in zip(frames[warmup - 1:], frames[warmup:]):
        for y in range(0, config.screen_height, config.tile_height):
            for x in range(0, config.screen_width, config.tile_width):
                window = (slice(y, y + config.tile_height),
                          slice(x, x + config.tile_width))
                total += 1
                equal += bool(np.array_equal(previous.image[window],
                                             current.image[window]))
    return equal / total if total else 0.0


def _simulated(result: RunResult) -> Dict[str, float]:
    """The simulated outcome of one full pass."""
    sim = steady_totals(result)
    sim["shaded_frags_per_px"] = result.shaded_fragments_per_pixel()
    sim["redundant_tile_rate"] = (
        result.redundant_tile_rate() if result.features.rendering_elimination
        else equal_tile_rate(result))
    return sim


def run_stream(workload, seed: int, seconds: float) -> StreamRun:
    """Render passes of ``workload`` at ``seed`` for about ``seconds``."""
    config = workload.config()
    run = StreamRun()
    deadline = time.perf_counter() + seconds
    while not run.digests or time.perf_counter() < deadline:
        first = not run.digests
        stop = (lambda: False) if first else (
            lambda: time.perf_counter() >= deadline)
        gpu = GPU(config, workload.technique, scheduler=SerialScheduler())
        done = run.frames
        try:
            result = gpu.render_stream(
                _timed(workload.stream(seed), run, stop))
        except Exception:  # noqa: BLE001 - a raising frame is a failed op
            # The pass's frames cannot be checked: all of them failed.
            run.raised += run.frames - done + 1
            del run.frame_s[done:], run.kernel_s[done:]
            run.digests.append([])
            if first:
                break
            continue
        run.digests.append([frame_digest(frame) for frame in result.frames])
        add_counters(run.counters, run_counters(result))
        if first:
            run.sim = _simulated(result)
    return run
