"""Live terminal progress: an event-bus subscriber that renders runs
as they execute.

:class:`LiveRenderer` subscribes to the structured event bus
(:mod:`repro.obs.events`) and keeps one status line per in-flight
simulation updated in place — benchmark:mode, frame progress, and
throughput (fragments/s and cache-ops/s derived from the phase events'
own measured seconds, so the numbers describe simulation work, not
renderer overhead).  When stderr is not a TTY (CI logs, pipes) it
degrades to plain one-line-per-run output, so ``--live`` is always safe
to leave on.

Like every subscriber it is one-way: it never touches simulation state,
and the bus disconnects it if it ever raises.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, IO, Optional, Tuple

from .events import (
    Event,
    FaultInjected,
    MetricSample,
    PhaseCompleted,
    RunFinished,
    RunStarted,
    TileJobFinished,
)


def _rate(amount: float, seconds: float) -> str:
    if seconds <= 0:
        return "-"
    return f"{amount / seconds:,.0f}"


@dataclass
class _RunProgress:
    """Accumulated state for one in-flight (benchmark, mode) run."""

    benchmark: str
    mode: str
    frames: int = 0
    frames_done: int = 0
    phase: str = ""
    seconds: float = 0.0
    fragments: int = 0
    cache_ops: int = 0
    tiles: int = 0
    phase_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.benchmark, self.mode)

    def status(self) -> str:
        parts = [f"{self.benchmark}:{self.mode}"]
        if self.frames:
            parts.append(f"frame {self.frames_done}/{self.frames}")
        if self.phase:
            parts.append(self.phase)
        if self.tiles:
            parts.append(f"{self.tiles} tiles")
        parts.append(f"{_rate(self.fragments, self.seconds)} frag/s")
        parts.append(f"{_rate(self.cache_ops, self.seconds)} cache-ops/s")
        return "  ".join(parts)


class LiveRenderer:
    """Renders bus events as live terminal progress on ``stream``.

    In TTY mode the current run's status line is redrawn in place
    (carriage return, no scrollback spam) and finalized on
    :class:`RunFinished`; in plain mode only run-level lines are
    printed.  ``interactive`` forces the mode for tests.
    """

    def __init__(self, stream: Optional[IO[str]] = None,
                 interactive: Optional[bool] = None):
        self.stream = stream if stream is not None else sys.stderr
        if interactive is None:
            interactive = bool(getattr(self.stream, "isatty", lambda: False)())
        self.interactive = interactive
        self._runs: Dict[Tuple[str, str], _RunProgress] = {}
        self._line_open = False
        self._line_width = 0

    # -- line plumbing ----------------------------------------------------

    def _rewrite(self, text: str) -> None:
        pad = max(0, self._line_width - len(text))
        self.stream.write("\r" + text + " " * pad)
        self.stream.flush()
        self._line_open = True
        self._line_width = len(text)

    def _println(self, text: str) -> None:
        if self._line_open:
            self.stream.write("\r" + " " * self._line_width + "\r")
            self._line_open = False
            self._line_width = 0
        self.stream.write(text + "\n")
        self.stream.flush()

    def close(self) -> None:
        """Finish any open status line (leaves it visible)."""
        if self._line_open:
            self.stream.write("\n")
            self.stream.flush()
            self._line_open = False
            self._line_width = 0

    # -- event handling ---------------------------------------------------

    def __call__(self, event: Event) -> None:
        if isinstance(event, RunStarted):
            progress = _RunProgress(event.benchmark, event.mode,
                                    frames=event.frames)
            self._runs[progress.key] = progress
            if self.interactive:
                self._rewrite(progress.status())
            else:
                self._println(f"start  {event.benchmark}:{event.mode}"
                              + (f"  {event.frames} frames"
                                 if event.frames else ""))
        elif isinstance(event, PhaseCompleted):
            progress = self._current()
            if progress is None:
                return
            progress.phase = event.phase
            progress.seconds += event.seconds
            progress.fragments += event.fragments
            progress.cache_ops += event.cache_ops
            count = progress.phase_counts.get(event.phase, 0) + 1
            progress.phase_counts[event.phase] = count
            progress.frames_done = max(progress.frames_done,
                                       min(count, event.frame + 1))
            if self.interactive:
                self._rewrite(progress.status())
        elif isinstance(event, TileJobFinished):
            progress = self._current()
            if progress is not None:
                progress.tiles += event.tiles
        elif isinstance(event, RunFinished):
            progress = self._runs.pop((event.benchmark, event.mode), None)
            fragments = event.fragments or (
                progress.fragments if progress else 0)
            line = (f"done   {event.benchmark}:{event.mode}"
                    f"  {event.seconds:.2f}s"
                    f"  {_rate(fragments, event.seconds)} frag/s")
            if progress and progress.cache_ops:
                line += (f"  {_rate(progress.cache_ops, progress.seconds)}"
                         " cache-ops/s")
            self._println(line)
        elif isinstance(event, FaultInjected):
            self._println(f"fault  {event.key}"
                          f"  attempt {event.attempt}  {event.fault}")
        elif isinstance(event, MetricSample):
            if self.interactive:
                progress = self._current()
                if progress is not None:
                    self._rewrite(progress.status()
                                  + f"  [{event.name}={event.value:g}]")

    def _current(self) -> Optional[_RunProgress]:
        """The most recently started still-running simulation."""
        if not self._runs:
            return None
        return next(reversed(self._runs.values()))
