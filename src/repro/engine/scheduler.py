"""Pluggable schedulers: how the engine fans work out.

A :class:`Scheduler` maps a picklable function over picklable items and
returns the results *in submission order* — that ordering contract is what
lets the engine reduce results deterministically regardless of execution
order.  Two implementations:

* :class:`SerialScheduler` — in-process, in-order; the default, and
  bit-identical to the historical inline loops.
* :class:`ProcessPoolScheduler` — a persistent
  :class:`concurrent.futures.ProcessPoolExecutor`; used for per-frame
  tile fan-out and for suite-level (benchmark, mode) fan-out.

Both are used through :func:`make_scheduler`, which turns a ``--jobs N``
style request into the right implementation.

Either scheduler accepts an optional
:class:`~repro.obs.profile.SchedulerProfiler` (the ``profiler``
attribute, or the ``profiler`` argument of :func:`make_scheduler`), and
the pool scheduler also forwards worker events to the structured event
bus (:mod:`repro.obs.events`).  When either is armed, ``map`` runs every
item through the job envelope (:mod:`repro.engine.job`), settles the
records in submission order and closes one profiler batch.  Results pass
through untouched — profiled and observed runs are bit-identical to bare
ones.  With nothing armed, ``map`` calls ``fn`` directly.  Either way
``on_result(index, value)``, if given, sees each result as it settles.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    TypeVar,
)

from ..obs.events import get_bus
from .job import Job, settle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.profile import SchedulerProfiler

T = TypeVar("T")
R = TypeVar("R")

OnResult = Optional[Callable[[int, R], None]]


def _settled(results: Iterable[R], on_result: OnResult) -> List[R]:
    """``results`` as a list, each handed to ``on_result(index, value)``
    as it arrives."""
    settled: List[R] = []
    for value in results:
        if on_result is not None:
            on_result(len(settled), value)
        settled.append(value)
    return settled


class Scheduler(Protocol):
    """The engine's execution strategy.

    Implementations must return results in submission order and may
    assume ``fn`` and every item are picklable (the serial scheduler
    does not need that property, but callers must not rely on it).
    """

    def map(self, fn: Callable[[T], R], items: Sequence[T],
            on_result: OnResult = None) -> List[R]:
        """Apply ``fn`` to every item; results in submission order, each
        handed to ``on_result(index, value)`` as it settles."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release any held workers (idempotent)."""
        ...  # pragma: no cover - protocol


class SerialScheduler:
    """Run everything inline, in order — the default execution strategy."""

    jobs = 1

    def __init__(self, profiler: Optional["SchedulerProfiler"] = None):
        self.profiler = profiler

    def map(self, fn: Callable[[T], R], items: Sequence[T],
            on_result: OnResult = None) -> List[R]:
        profiler = self.profiler
        if profiler is None:
            # In-process: events already reach the live bus directly.
            return _settled(map(fn, items), on_result)
        submit = time.perf_counter()
        job = Job(fn)
        try:
            return _settled((settle(job(item), item, index, submit, profiler)
                             for index, item in enumerate(items)), on_result)
        finally:
            profiler.close_batch(submit)

    def close(self) -> None:
        pass

    def __enter__(self) -> "SerialScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return "SerialScheduler()"


class ProcessPoolScheduler:
    """Fan work out to a persistent pool of worker processes.

    The executor is created lazily (constructing a scheduler is free) and
    kept alive across :meth:`map` calls so per-frame tile fan-out does not
    pay process start-up for every frame.  ``fork`` is preferred where
    available: workers inherit the parent's imports, which matters when a
    frame's tile jobs are small.
    """

    def __init__(self, jobs: int, mp_context: Optional[str] = None,
                 profiler: Optional["SchedulerProfiler"] = None):
        if jobs < 2:
            raise ValueError("ProcessPoolScheduler needs jobs >= 2; "
                             "use SerialScheduler for jobs=1")
        self.jobs = jobs
        self.profiler = profiler
        self._mp_context = mp_context
        self._executor: Optional[ProcessPoolExecutor] = None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            import multiprocessing

            if self._mp_context is not None:
                context = multiprocessing.get_context(self._mp_context)
            elif "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            else:  # pragma: no cover - Windows/macOS spawn fallback
                context = multiprocessing.get_context()
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=context
            )
        return self._executor

    def map(self, fn: Callable[[T], R], items: Sequence[T],
            on_result: OnResult = None) -> List[R]:
        items = list(items)
        if not items:
            return []
        profiler = self.profiler
        if profiler is None and not get_bus().enabled:
            return _settled(self._map(fn, items), on_result)
        submit = time.perf_counter()
        try:
            return _settled((settle(record, item, index, submit, profiler)
                             for index, (item, record) in enumerate(
                                 zip(items, self._map(Job(fn), items)))),
                            on_result)
        finally:
            if profiler is not None:
                profiler.close_batch(submit)

    def _map(self, fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
        """Apply ``fn`` across the pool; results stream back lazily, in
        submission order."""
        if len(items) == 1:
            # One item gains nothing from a round-trip through the pool.
            return iter([fn(items[0])])
        executor = self._ensure_executor()
        chunksize = max(1, len(items) // (self.jobs * 4))
        return executor.map(fn, items, chunksize=chunksize)

    def close(self) -> None:
        """Shut the executor down gracefully (idempotent).

        The executor reference is dropped *before* shutdown so a failure
        mid-shutdown (or a re-entrant call) can neither leak the old
        executor nor double-close it.  ``getattr`` guards the case where
        ``__init__`` raised before ``_executor`` was ever assigned.
        """
        executor = getattr(self, "_executor", None)
        self._executor = None
        if executor is not None:
            executor.shutdown()

    def terminate(self) -> None:
        """Forcibly kill the pool, hung workers included (idempotent).

        Unlike :meth:`close`, this never waits on workers: a worker
        stuck in an endless job would block ``shutdown()`` forever, so
        the resilience layer uses this to reclaim the pool before
        rebuilding it.  Reaches into the executor's ``_processes`` —
        stdlib ``ProcessPoolExecutor`` offers no public kill switch —
        and degrades to a plain shutdown if that internal ever moves.
        """
        executor = getattr(self, "_executor", None)
        self._executor = None
        if executor is None:
            return
        processes = list((getattr(executor, "_processes", None) or {})
                         .values())
        manager = getattr(executor, "_executor_manager_thread", None)
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for process in processes:
            try:
                process.kill()
            except Exception:
                pass
        for process in processes:
            try:
                process.join(timeout=1.0)
            except Exception:
                pass
        if manager is not None:
            # The executor's manager thread reaps the dead workers too.
            # While its waitpid is in flight, another thread's
            # ``is_alive()`` on the same worker can misreport it alive.
            manager.join(timeout=1.0)

    def __enter__(self) -> "ProcessPoolScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return f"ProcessPoolScheduler(jobs={self.jobs})"


def make_scheduler(
    jobs: Optional[int],
    profiler: Optional["SchedulerProfiler"] = None,
) -> "Scheduler":
    """Turn a ``--jobs N`` request into a scheduler.

    ``None``, 0 and 1 mean serial; ``N >= 2`` means a process pool with N
    workers; negative N means one worker per CPU.  ``profiler``
    optionally attaches a :class:`~repro.obs.profile.SchedulerProfiler`.
    """
    if jobs is not None and jobs < 0:
        jobs = os.cpu_count() or 1
    if not jobs or jobs == 1:
        return SerialScheduler(profiler=profiler)
    return ProcessPoolScheduler(jobs, profiler=profiler)
