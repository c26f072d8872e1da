"""The resilient scheduler: retries, timeouts, pool recovery, degradation.

:class:`ResilientScheduler` wraps any :class:`~repro.engine.Scheduler`
(Serial or ProcessPool) and upgrades its ``map`` from "all jobs succeed
or the whole batch dies" to a supervised execution loop:

* every job gets up to ``policy.max_attempts`` executions, with
  exponential backoff and deterministic jitter between attempts;
* under a process pool, every job gets a per-job wall-clock timeout
  (measured from the moment it occupies a worker, not from submission);
* a broken pool (worker crash) or an expired job is recovered by
  force-terminating and rebuilding the pool; every in-flight job is
  charged one attempt and requeued;
* after ``policy.max_pool_rebuilds`` rebuilds the scheduler *degrades*:
  remaining jobs run serially in-process, where injected crashes are
  converted to ordinary exceptions, so a run always terminates;
* an armed :class:`~repro.resilience.FaultPlan` injects faults into
  every execution path above, deterministically.

Results are returned in submission order, exactly like the wrapped
scheduler.  :meth:`map` raises :class:`~repro.errors.JobRetryExhaustedError`
if any job ultimately fails; :meth:`map_resilient` instead returns a
:class:`JobFailure` in that job's slot (graceful degradation — the suite
runner uses it to complete a sweep with failed cells marked as such).
Both accept an ``on_result`` callback invoked as each job settles, which
is what makes incremental checkpointing possible.

Every attempt, on every path, is one supervised job envelope
(:class:`~repro.engine.job.Job`), which buffers its events even in the
parent.  Only an attempt whose result is kept is settled, so a raised,
corrupt, crashed or timed-out attempt reaches neither the profiler nor
the bus, and one ``map`` call is one profiler batch.

Everything else observable goes through :mod:`repro.obs`: retry/timeout/
crash/rebuild counters in the process-wide metrics registry, ``retry``
spans and fault instants in the process-wide tracer, warnings via the
package logger.  With neither a fault plan nor a timeout armed, a pool
batch takes an optimistic unsupervised pass (chunked, like the bare pool
scheduler) and is only re-run supervised if that pass fails; results
are bit-identical to the bare scheduler's either way.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..engine.job import CorruptedResult, Job, settle
from ..engine.scheduler import ProcessPoolScheduler, Scheduler
from ..errors import (
    InjectedFaultError,
    JobRetryExhaustedError,
    JobTimeoutError,
    ResilienceError,
    WorkerCrashError,
)
from ..obs.events import FaultInjected, get_bus
from ..obs.log import get_logger
from ..obs.metrics import global_registry
from ..obs.trace import get_tracer
from .faults import FaultPlan
from .policy import RetryPolicy, backoff_delay

logger = get_logger("resilience")

#: Event-loop tick while jobs are in flight and timeouts are armed.
_TICK_SECONDS = 0.05

#: Result-slot marker for jobs that have not settled yet.
_UNSET = object()


@dataclass(frozen=True)
class JobFailure:
    """Terminal failure of one job after every permitted attempt.

    Occupies the job's result slot in :meth:`ResilientScheduler.map_resilient`
    so callers can mark the cell failed and keep going.
    """

    index: int
    key: str
    kind: str  # "error" | "timeout" | "crash" | "corrupt"
    message: str
    attempts: int

    def to_error(self) -> ResilienceError:
        """The typed exception for this failure (typed by the *last*
        attempt's failure mode)."""
        if self.kind == "timeout":
            return JobTimeoutError(
                f"job {self.key} timed out on all {self.attempts} "
                f"attempt(s): {self.message}"
            )
        if self.kind == "crash":
            return WorkerCrashError(
                f"job {self.key} lost its worker on all {self.attempts} "
                f"attempt(s): {self.message}"
            )
        return JobRetryExhaustedError(self.key, self.attempts, self.message)


@dataclass
class _InFlight:
    """Bookkeeping for one submitted pool attempt."""

    index: int
    key: str
    attempt: int
    submitted: float
    deadline: Optional[float]


class ResilientScheduler:
    """Fault-tolerant wrapper around a Serial/ProcessPool scheduler."""

    def __init__(self, inner: Scheduler,
                 policy: Optional[RetryPolicy] = None,
                 fault_plan: Optional[FaultPlan] = None):
        self.inner = inner
        self.policy = policy or RetryPolicy()
        self.fault_plan = fault_plan
        self._batch = 0
        self._rebuilds = 0
        self._degraded = False
        # Monkeypatch point for tests: sleeping between retries.
        self._sleep = time.sleep

    # -- scheduler protocol --------------------------------------------------

    @property
    def jobs(self) -> int:
        return getattr(self.inner, "jobs", 1)

    @property
    def profiler(self):
        return getattr(self.inner, "profiler", None)

    def close(self) -> None:
        self.inner.close()

    def __enter__(self) -> "ResilientScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ResilientScheduler({self.inner!r}, "
                f"attempts={self.policy.max_attempts}, "
                f"timeout={self.policy.timeout_seconds}, "
                f"faults={self.fault_plan.describe() if self.fault_plan else None!r})")

    # -- mapping -------------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Strict map: all jobs succeed, or the first exhausted job's
        :class:`~repro.errors.JobRetryExhaustedError` is raised."""
        results = self.map_resilient(fn, items)
        for value in results:
            if isinstance(value, JobFailure):
                raise value.to_error()
        return results

    def map_resilient(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> List[Any]:
        """Map with graceful degradation: each slot holds the job's
        result or its :class:`JobFailure`.  ``on_result(index, value)``
        fires as each job settles (in completion order)."""
        items = list(items)
        if not items:
            return []
        self._batch += 1
        batch = self._batch
        results: List[Any] = [_UNSET] * len(items)
        attempts = [0] * len(items)
        submit = time.perf_counter()
        try:
            pool = self._pool()
            if (pool is not None and self.fault_plan is None
                    and self.policy.timeout_seconds is None):
                # Nothing to inject and nothing to time: one chunked
                # pass through the pool is bit-identical and pays no
                # supervision overhead.  Supervision kicks in only if
                # the optimistic pass fails.
                if self._map_pool_optimistic(pool, fn, items, submit,
                                             attempts, results, on_result):
                    return results
                pool = self._pool()  # the failure may have degraded us
            if pool is not None:
                remaining = self._map_pool(pool, fn, items, batch,
                                           attempts, results, on_result)
            else:
                remaining = [index for index, value in enumerate(results)
                             if value is _UNSET]
            for index in remaining:
                self._run_item_serial(fn, items, index, batch, attempts,
                                      results, on_result)
            return results
        finally:
            if self.profiler is not None:
                self.profiler.close_batch(submit)

    # -- shared helpers ------------------------------------------------------

    def _pool(self) -> Optional[ProcessPoolScheduler]:
        if self._degraded:
            return None
        inner = self.inner
        if isinstance(inner, ProcessPoolScheduler) and inner.jobs >= 2:
            return inner
        return None

    def _key(self, batch: int, index: int) -> str:
        return f"{batch}:{index}"

    def _finish(self, index: int, value: Any, results: List[Any],
                on_result: Optional[Callable[[int, Any], None]]) -> None:
        results[index] = value
        if on_result is not None:
            on_result(index, value)

    def _note_retryable(self, key: str, attempt: int, kind: str,
                        message: str) -> None:
        global_registry().counter(f"resilience.{kind}").inc()
        get_tracer().instant(f"fault:{kind}", category="resilience",
                             key=key, attempt=attempt)
        get_bus().emit(FaultInjected(key=key, attempt=attempt, fault=kind))
        logger.warning("job %s attempt %d failed (%s): %s",
                       key, attempt, kind, message)

    def _give_up(self, index: int, key: str, attempts: int, kind: str,
                 message: str, results: List[Any],
                 on_result: Optional[Callable[[int, Any], None]]) -> None:
        global_registry().counter("resilience.jobs_failed").inc()
        logger.warning("job %s failed permanently after %d attempt(s): %s",
                       key, attempts, message)
        self._finish(index, JobFailure(index, key, kind, message, attempts),
                     results, on_result)

    def _retry_span(self, key: str, attempt: int, start: float) -> None:
        """Record the winning retry as a trace span + counter."""
        if attempt > 1:
            get_tracer().complete(f"retry {key}", "resilience", start,
                                  time.perf_counter(),
                                  args={"attempt": attempt})

    def _backoff(self, key: str, attempt: int) -> float:
        delay = backoff_delay(self.policy, attempt, key)
        global_registry().counter("resilience.retries").inc()
        global_registry().histogram(
            "resilience.backoff_seconds").observe(delay)
        return delay

    # -- serial path ---------------------------------------------------------

    def _run_item_serial(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        index: int,
        batch: int,
        attempts: List[int],
        results: List[Any],
        on_result: Optional[Callable[[int, Any], None]],
    ) -> None:
        """Run one job to settlement, in-process.

        Used for the serial inner scheduler and as the degraded fallback
        once the pool has been given up on.  Per-job timeouts are not
        enforced here — an in-process call cannot be preempted — so an
        injected hang merely delays; it cannot wedge the run.
        """
        key = self._key(batch, index)
        first_start = None
        while True:
            attempt = attempts[index] + 1
            attempts[index] = attempt
            start = time.perf_counter()
            if first_start is None:
                first_start = start
            try:
                record = Job(fn, supervised=True, plan=self.fault_plan,
                             key=key, attempt=attempt)(items[index])
            except Exception as exc:  # noqa: BLE001 - retry boundary
                kind = ("injected_faults"
                        if isinstance(exc, InjectedFaultError) else "errors")
                self._note_retryable(key, attempt, kind, repr(exc))
                failure_kind, message = "error", repr(exc)
            else:
                if isinstance(record.result, CorruptedResult):
                    self._note_retryable(key, attempt, "corrupt_results",
                                         repr(record.result))
                    failure_kind, message = "corrupt", repr(record.result)
                else:
                    self._retry_span(key, attempt, first_start)
                    value = settle(record, items[index], index, start,
                                   self.profiler)
                    self._finish(index, value, results, on_result)
                    return
            if attempt >= self.policy.max_attempts:
                self._give_up(index, key, attempt, failure_kind, message,
                              results, on_result)
                return
            self._sleep(self._backoff(key, attempt))

    # -- pool path -----------------------------------------------------------

    def _map_pool_optimistic(
        self,
        pool: ProcessPoolScheduler,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        submit: float,
        attempts: List[int],
        results: List[Any],
        on_result: Optional[Callable[[int, Any], None]],
    ) -> bool:
        """One unsupervised, chunked pass through the pool.

        This is the fast path when neither a fault plan nor a timeout is
        armed: jobs travel in chunks exactly as under a bare pool
        scheduler, so arming ``--retries`` alone costs nothing until
        something actually fails.  Returns True when every job settled;
        nothing is published until then.  On any failure the whole batch
        is discarded, charged one attempt and handed to the supervised
        machinery (jobs are pure, so re-running already-succeeded ones
        changes nothing).
        """
        try:
            records = list(pool._map(Job(fn, supervised=True), items))
        except BrokenProcessPool as exc:
            failure_kind, message = "crash", repr(exc)
            global_registry().counter("resilience.crashes").inc()
            self._rebuild(pool)
        except Exception as exc:  # noqa: BLE001 - retry boundary
            failure_kind, message = "error", repr(exc)
            global_registry().counter("resilience.errors").inc()
        else:
            for index, record in enumerate(records):
                attempts[index] = 1
                value = settle(record, items[index], index, submit,
                               self.profiler)
                self._finish(index, value, results, on_result)
            return True
        logger.warning("optimistic pool pass failed (%s); re-running "
                       "batch supervised", message)
        for index in range(len(items)):
            attempts[index] = 1
            if self.policy.max_attempts <= 1:
                self._give_up(index, self._key(self._batch, index), 1,
                              failure_kind, message, results, on_result)
        return False

    def _map_pool(
        self,
        pool: ProcessPoolScheduler,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        batch: int,
        attempts: List[int],
        results: List[Any],
        on_result: Optional[Callable[[int, Any], None]],
    ) -> List[int]:
        """Supervised pool execution; returns indices left for the
        serial fallback (empty unless the scheduler degraded)."""
        policy = self.policy
        # (index, not-before timestamp) — backoff without blocking
        # peers.  Only unsettled jobs run: a failed optimistic pass
        # hands its unfinished indices here.
        pending: Deque[Tuple[int, float]] = deque(
            (index, 0.0) for index in range(len(items))
            if results[index] is _UNSET
        )
        inflight: Dict[Future, _InFlight] = {}
        first_start: Dict[int, float] = {}

        def submit_ready() -> None:
            now = time.perf_counter()
            for _ in range(len(pending)):
                if len(inflight) >= pool.jobs:
                    return
                index, ready_at = pending[0]
                if ready_at > now:
                    pending.rotate(-1)
                    continue
                pending.popleft()
                attempt = attempts[index] + 1
                attempts[index] = attempt
                key = self._key(batch, index)
                submitted = time.perf_counter()
                first_start.setdefault(index, submitted)
                deadline = (submitted + policy.timeout_seconds
                            if policy.timeout_seconds else None)
                future = pool._ensure_executor().submit(
                    Job(fn, supervised=True, plan=self.fault_plan,
                        key=key, attempt=attempt),
                    items[index],
                )
                inflight[future] = _InFlight(index, key, attempt,
                                             submitted, deadline)

        def after_failure(meta: _InFlight, kind: str, message: str) -> None:
            if meta.attempt >= policy.max_attempts:
                self._give_up(meta.index, meta.key, meta.attempt, kind,
                              message, results, on_result)
            else:
                ready_at = (time.perf_counter()
                            + self._backoff(meta.key, meta.attempt))
                pending.append((meta.index, ready_at))

        def abort_inflight(expired: Sequence[Future]) -> None:
            """Rebuild the pool; charge and requeue every in-flight job."""
            for future, meta in list(inflight.items()):
                if future in expired:
                    message = (f"job {meta.key} exceeded its "
                               f"{policy.timeout_seconds}s timeout")
                    self._note_retryable(meta.key, meta.attempt, "timeouts",
                                         message)
                    after_failure(meta, "timeout", message)
                else:
                    message = f"pool rebuilt while {meta.key} was in flight"
                    self._note_retryable(meta.key, meta.attempt, "crashes",
                                         message)
                    after_failure(meta, "crash", message)
            inflight.clear()
            self._rebuild(pool)

        while pending or inflight:
            if self._degraded:
                break
            try:
                submit_ready()
            except Exception as exc:  # pool already broken at submit time
                logger.warning("submit failed (%r); rebuilding pool", exc)
                abort_inflight(())
                continue
            if not inflight:
                # Everything pending is backing off; sleep to the
                # earliest ready-at.
                wake = min(ready for _, ready in pending)
                self._sleep(max(0.0, wake - time.perf_counter()))
                continue
            timeout = (_TICK_SECONDS if policy.timeout_seconds or pending
                       else None)
            done, _ = wait(set(inflight), timeout=timeout,
                           return_when=FIRST_COMPLETED)
            now = time.perf_counter()
            broken = False
            for future in done:
                meta = inflight.pop(future)
                try:
                    record = future.result()
                except BrokenProcessPool as exc:
                    broken = True
                    self._note_retryable(meta.key, meta.attempt, "crashes",
                                         repr(exc))
                    after_failure(meta, "crash",
                                  f"worker died while running {meta.key}")
                except Exception as exc:  # noqa: BLE001 - retry boundary
                    kind = ("injected_faults"
                            if isinstance(exc, InjectedFaultError)
                            else "errors")
                    self._note_retryable(meta.key, meta.attempt, kind,
                                         repr(exc))
                    after_failure(meta, "error", repr(exc))
                else:
                    if isinstance(record.result, CorruptedResult):
                        self._note_retryable(meta.key, meta.attempt,
                                             "corrupt_results",
                                             repr(record.result))
                        after_failure(meta, "corrupt", repr(record.result))
                    else:
                        self._retry_span(meta.key, meta.attempt,
                                         first_start[meta.index])
                        value = settle(record, items[meta.index],
                                       meta.index, meta.submitted,
                                       self.profiler)
                        self._finish(meta.index, value, results, on_result)
            if broken:
                abort_inflight(())
                continue
            expired = [future for future, meta in inflight.items()
                       if meta.deadline is not None and now >= meta.deadline]
            if expired:
                abort_inflight(expired)
        return [index for index, value in enumerate(results)
                if value is _UNSET]

    def _rebuild(self, pool: ProcessPoolScheduler) -> None:
        self._rebuilds += 1
        global_registry().counter("resilience.pool_rebuilds").inc()
        get_tracer().instant("pool-rebuild", category="resilience",
                             rebuilds=self._rebuilds)
        pool.terminate()
        if self._rebuilds > self.policy.max_pool_rebuilds:
            self._degraded = True
            global_registry().counter("resilience.serial_fallbacks").inc()
            get_tracer().instant("serial-fallback", category="resilience")
            logger.warning(
                "pool rebuilt %d times (limit %d); degrading to serial "
                "in-process execution", self._rebuilds,
                self.policy.max_pool_rebuilds,
            )
        else:
            logger.warning("process pool rebuilt (%d of %d allowed)",
                           self._rebuilds, self.policy.max_pool_rebuilds)
