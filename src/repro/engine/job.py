"""The job envelope: one picklable call per mapped job, wherever it runs.

In the executing process (a pool worker, or the parent for serial
execution) a :class:`Job` applies its attempt's fault decision, times
``fn(item)`` and buffers the bus events the call emits where the live
bus is out of reach (a worker) or the attempt may yet be discarded (a
resilient attempt).  It returns one :class:`JobRecord`: the result, its
start/end, the worker pid and the buffered events.

In the parent, :func:`settle` turns each record the scheduler *keeps*
into the job's result: it hands the profiler the timing and re-emits
the buffered events on the parent's bus, which re-stamps them.  It is
the only way either leaves the envelope, so a discarded attempt
publishes nothing.  With no profiler, bus or fault plan armed, the
schedulers call ``fn`` directly.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from ..errors import InjectedFaultError
from ..obs.events import Event, EventBus, get_bus, publishing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.profile import SchedulerProfiler
    from ..resilience.faults import FaultPlan

#: Worker exit code used by injected crashes (BSD's EX_SOFTWARE).
CRASH_EXIT_CODE = 70


class CorruptedResult:
    """Sentinel standing in for a job result mangled by a corrupt fault.

    The resilient scheduler recognizes instances and treats them as a
    failed attempt; anything else receiving one would crash loudly
    rather than silently propagate garbage.
    """

    __slots__ = ("key", "attempt")

    def __init__(self, key: str, attempt: int):
        self.key = key
        self.attempt = attempt

    def __repr__(self) -> str:
        return f"CorruptedResult(key={self.key!r}, attempt={self.attempt})"


@dataclass
class JobRecord:
    """What one job call sends back: its result, where and when it ran
    (``time.perf_counter`` endpoints, system-wide monotonic) and the bus
    events it buffered, in emission order."""

    result: Any
    start: float
    end: float
    worker: int
    events: List[Event] = field(default_factory=list)


class Job:
    """Picklable envelope around ``fn(item)`` for one attempt.

    Args:
        fn: the mapped function (must pickle for a process pool).
        supervised: the attempt may still be discarded, so its events are
            buffered even when it runs in the parent.
        plan: fault plan deciding this attempt's injected fault, if any.
        key: the job key the plan decides for (``"<batch>:<index>"``).
        attempt: the 1-based attempt number the plan decides for.
    """

    def __init__(self, fn: Callable[[Any], Any], supervised: bool = False,
                 plan: Optional["FaultPlan"] = None, key: str = "",
                 attempt: int = 0):
        self.fn = fn
        self.supervised = supervised
        self.plan = plan
        self.key = key
        self.attempt = attempt
        self.parent_pid = os.getpid()
        # Buffer only when the parent has a bus to replay events on:
        # otherwise every instrumented call site would build events
        # for nobody.
        self.forward = get_bus().enabled

    def __call__(self, item: Any) -> JobRecord:
        in_parent = os.getpid() == self.parent_pid
        if not self.forward or (in_parent and not self.supervised):
            return self._timed(item, in_parent)
        buffer = EventBus()
        events: List[Event] = []
        buffer.subscribe(events.append)
        with publishing(buffer):
            record = self._timed(item, in_parent)
        record.events = events
        return record

    def _timed(self, item: Any, in_parent: bool) -> JobRecord:
        start = time.perf_counter()
        fault = (self.plan.decide(self.key, self.attempt)
                 if self.plan is not None else None)
        if fault == "crash":
            if not in_parent:
                os._exit(CRASH_EXIT_CODE)
            # In-process execution (serial scheduler or degraded
            # fallback): killing the parent would defeat the harness.
            raise InjectedFaultError(
                f"injected crash for {self.key} "
                f"(attempt {self.attempt}, converted in-process)"
            )
        if fault == "raise":
            raise InjectedFaultError(
                f"injected failure for {self.key} (attempt {self.attempt})"
            )
        if fault == "hang":
            time.sleep(self.plan.hang_seconds)
        result = self.fn(item)
        if fault == "corrupt":
            result = CorruptedResult(self.key, self.attempt)
        return JobRecord(result, start, time.perf_counter(), os.getpid())


def settle(record: JobRecord, item: Any, index: int, submitted: float,
           profiler: Optional["SchedulerProfiler"]) -> Any:
    """Publish one kept record and return the job's result: the profiler
    (if any) records its timing against ``submitted``, and its buffered
    events are re-emitted on the parent's bus."""
    if profiler is not None:
        profiler.record_job(item, index, submitted, record)
    bus = get_bus()
    for event in record.events:
        bus.emit(event)
    return record.result
