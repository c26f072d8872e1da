"""The structured event bus: typed, ordered, one-way run telemetry.

Where :mod:`repro.obs.trace` records *intervals* for post-hoc viewing,
this module broadcasts *events* while a run executes: run/phase/tile
progress, metric samples and injected faults, published to any number of
subscribers (a live terminal renderer, a JSONL event log, the tracer and
metrics registry as consumers — see :mod:`repro.obs.live` and the
subscriber classes below).  The bus follows the tracer's process-wide
singleton pattern:

* :data:`NULL_BUS` (the default) swallows everything; ``emit()`` on it
  is one attribute check at every instrumented call site, so a run
  without subscribers pays nothing.
* :class:`EventBus` stamps every event with a monotonically increasing
  sequence number and fans it out to subscribers synchronously, in
  subscription order.

**Schema.** Events are frozen dataclasses; the wire form is one JSON
object per line carrying ``v`` (:data:`EVENT_SCHEMA_VERSION`), ``kind``,
``seq``, ``ts`` (wall-clock seconds) and the event's own fields.  The
version bumps whenever a field is removed or changes meaning; adding
fields is backward-compatible and does not bump it.  ``event_from_wire``
ignores unknown fields for exactly that reason.

**Worker forwarding.**  Pipeline events fire inside whichever process
executes the work.  Under a :class:`~repro.engine.ProcessPoolScheduler`
that is a worker without access to the parent's subscribers, so the job
envelope (:mod:`repro.engine.job`) buffers them on a plain
:class:`EventBus` beside the job's result, and the parent re-emits the
events of every record it keeps — re-stamped, so the merged stream stays
monotonically ordered.

**One-way by construction.**  Nothing here is read back by the
simulation, and a subscriber that raises is disconnected with a warning
rather than allowed to fail the run: a run with subscribers attached is
bit-identical to a bare run.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from .log import get_logger

logger = get_logger("obs.events")

#: Bumped when an existing wire field is removed or changes meaning.
#: New fields may be added without a bump (readers ignore unknowns).
EVENT_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Event types (the versioned schema)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunStarted:
    """One (benchmark, mode) simulation is about to render."""

    benchmark: str
    mode: str
    frames: int = 0
    seq: int = 0
    ts: float = 0.0

    kind = "run-started"


@dataclass(frozen=True)
class PhaseCompleted:
    """One pipeline phase of one frame finished.

    ``fragments``/``cache_ops`` are the phase's contribution (shaded
    fragments so far for raster, simulated cache-unit accesses for the
    phase's instrumentation) — the live renderer derives its
    fragments/s and cache-ops/s from these.
    """

    phase: str
    frame: int
    seconds: float
    fragments: int = 0
    cache_ops: int = 0
    seq: int = 0
    ts: float = 0.0

    kind = "phase-completed"


@dataclass(frozen=True)
class TileJobFinished:
    """One tile job finished executing (in whichever process ran it).

    A job renders a range of tiles: ``tile`` is its first and ``tiles``
    how many it rendered (logs written before the field read as 1).
    ``start``/``end`` are ``time.perf_counter`` endpoints measured in
    the executing process (system-wide monotonic, so comparable across
    workers); ``worker`` is that process's pid — together they are the
    dashboard's worker-occupancy lane data.
    """

    tile: int
    fragments: int
    worker: int = 0
    start: float = 0.0
    end: float = 0.0
    tiles: int = 1
    seq: int = 0
    ts: float = 0.0

    kind = "tile-job-finished"


@dataclass(frozen=True)
class MetricSample:
    """A named scalar sampled mid-run (suite progress, bench rates)."""

    name: str
    value: float
    seq: int = 0
    ts: float = 0.0

    kind = "metric-sample"


@dataclass(frozen=True)
class FaultInjected:
    """The resilience layer observed a retryable failure."""

    key: str
    attempt: int
    fault: str
    seq: int = 0
    ts: float = 0.0

    kind = "fault-injected"


@dataclass(frozen=True)
class RunFinished:
    """One (benchmark, mode) simulation completed."""

    benchmark: str
    mode: str
    seconds: float
    frames: int = 0
    fragments: int = 0
    seq: int = 0
    ts: float = 0.0

    kind = "run-finished"


@dataclass(frozen=True)
class CorpusFamilyChecked:
    """The corpus gate finished differentially validating one stress
    family (additive schema: new kind, no version bump).

    ``failures`` counts violated checks; ``shrink_evals`` is non-zero
    only when a violation triggered the delta-debugging shrinker.
    """

    family: str
    frames: int
    seconds: float
    passed: bool
    checks: int = 0
    failures: int = 0
    shrink_evals: int = 0
    seq: int = 0
    ts: float = 0.0

    kind = "corpus-family-checked"


Event = Union[RunStarted, PhaseCompleted, TileJobFinished, MetricSample,
              FaultInjected, RunFinished, CorpusFamilyChecked]

EVENT_TYPES: Tuple[Type, ...] = (
    RunStarted, PhaseCompleted, TileJobFinished, MetricSample,
    FaultInjected, RunFinished, CorpusFamilyChecked,
)

_KIND_TO_TYPE: Dict[str, Type] = {cls.kind: cls for cls in EVENT_TYPES}


def to_wire(event: Event) -> Dict[str, Any]:
    """The event's JSONL wire object (``v`` + ``kind`` + fields)."""
    record: Dict[str, Any] = {"v": EVENT_SCHEMA_VERSION, "kind": event.kind}
    record.update(dataclasses.asdict(event))
    return record


def event_from_wire(record: Dict[str, Any]) -> Optional[Event]:
    """Rebuild an event from its wire object.

    Returns ``None`` for unknown kinds or unsupported schema versions
    (readers of event logs skip rather than crash); unknown *fields* of
    a known kind are ignored (additive schema evolution).
    """
    if record.get("v") != EVENT_SCHEMA_VERSION:
        return None
    cls = _KIND_TO_TYPE.get(record.get("kind", ""))
    if cls is None:
        return None
    known = {field.name for field in dataclasses.fields(cls)}
    try:
        return cls(**{key: value for key, value in record.items()
                      if key in known})
    except (TypeError, ValueError):
        return None


# ---------------------------------------------------------------------------
# The bus
# ---------------------------------------------------------------------------

Subscriber = Callable[[Event], None]


class NullBus:
    """Events disabled: every operation is a no-op."""

    enabled = False

    def emit(self, event: Event) -> None:
        return None

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        raise RuntimeError(
            "cannot subscribe to the null bus; install an EventBus first "
            "(see repro.obs.events.publishing)"
        )


NULL_BUS = NullBus()


class EventBus:
    """Fans typed events out to subscribers, stamping monotonic ``seq``.

    Emission is synchronous and in subscription order.  A subscriber
    that raises is disconnected (with a warning) instead of failing the
    run — observability must never change a result, and a run whose
    event log dies mid-way is still a correct run.
    """

    enabled = True

    def __init__(self) -> None:
        self._subscribers: List[Subscriber] = []
        self._seq = 0
        self.emitted = 0

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Attach ``subscriber``; returns it (decorator-friendly)."""
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        if subscriber in self._subscribers:
            self._subscribers.remove(subscriber)

    def emit(self, event: Event) -> None:
        """Stamp ``seq``/``ts`` and deliver to every subscriber."""
        self._seq += 1
        event = dataclasses.replace(
            event, seq=self._seq,
            ts=event.ts if event.ts else time.time(),
        )
        self.emitted += 1
        for subscriber in list(self._subscribers):
            try:
                subscriber(event)
            except Exception as error:  # noqa: BLE001 - one-way contract
                self.unsubscribe(subscriber)
                logger.warning(
                    "event subscriber %r failed (%r); disconnected",
                    subscriber, error,
                )


Bus = Union[NullBus, EventBus]

_CURRENT: Bus = NULL_BUS


def get_bus() -> Bus:
    """The process-wide bus instrumented call sites emit into."""
    return _CURRENT


def set_bus(bus: Bus) -> Bus:
    """Install ``bus`` process-wide; returns the previous one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = bus
    return previous


@contextmanager
def publishing(bus: Bus) -> Iterator[Bus]:
    """Scoped :func:`set_bus`: restores the previous bus on exit."""
    previous = set_bus(bus)
    try:
        yield bus
    finally:
        set_bus(previous)


# ---------------------------------------------------------------------------
# Subscribers: event log, tracer and metrics consumers
# ---------------------------------------------------------------------------

class JsonlEventWriter:
    """Streams events to a JSONL file, crash-durably.

    Every event is written and flushed as it arrives, so a faulted or
    killed run leaves a valid prefix of the stream on disk; ``close()``
    is idempotent and registered with ``atexit`` by the CLI as the
    flush-on-crash backstop.
    """

    def __init__(self, path: str):
        self.path = path
        self.written = 0
        self._handle: Optional[IO[str]] = open(path, "w")

    def __call__(self, event: Event) -> None:
        if self._handle is None:
            return
        self._handle.write(json.dumps(to_wire(event), sort_keys=True))
        self._handle.write("\n")
        self._handle.flush()
        self.written += 1

    def close(self) -> None:
        handle = self._handle
        self._handle = None
        if handle is not None:
            handle.close()


def read_event_log(path: str) -> List[Event]:
    """Parse a JSONL event log back into typed events (unknown kinds
    and foreign schema versions are skipped)."""
    events: List[Event] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            event = event_from_wire(record)
            if event is not None:
                events.append(event)
    return events


class TracerSubscriber:
    """Feeds bus events into a tracer as instants on an ``events`` lane
    — the ChromeTracer consuming the bus, so a ``--trace`` file carries
    the event stream alongside its spans."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer

    def __call__(self, event: Event) -> None:
        if not self.tracer.enabled:
            return
        args = {key: value
                for key, value in dataclasses.asdict(event).items()
                if not isinstance(value, (list, dict))}
        self.tracer.instant(event.kind, category="event", **args)


class MetricsSubscriber:
    """Counts bus events into a metrics registry (``events.*``): per-kind
    counters, phase-seconds histograms and metric-sample gauges — the
    MetricsRegistry consuming the bus."""

    def __init__(self, registry) -> None:
        self.registry = registry

    def __call__(self, event: Event) -> None:
        registry = self.registry
        registry.counter(f"events.{event.kind}").inc()
        if isinstance(event, PhaseCompleted):
            registry.histogram(
                f"events.phase_seconds.{event.phase}"
            ).observe(event.seconds)
        elif isinstance(event, MetricSample):
            registry.gauge(f"events.sample.{event.name}").set(event.value)


def cache_ops_of(instrumentation) -> int:
    """Simulated cache-unit accesses in one instrumentation record (the
    ``cache_ops`` payload of :class:`PhaseCompleted`)."""
    return sum(counters.get("accesses", 0)
               for counters in instrumentation.units.values())
