"""Observability: tracing, metrics and profiling over the execution engine.

The paper's argument is quantitative — per-tile prediction accuracy,
poison rates, cycles and energy removed — and this package is where those
quantities become first-class, without perturbing what they measure:

* :mod:`repro.obs.trace` — a span-based tracer.  The default
  :data:`~repro.obs.trace.NULL_TRACER` is a no-op (near-zero overhead);
  :class:`~repro.obs.trace.ChromeTracer` records frame → phase → tile
  spans and exports Chrome ``chrome://tracing`` / Perfetto trace-event
  JSON (``repro run <bench> --trace out.json``).
* :mod:`repro.obs.metrics` — a registry of counters, gauges and
  histograms unifying :class:`~repro.timing.FrameStats` and
  :class:`~repro.engine.Instrumentation` emission, plus the derived EVR
  telemetry (FVP prediction confusion matrix, RE skip/check ratios,
  disk-cache hit/miss/evict counters).  Exports JSONL or CSV.
* :mod:`repro.obs.profile` — a scheduler profiler recording per-tile-job
  wall time, queue wait and worker occupancy for both Serial and
  ProcessPool schedulers.  Timings are observability-only: they never
  feed the simulated cycle or energy models.
* :mod:`repro.obs.log` — logging configuration and the CLI output
  helper honoring ``-v/--verbose`` and ``-q/--quiet``.
* :mod:`repro.obs.events` — the structured event bus: typed run/phase/
  tile/metric/fault events with monotonic sequence numbers and a JSONL
  wire form, forwarded from pool workers over the result channel.
  Subscribers (``--live`` terminal progress, ``--events`` JSONL log,
  tracer/metrics consumers) are one-way by construction.
* :mod:`repro.obs.ledger` — the persistent run ledger under
  ``.repro_ledger/``: append-only history of every run/figure/bench
  invocation, with drift detection (``repro ledger check``).
* :mod:`repro.obs.dashboard` — renders the ledger (plus optional event
  and metrics logs) into one self-contained HTML page
  (``repro dashboard``).
* :mod:`repro.obs.live` — the live terminal renderer behind ``--live``.

Nothing in here is imported on the simulator's per-fragment hot path;
span emission happens at frame / phase / command / tile granularity.
"""

from .events import (
    EVENT_SCHEMA_VERSION,
    EventBus,
    FaultInjected,
    JsonlEventWriter,
    MetricSample,
    MetricsSubscriber,
    NULL_BUS,
    NullBus,
    PhaseCompleted,
    RunFinished,
    RunStarted,
    TileJobFinished,
    TracerSubscriber,
    event_from_wire,
    get_bus,
    publishing,
    read_event_log,
    set_bus,
    to_wire,
)
from .ledger import PhaseAccumulator, RunLedger, resolve_ledger_dir
from .live import LiveRenderer
from .log import Output, get_logger, setup_logging, verbosity_from_flags
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    frame_record,
    fvp_confusion_matrix,
    global_registry,
    re_ratios,
    run_record,
    write_csv_records,
    write_jsonl,
)
from .profile import SchedulerProfiler, phase_breakdown
from .trace import (
    NULL_TRACER,
    ChromeTracer,
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
)

__all__ = [
    "Output",
    "get_logger",
    "setup_logging",
    "verbosity_from_flags",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "fvp_confusion_matrix",
    "re_ratios",
    "frame_record",
    "run_record",
    "write_jsonl",
    "write_csv_records",
    "SchedulerProfiler",
    "phase_breakdown",
    "Tracer",
    "NullTracer",
    "ChromeTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "tracing",
    "EVENT_SCHEMA_VERSION",
    "EventBus",
    "FaultInjected",
    "JsonlEventWriter",
    "MetricSample",
    "MetricsSubscriber",
    "NULL_BUS",
    "NullBus",
    "PhaseCompleted",
    "RunFinished",
    "RunStarted",
    "TileJobFinished",
    "TracerSubscriber",
    "event_from_wire",
    "get_bus",
    "publishing",
    "read_event_log",
    "set_bus",
    "to_wire",
    "PhaseAccumulator",
    "RunLedger",
    "resolve_ledger_dir",
    "LiveRenderer",
]
