"""Tests for the structured event bus (:mod:`repro.obs.events`).

The load-bearing properties: sequence numbers are monotonic, the wire
form round-trips (and tolerates unknown kinds/fields), worker-side
forwarding replays events on the parent bus in submission order even
when the worker fork-inherited a live parent bus, subscribers are
one-way (a raising subscriber is disconnected, and a run with every
subscriber attached is bit-identical to a bare run).
"""

from __future__ import annotations

import dataclasses
import io
import json
import os

import pytest

from repro.config import GPUConfig
from repro.engine import ProcessPoolScheduler, SerialScheduler
from repro.engine.job import Job, JobRecord, settle
from repro.harness.runner import metrics_from_result
from repro.obs import ChromeTracer, MetricsRegistry
from repro.obs.live import LiveRenderer
from repro.obs.events import (
    CorpusFamilyChecked,
    EVENT_SCHEMA_VERSION,
    EventBus,
    JsonlEventWriter,
    MetricSample,
    MetricsSubscriber,
    NULL_BUS,
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
from repro.pipeline import GPU
from repro.scenes import benchmark_stream
from repro.techniques import EVR


class TestBusBasics:
    def test_null_bus_is_default_and_disabled(self):
        assert get_bus() is NULL_BUS
        assert not NULL_BUS.enabled
        NULL_BUS.emit(MetricSample(name="x", value=1.0))  # no-op

    def test_null_bus_rejects_subscribers(self):
        with pytest.raises(RuntimeError):
            NULL_BUS.subscribe(lambda event: None)

    def test_publishing_scopes_and_restores(self):
        bus = EventBus()
        with publishing(bus):
            assert get_bus() is bus
        assert get_bus() is NULL_BUS

    def test_set_bus_returns_previous(self):
        bus = EventBus()
        assert set_bus(bus) is NULL_BUS
        assert set_bus(NULL_BUS) is bus

    def test_emit_stamps_monotonic_seq_and_ts(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(MetricSample(name="a", value=1.0))
        bus.emit(MetricSample(name="b", value=2.0))
        bus.emit(MetricSample(name="c", value=3.0))
        assert [event.seq for event in seen] == [1, 2, 3]
        assert all(event.ts > 0 for event in seen)
        assert bus.emitted == 3

    def test_delivery_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(lambda e: order.append("first"))
        bus.subscribe(lambda e: order.append("second"))
        bus.emit(MetricSample(name="x", value=0.0))
        assert order == ["first", "second"]

    def test_raising_subscriber_is_disconnected_not_fatal(self):
        bus = EventBus()
        good = []

        def bad(event):
            raise ValueError("subscriber bug")

        bus.subscribe(bad)
        bus.subscribe(good.append)
        bus.emit(MetricSample(name="x", value=0.0))
        bus.emit(MetricSample(name="y", value=1.0))
        # The bad subscriber saw at most one event; the good one saw both.
        assert [event.name for event in good] == ["x", "y"]

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.unsubscribe(seen.append)
        bus.emit(MetricSample(name="x", value=0.0))
        assert seen == []


class TestWireForm:
    EVENTS = [
        RunStarted(benchmark="cde", mode="evr", frames=4),
        PhaseCompleted(phase="raster", frame=2, seconds=0.5,
                       fragments=100, cache_ops=200),
        TileJobFinished(tile=7, fragments=64, worker=123,
                        start=1.0, end=2.0),
        MetricSample(name="suite.progress", value=0.5),
        RunFinished(benchmark="cde", mode="evr", seconds=1.5,
                    frames=4, fragments=400),
        CorpusFamilyChecked(family="sliver", frames=4, seconds=0.8,
                            passed=False, checks=13, failures=9,
                            shrink_evals=17),
    ]

    def test_round_trip_every_kind(self):
        for event in self.EVENTS:
            wire = to_wire(event)
            assert wire["v"] == EVENT_SCHEMA_VERSION
            assert wire["kind"] == event.kind
            json.dumps(wire)  # JSON-serialisable
            assert event_from_wire(wire) == event

    def test_unknown_kind_is_skipped(self):
        assert event_from_wire({"v": EVENT_SCHEMA_VERSION,
                                "kind": "quantum-flux"}) is None

    def test_foreign_version_is_skipped(self):
        wire = to_wire(MetricSample(name="x", value=1.0))
        wire["v"] = EVENT_SCHEMA_VERSION + 1
        assert event_from_wire(wire) is None

    def test_unknown_fields_of_known_kind_are_ignored(self):
        wire = to_wire(MetricSample(name="x", value=1.0))
        wire["added_in_v2"] = "whatever"
        assert event_from_wire(wire) == MetricSample(name="x", value=1.0)

    def test_jsonl_writer_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        bus = EventBus()
        writer = JsonlEventWriter(path)
        bus.subscribe(writer)
        for event in self.EVENTS:
            bus.emit(event)
        writer.close()
        writer.close()  # idempotent
        assert writer.written == len(self.EVENTS)
        replayed = read_event_log(path)
        assert [event.kind for event in replayed] == \
            [event.kind for event in self.EVENTS]
        assert [event.seq for event in replayed] == \
            list(range(1, len(self.EVENTS) + 1))

    def test_reader_skips_torn_tail(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps(to_wire(self.EVENTS[0])) + "\n")
            handle.write('{"v": 1, "kind": "metric-sa')  # killed mid-write
        assert len(read_event_log(path)) == 1


def _square_and_emit(item):
    """Pool-mapped job (module-level: must pickle into workers)."""
    get_bus().emit(MetricSample(name="job", value=float(item)))
    return item * item


class TestForwarding:
    """Event forwarding through the job envelope (:mod:`repro.engine.job`)."""

    def test_in_parent_passes_through_without_buffering(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)

        def fn(item):
            get_bus().emit(MetricSample(name="inner", value=item))
            return item * 2

        with publishing(bus):
            record = Job(fn)(21)
        assert isinstance(record, JobRecord)
        assert record.result == 42
        assert record.events == []  # emitted live, nothing buffered
        assert [event.name for event in seen] == ["inner"]

    def test_in_worker_buffers_even_with_inherited_bus(self):
        # Simulate a forked worker: the parent's live bus object is
        # inherited, but the pid check reroutes emission to a buffer.
        parent_subscribers = []
        parent_bus = EventBus()
        parent_bus.subscribe(parent_subscribers.append)

        def fn(item):
            get_bus().emit(MetricSample(name="inner", value=item))
            return item

        with publishing(parent_bus):
            job = Job(fn)
            job.parent_pid = os.getpid() + 1  # as seen from a worker
            record = job(7)
        assert record.result == 7
        assert [event.name for event in record.events] == ["inner"]
        assert parent_subscribers == []  # parent saw nothing in-worker

    def test_supervised_attempt_buffers_in_parent(self):
        # A resilient attempt may still be discarded, so even in the
        # parent its events wait in the record until it is kept.
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)

        def fn(item):
            get_bus().emit(MetricSample(name="inner", value=item))
            return item

        with publishing(bus):
            record = Job(fn, supervised=True)(3)
        assert [event.name for event in record.events] == ["inner"]
        assert seen == []

    def test_nothing_buffered_without_a_bus(self):
        def fn(item):
            get_bus().emit(MetricSample(name="inner", value=item))
            return item

        job = Job(fn, supervised=True)
        job.parent_pid = os.getpid() + 1
        assert job(5).events == []

    def test_settle_restamps_on_parent_bus(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(MetricSample(name="before", value=0.0))
        record = JobRecord(
            "payload", 0.0, 0.0, os.getpid(),
            [MetricSample(name="a", value=1.0, seq=1, ts=5.0),
             MetricSample(name="b", value=2.0, seq=2, ts=6.0)],
        )
        with publishing(bus):
            assert settle(record, None, 0, 0.0, None) == "payload"
        assert [event.seq for event in seen] == [1, 2, 3]  # re-stamped
        assert [event.ts for event in seen[1:]] == [5.0, 6.0]

    def test_replay_passes_plain_values_through(self):
        # A record with nothing buffered settles to its bare result and
        # publishes nothing.
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        with publishing(bus):
            record = JobRecord(123, 0.0, 0.0, os.getpid())
            assert settle(record, None, 0, 0.0, None) == 123
        assert seen == []

    def test_pool_scheduler_forwards_worker_events(self):
        calls = list(range(8))
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        with publishing(bus):
            with ProcessPoolScheduler(jobs=2) as scheduler:
                results = scheduler.map(_square_and_emit, calls)
        assert results == [item * item for item in calls]
        samples = [event for event in seen if event.name == "job"]
        # Ordered: submission order, re-stamped monotonically.
        assert [event.value for event in samples] == [float(i) for i in calls]
        seqs = [event.seq for event in samples]
        assert seqs == sorted(seqs)


class TestConsumerSubscribers:
    def test_tracer_subscriber_emits_instants(self):
        tracer = ChromeTracer()
        bus = EventBus()
        bus.subscribe(TracerSubscriber(tracer))
        bus.emit(RunStarted(benchmark="cde", mode="evr", frames=4))
        instants = [e for e in tracer.events if e.get("ph") == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "run-started"
        assert instants[0]["args"]["benchmark"] == "cde"

    def test_metrics_subscriber_counts_and_observes(self):
        registry = MetricsRegistry()
        bus = EventBus()
        bus.subscribe(MetricsSubscriber(registry))
        bus.emit(PhaseCompleted(phase="raster", frame=0, seconds=0.25))
        bus.emit(PhaseCompleted(phase="raster", frame=1, seconds=0.75))
        bus.emit(MetricSample(name="suite.progress", value=0.5))
        snapshot = registry.as_dict()
        assert snapshot["counters"]["events.phase-completed"] == 2
        assert snapshot["counters"]["events.metric-sample"] == 1
        histogram = snapshot["histograms"]["events.phase_seconds.raster"]
        assert histogram["count"] == 2 and histogram["sum"] == 1.0
        assert snapshot["gauges"]["events.sample.suite.progress"] == 0.5


def _render(config, scheduler=None, subscribers=()):
    """One tiny EVR run; returns distilled metrics.  ``subscribers``
    attach to a fresh bus installed for the run."""
    stream = benchmark_stream("hop", config)
    if subscribers:
        bus = EventBus()
        for subscriber in subscribers:
            bus.subscribe(subscriber)
        with publishing(bus):
            result = GPU(config, EVR,
                         scheduler=scheduler).render_stream(stream)
    else:
        result = GPU(config, EVR,
                     scheduler=scheduler).render_stream(stream)
    return metrics_from_result("hop", EVR, result)


class _KeepJobs(SerialScheduler):
    """Serial scheduler that also keeps every job and result."""

    def __init__(self):
        super().__init__()
        self.jobs = []
        self.results = []

    def map(self, fn, items):
        results = super().map(fn, items)
        self.jobs.extend(items)
        self.results.extend(results)
        return results


class TestRangeJobEvents:
    @pytest.mark.parametrize("budget", [1, 512])
    def test_one_event_per_range_job(self, monkeypatch, budget):
        """A numpy EVR run logs one ``TileJobFinished`` per raster job:
        its first tile, the range's shaded fragments, this process's pid
        and its own wall time."""
        from repro.pipeline import raster

        monkeypatch.setattr(raster, "RANGE_ENTRIES", budget)
        config = GPUConfig.tiny(frames=2)
        scheduler = _KeepJobs()
        events = []
        bus = EventBus()
        bus.subscribe(events.append)
        with publishing(bus):
            GPU(config, EVR, backend="numpy",
                scheduler=scheduler).render_stream(
                    benchmark_stream("hop", config))
        finished = [event for event in events
                    if isinstance(event, TileJobFinished)]
        assert len(finished) == len(scheduler.jobs)
        assert (max(job.tiles.size for job in scheduler.jobs) > 1) == (
            budget > 1)
        for event, job, result in zip(finished, scheduler.jobs,
                                      scheduler.results):
            assert event.tile == job.tile == int(job.tiles[0])
            assert event.fragments == result.stats.fragments_shaded
            assert event.worker == os.getpid()
            assert event.start <= event.end
            assert event.tiles == job.tiles.size

    def test_tiles_sum_to_the_tiles_rendered(self):
        """Each event counts its range's tiles: summed, they are the
        run's rendered tiles, and that is the count an interactive
        ``LiveRenderer`` shows, not the number of jobs."""
        config = GPUConfig.tiny(frames=2)
        terminal = io.StringIO()
        events = []
        bus = EventBus()
        bus.subscribe(events.append)
        bus.subscribe(LiveRenderer(terminal, interactive=True))
        with publishing(bus):
            bus.emit(RunStarted(benchmark="tib", mode="evr", frames=2))
            result = GPU(config, EVR, backend="numpy").render_stream(
                benchmark_stream("tib", config))
        rendered = sum(frame.stats.tiles_rendered for frame in result.frames)
        finished = [event for event in events
                    if isinstance(event, TileJobFinished)]
        assert len(finished) < rendered
        assert sum(event.tiles for event in finished) == rendered
        status = terminal.getvalue().rsplit("\r", 1)[-1]
        assert f"  {rendered} tiles  " in status


class TestBitIdentity:
    """The one-way contract: subscribers never change what they watch."""

    def test_serial_run_identical_with_and_without_bus(self, tmp_path):
        config = GPUConfig.tiny(frames=3)
        bare = _render(config)
        sink = []
        tracer = ChromeTracer()
        registry = MetricsRegistry()
        writer = JsonlEventWriter(str(tmp_path / "events.jsonl"))
        observed = _render(config, subscribers=(
            sink.append, writer, TracerSubscriber(tracer),
            MetricsSubscriber(registry),
        ))
        writer.close()
        assert dataclasses.asdict(observed) == dataclasses.asdict(bare)
        assert sink  # the bus actually saw the run

    def test_pool_run_identical_with_and_without_bus(self, tmp_path):
        config = GPUConfig.tiny(frames=3)
        with ProcessPoolScheduler(jobs=2) as scheduler:
            bare = _render(config, scheduler)
        writer = JsonlEventWriter(str(tmp_path / "events.jsonl"))
        sink = []
        with ProcessPoolScheduler(jobs=2) as scheduler:
            observed = _render(config, scheduler,
                               subscribers=(sink.append, writer))
        writer.close()
        assert dataclasses.asdict(observed) == dataclasses.asdict(bare)
        kinds = {event.kind for event in sink}
        assert "tile-job-finished" in kinds and "phase-completed" in kinds

    def test_fuzz_identity_across_seeds(self):
        # Fuzz over benchmark/frame-count variations: bus-on always
        # equals bus-off, whatever the workload shape.
        for benchmark, frames in (("hop", 2), ("cde", 2), ("tib", 3)):
            config = GPUConfig.tiny(frames=frames)
            stream = benchmark_stream(benchmark, config)
            bare = GPU(config, EVR).render_stream(stream)
            bus = EventBus()
            bus.subscribe(lambda event: None)
            with publishing(bus):
                stream = benchmark_stream(benchmark, config)
                observed = GPU(config, EVR).render_stream(stream)
            bare_metrics = metrics_from_result(benchmark, EVR,
                                               bare)
            observed_metrics = metrics_from_result(benchmark,
                                                   EVR,
                                                   observed)
            assert (dataclasses.asdict(observed_metrics)
                    == dataclasses.asdict(bare_metrics))
            assert bus.emitted > 0
