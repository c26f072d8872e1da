"""Tests for the span tracer and its Chrome trace-event export.

The golden-file test renders a small benchmark under a
:class:`~repro.obs.ChromeTracer` and checks the exported JSON against
the trace-event format contract Perfetto/chrome://tracing rely on:
every complete event carries ``ts``/``dur``/``pid``/``tid``, tracks are
named through ``thread_name`` metadata, and within any one track spans
are properly nested — pairwise disjoint or contained, never partially
overlapping — with the ``frame ⊇ phase ⊇ tile`` chain present.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.config import GPUConfig
from repro.obs import (
    NULL_TRACER,
    ChromeTracer,
    NullTracer,
    SchedulerProfiler,
    get_tracer,
    set_tracer,
    tracing,
)
from repro.engine import SerialScheduler
from repro.pipeline import GPU
from repro.scenes import benchmark_stream
from repro.techniques import EVR


class TestNullTracer:
    def test_is_default(self):
        assert get_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled

    def test_span_is_shared_noop(self):
        span_a = NULL_TRACER.span("a", category="x", foo=1)
        span_b = NULL_TRACER.span("b")
        assert span_a is span_b  # one shared object, no per-call garbage
        with span_a:
            pass

    def test_complete_and_instant_are_noops(self):
        NULL_TRACER.complete("n", "c", 0.0, 1.0)
        NULL_TRACER.instant("n")


class TestTracerInstallation:
    def test_set_tracer_returns_previous(self):
        tracer = ChromeTracer()
        previous = set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(previous)

    def test_tracing_scope_restores_on_exception(self):
        before = get_tracer()
        try:
            with tracing(ChromeTracer()):
                assert get_tracer() is not before
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert get_tracer() is before


class TestChromeTracer:
    def test_span_records_complete_event(self):
        tracer = ChromeTracer()
        with tracer.span("work", category="test", answer=42):
            pass
        [event] = tracer.spans()
        assert event["name"] == "work"
        assert event["cat"] == "test"
        assert event["ph"] == "X"
        assert event["dur"] >= 0.0
        assert event["args"] == {"answer": 42}

    def test_tracks_get_metadata_events(self):
        tracer = ChromeTracer()
        tid_main = tracer.track_id("main")
        tid_worker = tracer.track_id("worker-7")
        assert tracer.track_id("main") == tid_main  # stable on reuse
        names = {
            event["args"]["name"]: event["tid"]
            for event in tracer.events
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert names == {"main": tid_main, "worker-7": tid_worker}

    def test_write_round_trips_json(self, tmp_path):
        tracer = ChromeTracer()
        with tracer.span("a"):
            pass
        path = str(tmp_path / "trace.json")
        tracer.write(path)
        with open(path) as handle:
            loaded = json.load(handle)
        assert loaded["traceEvents"] == tracer.export()["traceEvents"]

    def test_spans_filters_by_category(self):
        tracer = ChromeTracer()
        with tracer.span("a", category="one"):
            pass
        with tracer.span("b", category="two"):
            pass
        assert [e["name"] for e in tracer.spans("one")] == ["a"]


def _contained(inner, outer) -> bool:
    return (outer["ts"] <= inner["ts"]
            and inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"])


def _disjoint(a, b) -> bool:
    return (a["ts"] + a["dur"] <= b["ts"]
            or b["ts"] + b["dur"] <= a["ts"])


class TestGoldenTrace:
    """Export contract for a real (tiny) simulated run."""

    @classmethod
    def setup_class(cls):
        config = GPUConfig.tiny(frames=3)
        tracer = ChromeTracer()
        with tracing(tracer):
            scheduler = SerialScheduler(profiler=SchedulerProfiler(tracer))
            stream = benchmark_stream("hop", config)
            GPU(config, EVR,
                scheduler=scheduler).render_stream(stream)
        cls.trace = tracer.export()
        cls.events = cls.trace["traceEvents"]

    def test_trace_is_json_serializable(self):
        json.dumps(self.trace)

    def test_complete_events_are_well_formed(self):
        spans = [e for e in self.events if e.get("ph") == "X"]
        assert spans
        for event in spans:
            assert isinstance(event["name"], str) and event["name"]
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert event["pid"] == 1
            assert isinstance(event["tid"], int)

    def test_every_track_is_named(self):
        named = {
            e["tid"] for e in self.events
            if e.get("ph") == "M" and e["name"] == "thread_name"
        }
        used = {e["tid"] for e in self.events if e.get("ph") == "X"}
        assert used <= named

    def test_spans_properly_nested_per_track(self):
        by_track = {}
        for event in self.events:
            if event.get("ph") == "X":
                by_track.setdefault(event["tid"], []).append(event)
        for spans in by_track.values():
            spans.sort(key=lambda e: (e["ts"], -e["dur"]))
            for i, a in enumerate(spans):
                for b in spans[i + 1:]:
                    assert (_contained(b, a) or _contained(a, b)
                            or _disjoint(a, b)), (
                        f"partial overlap: {a['name']} vs {b['name']}"
                    )

    def test_frame_phase_tile_chain(self):
        frames = [e for e in self.events if e.get("cat") == "frame"]
        phases = [e for e in self.events if e.get("cat") == "phase"]
        tiles = [e for e in self.events if e.get("cat") == "tile"]
        assert len(frames) == 3
        assert {e["name"] for e in phases} == {"geometry", "raster"}
        assert tiles  # serial scheduler: tiles land on the main track
        # Every phase sits inside a frame; every tile inside a raster phase.
        for phase in phases:
            assert any(_contained(phase, frame) for frame in frames)
        rasters = [e for e in phases if e["name"] == "raster"]
        for tile in tiles:
            assert any(_contained(tile, raster) for raster in rasters)

    def test_tile_spans_cover_unskipped_tiles(self):
        tiles = [e for e in self.events if e.get("cat") == "tile"]
        executes = [e for e in self.events
                    if e.get("cat") == "raster" and e["name"] == "execute"]
        assert len(tiles) == sum(e["args"]["tiles"] for e in executes)


class TestGoldenTraceReduce:
    """The ``frame → raster → reduce-replay/reduce-finalize`` chain must
    nest correctly under both kernel backends, with non-negative self
    time everywhere (children never exceed their parent's wall time)."""

    @staticmethod
    def render_events(backend):
        config = GPUConfig.tiny(frames=2)
        tracer = ChromeTracer()
        with tracing(tracer):
            stream = benchmark_stream("hop", config)
            GPU(config, EVR,
                backend=backend).render_stream(stream)
        return tracer.export()["traceEvents"]

    def assert_reduce_chain(self, events):
        spans = [e for e in events if e.get("ph") == "X"]
        frames = [e for e in spans if e.get("cat") == "frame"]
        rasters = [e for e in spans
                   if e.get("cat") == "phase" and e["name"] == "raster"]
        reduces = [e for e in spans
                   if e.get("cat") == "raster" and e["name"] == "reduce"]
        replays = [e for e in spans
                   if e.get("cat") == "raster"
                   and e["name"] == "reduce-replay"]
        finalizes = [e for e in spans
                     if e.get("cat") == "raster"
                     and e["name"] == "reduce-finalize"]
        # One reduce (with both sub-loops) per rendered frame.
        assert len(frames) == 2
        assert len(reduces) == len(replays) == len(finalizes) == 2
        for raster in rasters:
            assert any(_contained(raster, frame) for frame in frames)
        for reduce_span in reduces:
            assert any(_contained(reduce_span, raster)
                       for raster in rasters)
        for child in replays + finalizes:
            assert any(_contained(child, reduce_span)
                       for reduce_span in reduces)
        # Self time: within each reduce, the two sub-loops never sum to
        # more than the parent's wall time (they are disjoint siblings).
        for reduce_span in reduces:
            children = [c for c in replays + finalizes
                        if _contained(c, reduce_span)]
            assert sum(c["dur"] for c in children) <= reduce_span["dur"]

    def test_numpy_backend(self):
        self.assert_reduce_chain(self.render_events("numpy"))

    def test_python_backend(self):
        self.assert_reduce_chain(self.render_events("python"))


class TestFlushOnCrash:
    """Satellite contract: a run that dies mid-way still leaves valid
    observability artifacts on disk."""

    def test_arm_flush_writes_at_exit(self, tmp_path):
        tracer = ChromeTracer()
        with tracer.span("work", category="test"):
            pass
        path = str(tmp_path / "crash.json")
        tracer.arm_flush(path)
        tracer._flush_at_exit()  # what atexit would run
        with open(path) as handle:
            trace = json.load(handle)
        assert any(e.get("name") == "work"
                   for e in trace["traceEvents"])

    def test_flush_at_exit_is_one_shot(self, tmp_path):
        tracer = ChromeTracer()
        path = str(tmp_path / "crash.json")
        tracer.arm_flush(path)
        tracer._flush_at_exit()
        os.remove(path)
        tracer._flush_at_exit()  # armed path consumed: no rewrite
        assert not os.path.exists(path)

    def test_disarm_flush_cancels_backstop(self, tmp_path):
        tracer = ChromeTracer()
        path = str(tmp_path / "crash.json")
        tracer.arm_flush(path)
        tracer.disarm_flush()
        tracer._flush_at_exit()
        assert not os.path.exists(path)

    def test_trace_written_when_command_raises(self, tmp_path,
                                               monkeypatch, capsys):
        # An exception escaping the command still leaves the partial
        # trace on disk as valid JSON (the finally path).
        import repro.cli as cli

        def explode(runner, subset):
            with get_tracer().span("doomed", category="test"):
                raise RuntimeError("mid-run crash")

        monkeypatch.setitem(cli._FIGURES, "fig9", explode)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        path = str(tmp_path / "partial.json")
        with pytest.raises(RuntimeError):
            cli.main(["figure", "fig9", "--trace", path,
                      "--frames", "2", "--width", "64", "--height", "48"])
        with open(path) as handle:
            trace = json.load(handle)
        assert any(e.get("name") == "doomed"
                   for e in trace["traceEvents"])

    def test_faulted_run_leaves_valid_trace_and_event_log(self, tmp_path,
                                                          monkeypatch,
                                                          capsys):
        import repro.cli as cli

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        trace_path = str(tmp_path / "faulted.json")
        events_path = str(tmp_path / "faulted.jsonl")
        assert cli.main(
            ["figure", "fig9", "--benchmarks", "hop",
             "--inject-faults", "raise:1.0", "--retries", "1",
             "--trace", trace_path, "--events", events_path,
             "--frames", "2", "--width", "64", "--height", "48"]
        ) == 0  # graceful degradation
        with open(trace_path) as handle:
            json.load(handle)  # valid JSON despite every cell failing
        from repro.obs.events import read_event_log
        events = read_event_log(events_path)
        assert any(e.kind == "fault-injected" for e in events)
