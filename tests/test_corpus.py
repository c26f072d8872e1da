"""Tests for the adversarial workload corpus and its differential gate.

Covers the four layers end to end: the seeded stress families
(determinism, renderability), the on-disk corpus store (round-trip,
integrity), the delta-debugging shrinker, and the differential replay
gate — including the flagship property: an injected pixel fault is
detected, minimized, quarantined, and the quarantined trace reproduces
the violation standalone.
"""

import io
import json
import os

import pytest

from repro import GPUConfig
from repro.cli import main
from repro.commands import Frame, FrameStream
from repro.commands.draw import DrawCommand
from repro.commands.state import RenderState
from repro.commands.trace import load_trace, save_trace
from repro.corpus import (
    FAMILIES,
    build_corpus,
    family_names,
    family_stream,
    get_family,
    load_corpus,
    make_pixel_corruptor,
    read_manifest,
    replay_families,
    shrink_stream,
    trace_filename,
)
from repro.errors import CorpusError
from repro.geom import quad
from repro.math3d import Vec3, Vec4, orthographic
from repro.resilience import FaultPlan
from repro.validate import validate_stream

CONFIG = GPUConfig.tiny(frames=3)
BACKENDS = ("python", "numpy")


def encode(stream: FrameStream) -> str:
    buffer = io.StringIO()
    save_trace(stream, buffer)
    return buffer.getvalue()


class TestFamilies:
    def test_registry_names_sorted_and_complete(self):
        names = family_names()
        assert names == tuple(sorted(FAMILIES))
        assert "degenerate" in names and "hidden-motion" in names
        assert len(names) >= 7

    def test_unknown_family_raises(self):
        with pytest.raises(CorpusError, match="unknown stress family"):
            get_family("doom")
        with pytest.raises(CorpusError):
            family_stream("doom", CONFIG)

    @pytest.mark.parametrize("name", family_names())
    def test_streams_deterministic_and_nontrivial(self, name):
        first = family_stream(name, CONFIG)
        second = family_stream(name, CONFIG)
        assert encode(first) == encode(second)
        frames = list(first)
        assert len(frames) == CONFIG.frames
        assert all(frame.triangle_count > 0 for frame in frames)

    def test_seed_changes_the_stream(self):
        base = family_stream("sliver", CONFIG, seed=1)
        other = family_stream("sliver", CONFIG, seed=2)
        assert encode(base) != encode(other)


class TestStore:
    def test_build_and_load_round_trip(self, tmp_path):
        directory = str(tmp_path / "corpus")
        names = ["degenerate", "sliver"]
        manifest = build_corpus(directory, CONFIG, names=names)
        assert sorted(manifest["families"]) == sorted(names)
        streams, loaded = load_corpus(directory)
        assert sorted(streams) == sorted(names)
        for name in names:
            assert encode(streams[name]) == encode(
                family_stream(name, CONFIG))
            record = loaded["families"][name]
            assert record["seed"] == get_family(name).default_seed
            assert record["frames"] == CONFIG.frames

    def test_tampered_trace_rejected(self, tmp_path):
        directory = str(tmp_path / "corpus")
        build_corpus(directory, CONFIG, names=["sliver"])
        path = os.path.join(directory, trace_filename("sliver"))
        with open(path, "a") as handle:
            handle.write(" ")
        with pytest.raises(CorpusError, match="does not match"):
            load_corpus(directory)

    def test_missing_manifest_and_bad_version(self, tmp_path):
        with pytest.raises(CorpusError, match="no corpus manifest"):
            read_manifest(str(tmp_path))
        directory = str(tmp_path / "corpus")
        build_corpus(directory, CONFIG, names=["sliver"])
        manifest_path = os.path.join(directory, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["version"] = 999
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(CorpusError, match="unsupported corpus version"):
            read_manifest(directory)

    def test_unknown_family_requested(self, tmp_path):
        directory = str(tmp_path / "corpus")
        build_corpus(directory, CONFIG, names=["sliver"])
        with pytest.raises(CorpusError, match="no family"):
            load_corpus(directory, names=["degenerate"])


def synthetic_stream(num_frames=4, draws_per_frame=4):
    """Frames of labeled quads; command position 2 is labeled "bad"."""
    projection = orthographic(0, 32, 24, 0, -1.0, 1.0)

    def build(index):
        commands = []
        for position in range(draws_per_frame):
            mesh = quad(Vec3(2.0 * position, 2.0, 0.0),
                        Vec3(4, 0, 0), Vec3(0, 4, 0),
                        Vec4(0.5, 0.5, 0.5, 1.0))
            commands.append(DrawCommand.from_mesh(
                mesh, state=RenderState.sprite_2d(),
                label="bad" if position == 2 else f"ok{position}"))
        return Frame(commands, projection=projection, index=index)

    return FrameStream(build, num_frames)


class TestShrinker:
    def test_minimizes_to_single_frame_and_draw(self):
        stream = synthetic_stream()

        def still_fails(candidate):
            frames = list(candidate)
            return bool(frames) and any(
                command.label == "bad" for command in frames[0].commands)

        outcome = shrink_stream(stream, still_fails)
        assert outcome.minimal and outcome.reduced
        assert outcome.frames == 1
        assert outcome.draws == 1
        assert list(outcome.stream)[0].commands[0].label == "bad"
        assert outcome.original_frames == 4
        assert outcome.original_draws == 16

    def test_respects_eval_budget(self):
        stream = synthetic_stream(num_frames=6, draws_per_frame=6)
        evals = []

        def still_fails(candidate):
            evals.append(1)
            return True

        outcome = shrink_stream(stream, still_fails, max_evals=5)
        assert outcome.evals <= 5
        assert len(evals) <= 5

    def test_non_reproducing_failure_falls_back_to_original(self):
        stream = synthetic_stream()
        calls = {"n": 0}

        def flaky(candidate):
            calls["n"] += 1
            return calls["n"] == 1  # fails once, then never again

        outcome = shrink_stream(stream, flaky)
        assert not outcome.minimal
        assert encode(outcome.stream) == encode(stream)


class TestPixelCorruptor:
    def test_none_without_pixel_rate(self):
        assert make_pixel_corruptor(None, "fam") is None
        plan = FaultPlan({"crash": 1.0})
        assert make_pixel_corruptor(plan, "fam") is None

    def test_corruptor_changes_exactly_one_pixel(self):
        from repro.pipeline import GPU
        from repro.techniques import BASELINE
        plan = FaultPlan({"pixel": 1.0}, seed=9)
        corruptor = make_pixel_corruptor(plan, "fam")
        stream = family_stream("sliver", CONFIG)
        result = GPU(CONFIG, BASELINE).render_stream(stream)
        mangled = corruptor("baseline", "python", result)
        diff = (mangled.frames[0].image != result.frames[0].image)
        assert diff.sum() == 1
        # Later frames are untouched.
        import numpy as np
        for expected, actual in zip(result.frames[1:], mangled.frames[1:]):
            np.testing.assert_array_equal(expected.image, actual.image)


class TestGate:
    def test_clean_families_pass_differentially(self):
        streams = {name: family_stream(name, CONFIG)
                   for name in ("degenerate", "sliver")}
        results = replay_families(streams, CONFIG, backends=BACKENDS)
        assert [result.family for result in results] == list(streams)
        for result in results:
            assert result.passed, result.report.render()
            labels = " ".join(result.report.checks)
            assert "[python]" in labels and "[numpy]" in labels

    def test_injected_fault_detected_shrunk_quarantined(self, tmp_path):
        quarantine = str(tmp_path / "quarantine")
        plan = FaultPlan({"pixel": 1.0}, seed=5)
        streams = {"degenerate": family_stream("degenerate", CONFIG)}
        results = replay_families(
            streams, CONFIG, backends=BACKENDS, fault_plan=plan,
            quarantine_dir=quarantine)
        (result,) = results
        assert not result.passed
        assert result.shrunk is not None and result.shrunk.reduced
        assert result.shrunk.frames == 1
        assert os.path.exists(result.trace_path)
        assert os.path.exists(result.report_path)
        with open(result.report_path) as handle:
            document = json.load(handle)
        assert document["report"] == "corpus-violation"
        assert document["family"] == "degenerate"
        assert document["fault_plan"] == "pixel:1"
        assert document["fault_seed"] == 5
        assert document["backends"] == list(BACKENDS)
        assert document["failures"]
        assert document["shrink"]["minimal"]
        assert "repro trace replay" in document["replay_hint"]
        assert "--backends python numpy" in document["replay_hint"]

        # The flagship property: the minimized quarantined trace
        # reproduces the violation standalone.
        minimized = load_trace(result.trace_path)
        assert len(minimized) == result.shrunk.frames
        corruptor = make_pixel_corruptor(plan, "degenerate")
        report = validate_stream(minimized, CONFIG, backends=BACKENDS,
                                 corruptor=corruptor)
        assert not report.passed
        # Without the fault the minimized trace is clean: the violation
        # is the injection, not the shrink.
        clean = validate_stream(minimized, CONFIG, backends=BACKENDS)
        assert clean.passed, clean.render()

    def test_strict_stops_at_first_violation(self):
        plan = FaultPlan({"pixel": 1.0}, seed=5)
        streams = {name: family_stream(name, CONFIG)
                   for name in ("degenerate", "sliver")}
        results = replay_families(streams, CONFIG, fault_plan=plan,
                                  strict=True)
        assert len(results) == 1
        assert not results[0].passed

    def test_no_shrink_quarantines_full_stream(self, tmp_path):
        quarantine = str(tmp_path / "quarantine")
        plan = FaultPlan({"pixel": 1.0}, seed=5)
        streams = {"sliver": family_stream("sliver", CONFIG)}
        (result,) = replay_families(
            streams, CONFIG, fault_plan=plan,
            quarantine_dir=quarantine, shrink=False)
        assert result.shrunk is None
        assert len(load_trace(result.trace_path)) == CONFIG.frames


class TestCorpusCLI:
    ARGS = ["--frames", "3", "--width", "64", "--height", "48"]

    def test_build_list_replay_round_trip(self, tmp_path, capsys):
        directory = str(tmp_path / "tiny")
        assert main(["corpus", "build", "--dir", directory,
                     "--families", "degenerate", "sliver"]
                    + self.ARGS) == 0
        assert "built 2 families" in capsys.readouterr().out
        assert main(["corpus", "list", "--dir", directory]) == 0
        out = capsys.readouterr().out
        assert "degenerate" in out and "sliver" in out
        assert main(["corpus", "replay", "--dir", directory,
                     "--quarantine", str(tmp_path / "q")]) == 0
        assert "all 2 families passed" in capsys.readouterr().out

    def test_list_registry_without_dir(self, capsys):
        assert main(["corpus", "list"]) == 0
        assert "registered stress families" in capsys.readouterr().out

    def test_replay_detects_injected_fault(self, tmp_path, capsys):
        directory = str(tmp_path / "tiny")
        quarantine = str(tmp_path / "q")
        assert main(["corpus", "build", "--dir", directory,
                     "--families", "degenerate"] + self.ARGS) == 0
        capsys.readouterr()
        assert main(["corpus", "replay", "--dir", directory,
                     "--quarantine", quarantine,
                     "--inject-faults", "pixel:1.0",
                     "--fault-seed", "7"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out
        assert os.path.exists(
            os.path.join(quarantine, "degenerate.trace.json"))
        assert os.path.exists(
            os.path.join(quarantine, "degenerate.violation.json"))

    def test_replay_in_memory_without_dir(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["corpus", "replay", "--families", "sliver",
                     "--backends", "python"] + self.ARGS) == 0
        assert "all 1 families passed" in capsys.readouterr().out

    def test_replay_missing_dir_is_usage_error(self, tmp_path, capsys):
        assert main(["corpus", "replay",
                     "--dir", str(tmp_path / "nope")]) == 2
        assert "no corpus manifest" in capsys.readouterr().err


class TestTraceCLI:
    ARGS = ["--frames", "3", "--width", "64", "--height", "48"]

    def test_record_replay_benchmark(self, tmp_path, capsys):
        path = str(tmp_path / "cde.trace.json")
        assert main(["trace", "record", "cde", "--output", path]
                    + self.ARGS) == 0
        assert "round-trip bit-identical" in capsys.readouterr().out
        assert main(["trace", "replay", path] + self.ARGS) == 0
        assert "checks passed" in capsys.readouterr().out

    def test_record_stress_family(self, tmp_path, capsys):
        path = str(tmp_path / "sliver.trace.json")
        assert main(["trace", "record", "sliver", "--output", path]
                    + self.ARGS) == 0
        stream = load_trace(path)
        assert encode(stream) == encode(
            family_stream("sliver", CONFIG))

    def test_record_unknown_target_is_usage_error(self, capsys):
        assert main(["trace", "record", "doom"]) == 2
        assert "unknown trace source" in capsys.readouterr().err

    def test_replay_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["trace", "replay",
                     str(tmp_path / "nope.json")]) == 2
        assert "no trace file" in capsys.readouterr().err

    def test_replay_reproduces_quarantined_violation(self, tmp_path,
                                                     capsys):
        # End-to-end: gate quarantines a minimized repro; `repro trace
        # replay` with the report's fault spec reproduces it.
        quarantine = str(tmp_path / "q")
        plan = FaultPlan({"pixel": 1.0}, seed=11)
        streams = {"sliver": family_stream("sliver", CONFIG)}
        (result,) = replay_families(streams, CONFIG,
                                    backends=("python",),
                                    fault_plan=plan,
                                    quarantine_dir=quarantine)
        assert not result.passed
        capsys.readouterr()
        assert main(["trace", "replay", result.trace_path,
                     "--backends", "python",
                     "--inject-faults", "pixel:1.0",
                     "--fault-seed", "11"] + self.ARGS) == 1
        assert "[FAIL]" in capsys.readouterr().out
