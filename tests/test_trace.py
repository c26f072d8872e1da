"""Tests for trace capture and replay."""

import io
import json

import numpy as np
import pytest

from repro import CommandError, GPU, GPUConfig
from repro.commands import load_trace, save_trace
from repro.scenes import benchmark_stream
from repro.techniques import EVR


@pytest.fixture
def config():
    return GPUConfig.tiny(frames=3)


@pytest.fixture
def stream(config):
    return benchmark_stream("tib", config)


class TestRoundtrip:
    def test_frame_structure_preserved(self, stream, tmp_path):
        path = str(tmp_path / "trace.json")
        save_trace(stream, path)
        replayed = load_trace(path)
        assert len(replayed) == len(stream)
        for original, loaded in zip(stream, replayed):
            assert loaded.index == original.index
            assert len(loaded.commands) == len(original.commands)
            for cmd_a, cmd_b in zip(original.commands, loaded.commands):
                assert cmd_a.label == cmd_b.label
                assert cmd_a.state == cmd_b.state
                assert cmd_a.triangle_count == cmd_b.triangle_count

    def test_geometry_bit_exact(self, stream, tmp_path):
        path = str(tmp_path / "trace.json")
        save_trace(stream, path)
        replayed = load_trace(path)
        for original, loaded in zip(stream, replayed):
            for cmd_a, cmd_b in zip(original.commands, loaded.commands):
                packs_a = [t.pack() for t in cmd_a.triangles]
                packs_b = [t.pack() for t in cmd_b.triangles]
                assert packs_a == packs_b
                assert cmd_a.model == cmd_b.model

    def test_replay_renders_identical_images(self, config, stream, tmp_path):
        path = str(tmp_path / "trace.json")
        save_trace(stream, path)
        replayed = load_trace(path)
        direct = GPU(config, EVR).render_stream(stream)
        from_trace = GPU(config, EVR).render_stream(replayed)
        for a, b in zip(direct.frames, from_trace.frames):
            assert np.array_equal(a.image, b.image)

    def test_file_object_io(self, stream):
        buffer = io.StringIO()
        save_trace(stream, buffer)
        buffer.seek(0)
        replayed = load_trace(buffer)
        assert len(replayed) == len(stream)


class TestValidation:
    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(CommandError):
            load_trace(str(path))

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "repro-trace", "version": 99,
                                    "frames": []}))
        with pytest.raises(CommandError):
            load_trace(str(path))

    def test_rejects_empty_trace(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"format": "repro-trace", "version": 1,
                                    "frames": []}))
        with pytest.raises(CommandError):
            load_trace(str(path))
