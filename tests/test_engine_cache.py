"""Tests for the persistent run cache (``repro.engine.diskcache``)."""

from __future__ import annotations

import os

import pytest

from repro.cli import main
from repro.config import GPUConfig
from repro.engine import DiskCache, default_cache_dir
from repro.engine.diskcache import code_version
from repro.harness.runner import RunMetrics, SuiteRunner
from repro.obs.metrics import global_registry
from repro.spec import RunSpec
from repro.techniques import BASELINE, EVR

CONFIG = GPUConfig.tiny(frames=2)
SPEC = RunSpec.from_config(CONFIG)


class TestDiskCache:
    def test_roundtrip(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = DiskCache.make_key("ata", "evr", CONFIG, 2)
        assert cache.get(key) is None
        cache.put(key, {"value": 42})
        assert cache.get(key) == {"value": 42}
        assert cache.size() == 1

    def test_key_sensitivity(self):
        base = DiskCache.make_key("ata", "evr", CONFIG, 2)
        assert DiskCache.make_key("ata", "re", CONFIG, 2) != base
        assert DiskCache.make_key("hop", "evr", CONFIG, 2) != base
        other_config = GPUConfig.tiny(frames=2).scaled(screen_width=128)
        assert DiskCache.make_key("ata", "evr", other_config, 2) != base
        assert DiskCache.make_key("ata", "evr", CONFIG, 3) != base
        # Deterministic for equal inputs.
        assert DiskCache.make_key("ata", "evr", CONFIG, 2) == base

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = cache.make_key("anything")
        cache.put(key, [1, 2, 3])
        path = cache.path_for(key)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])  # truncate mid-pickle
        assert cache.get(key) is None
        assert not os.path.exists(path)  # corrupt entry evicted
        cache.put(key, [1, 2, 3])  # recompute path stays usable
        assert cache.get(key) == [1, 2, 3]

    def test_clear(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        for index in range(3):
            cache.put(cache.make_key(index), index)
        assert cache.clear() == 3
        assert cache.size() == 0

    def test_code_version_stable(self):
        assert code_version() == code_version()
        assert len(code_version()) == 64  # sha256 hex

    def test_default_cache_dir_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir() == ".repro_cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/elsewhere")
        assert default_cache_dir() == "/tmp/elsewhere"


class TestSuiteRunnerDiskCache:
    def test_second_runner_hits_disk(self, tmp_path):
        with SuiteRunner(SPEC, cache_dir=str(tmp_path)) as runner:
            first = runner.run("ata", EVR)
            assert (runner.cache_hits, runner.cache_misses) == (0, 1)
        # A fresh runner (fresh in-memory memo) must load from disk.
        with SuiteRunner(SPEC, cache_dir=str(tmp_path)) as runner:
            second = runner.run("ata", EVR)
            assert isinstance(second, RunMetrics)
            assert second == first
            assert (runner.cache_hits, runner.cache_misses) == (1, 0)
            assert "1 hits, 0 misses" in runner.cache_summary()

    def test_config_change_misses(self, tmp_path):
        with SuiteRunner(SPEC, cache_dir=str(tmp_path)) as runner:
            runner.run("ata", EVR)
        other = GPUConfig.tiny(frames=3)
        with SuiteRunner(RunSpec.from_config(other), cache_dir=str(tmp_path)) as runner:
            runner.run("ata", EVR)
            assert (runner.cache_hits, runner.cache_misses) == (0, 1)

    def test_no_cache_dir_disables_disk(self):
        with SuiteRunner(SPEC) as runner:
            runner.run("ata", BASELINE)
            assert runner.cache_summary() == "run cache: disabled"


class TestCacheCLI:
    def test_info_and_clear(self, tmp_path, capsys):
        cache = DiskCache(str(tmp_path))
        cache.put(cache.make_key("x"), 1)
        assert main(["cache", "info", "--dir", str(tmp_path)]) == 0
        assert "cached runs: 1" in capsys.readouterr().out
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert "removed 1 cached runs" in capsys.readouterr().out
        assert cache.size() == 0

    def test_clear_empty_directory(self, tmp_path, capsys):
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert "removed 0 cached runs" in capsys.readouterr().out


class TestCacheIntegrityAndQuarantine:
    """Satellite hardening: entries carry a checksum trailer and bad
    ones are quarantined for post-mortem, never silently unlinked."""

    def _corrupt(self, cache, mutate):
        key = cache.make_key("victim")
        cache.put(key, {"value": 1})
        path = cache.path_for(key)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(mutate(blob))
        return key, path

    def test_truncated_entry_quarantined(self, tmp_path):
        import io
        from repro.obs.log import setup_logging
        global_registry().reset()
        cache = DiskCache(str(tmp_path))
        key, path = self._corrupt(cache, lambda blob: blob[:len(blob) // 2])
        stream = io.StringIO()
        setup_logging(stream=stream)  # route repro.* warnings to us
        try:
            assert cache.get(key) is None
        finally:
            setup_logging()
        assert not os.path.exists(path)
        assert cache.quarantined() == 1
        assert os.path.exists(
            os.path.join(cache.quarantine_dir(), os.path.basename(path))
        )
        assert global_registry().counter("cache.quarantined").value == 1
        # The warning names the (truncated) key and the quarantine move.
        logged = stream.getvalue()
        assert key[:12] in logged and "quarantined" in logged

    def test_bitflip_fails_checksum_and_quarantines(self, tmp_path):
        cache = DiskCache(str(tmp_path))

        def flip(blob):
            middle = len(blob) // 3
            return blob[:middle] + bytes([blob[middle] ^ 0xFF]) \
                + blob[middle + 1:]

        key, path = self._corrupt(cache, flip)
        assert cache.get(key) is None
        assert cache.quarantined() == 1

    def test_foreign_file_without_trailer_quarantined(self, tmp_path):
        import pickle
        cache = DiskCache(str(tmp_path))
        key = cache.make_key("legacy")
        os.makedirs(cache.directory, exist_ok=True)
        with open(cache.path_for(key), "wb") as handle:
            handle.write(pickle.dumps({"pre-trailer": True}))
        assert cache.get(key) is None  # never misread as healthy
        assert cache.quarantined() == 1

    def test_unpicklable_payload_with_valid_trailer(self, tmp_path):
        from repro.engine.diskcache import _encode_entry
        cache = DiskCache(str(tmp_path))
        key = cache.make_key("garbage")
        os.makedirs(cache.directory, exist_ok=True)
        with open(cache.path_for(key), "wb") as handle:
            handle.write(_encode_entry(b"not a pickle"))
        assert cache.get(key) is None
        assert cache.quarantined() == 1

    def test_recompute_after_quarantine(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key, _ = self._corrupt(cache, lambda blob: blob[:10])
        assert cache.get(key) is None
        cache.put(key, {"value": 2})  # the key's path stays usable
        assert cache.get(key) == {"value": 2}
        assert cache.quarantined() == 1

    def test_clear_keeps_quarantine(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key, _ = self._corrupt(cache, lambda blob: blob[:10])
        cache.put(cache.make_key("healthy"), 3)
        assert cache.get(key) is None
        assert cache.clear() == 1  # only the healthy entry
        assert cache.quarantined() == 1

    def test_decode_entry_error_messages(self):
        from repro.engine.diskcache import _decode_entry, _encode_entry
        from repro.errors import CacheCorruptionError
        good = _encode_entry(b"payload")
        assert _decode_entry(good) == b"payload"
        with pytest.raises(CacheCorruptionError, match="trailer"):
            _decode_entry(b"too short")
        with pytest.raises(CacheCorruptionError, match="truncated"):
            _decode_entry(good[:1] + good[8:])  # drop payload bytes
        with pytest.raises(CacheCorruptionError, match="checksum"):
            _decode_entry(b"Xayload" + good[7:])


class TestQuarantineGC:
    """The quarantine directory is a bounded post-mortem area, not an
    archive: ``gc_quarantine`` keeps only the newest files, including
    the corpus gate's repros under ``quarantine/corpus/``."""

    def _seed_quarantine(self, cache, count, subdir=""):
        directory = cache.quarantine_dir()
        if subdir:
            directory = os.path.join(directory, subdir)
        os.makedirs(directory, exist_ok=True)
        paths = []
        for index in range(count):
            path = os.path.join(directory, f"q{index:03d}.pkl")
            with open(path, "w") as handle:
                handle.write("x")
            # Explicit, strictly increasing mtimes: higher index = newer.
            os.utime(path, (1_000_000 + index, 1_000_000 + index))
            paths.append(path)
        return paths

    def test_keeps_newest(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        paths = self._seed_quarantine(cache, 5)
        kept, removed = cache.gc_quarantine(keep=2)
        assert (kept, removed) == (2, 3)
        survivors = sorted(os.listdir(cache.quarantine_dir()))
        assert survivors == [os.path.basename(p) for p in paths[-2:]]

    def test_walks_corpus_subdirectory_and_prunes_empty(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        old = self._seed_quarantine(cache, 3, subdir="corpus")
        new = self._seed_quarantine(cache, 2)
        for index, path in enumerate(new):  # make top-level files newest
            os.utime(path, (2_000_000 + index, 2_000_000 + index))
        kept, removed = cache.gc_quarantine(keep=2)
        assert (kept, removed) == (2, 3)
        assert all(not os.path.exists(path) for path in old)
        # The emptied corpus/ subdirectory is removed too.
        assert not os.path.exists(
            os.path.join(cache.quarantine_dir(), "corpus"))

    def test_keep_zero_and_negative(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        self._seed_quarantine(cache, 3)
        with pytest.raises(ValueError):
            cache.gc_quarantine(keep=-1)
        kept, removed = cache.gc_quarantine(keep=0)
        assert (kept, removed) == (0, 3)

    def test_missing_quarantine_is_a_noop(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        assert cache.gc_quarantine() == (0, 0)

    def test_new_arrival_reapplies_cap(self, tmp_path):
        from repro.engine.diskcache import DEFAULT_QUARANTINE_KEEP
        cache = DiskCache(str(tmp_path))
        self._seed_quarantine(cache, DEFAULT_QUARANTINE_KEEP + 6)
        # Corrupt a real entry; quarantining it must re-apply the cap.
        key = cache.make_key("victim")
        cache.put(key, {"value": 1})
        path = cache.path_for(key)
        with open(path, "r+b") as handle:
            handle.truncate(4)
        assert cache.get(key) is None
        assert cache.quarantined() <= DEFAULT_QUARANTINE_KEEP

    def test_cli_gc(self, tmp_path, capsys):
        cache = DiskCache(str(tmp_path))
        self._seed_quarantine(cache, 4)
        assert main(["cache", "gc", "--dir", str(tmp_path),
                     "--keep", "1"]) == 0
        out = capsys.readouterr().out
        assert "kept 1, removed 3" in out
        assert cache.quarantined() == 1
