"""On-disk run cache under ``.repro_cache/``.

Figure and ablation scripts share many underlying (benchmark, mode) runs
— Figures 6, 7, 10 and 11 all need the BASELINE/RE/EVR suite — but until
now the memo lived only inside one :class:`SuiteRunner` instance, so every
*invocation* re-rendered everything.  :class:`DiskCache` persists the
distilled metrics, keyed by a digest of everything that can change them:
benchmark, mode, configuration, frame count and the simulator's own source
code (so a code change can never serve stale numbers).

Entries are self-verifying: the pickle payload is followed by a
CRC32 + length + magic trailer (see :func:`_encode_entry`), so ``get``
can distinguish a healthy entry from a truncated write, flipped bits or
a foreign/pre-trailer file.  The cache stays deliberately forgiving — a
bad entry is treated as a miss and recomputed, never an error — but a
bad entry is no longer silently unlinked: it is moved into a
``quarantine/`` subdirectory for post-mortem and a warning naming the
key is logged through :mod:`repro.obs.log`.

The cache is also a suite sweep's checkpoint: re-running a killed
sweep's command recomputes only the cells it does not hold.  ``put``
therefore fsyncs each entry before renaming it into place, so an entry
that is visible after a crash holds all of its bytes.

Cache traffic is observable: ``get``/``put`` increment the
``cache.hits`` / ``cache.misses`` / ``cache.evictions`` / ``cache.puts``
/ ``cache.quarantined`` counters in the process-wide metrics registry
and emit spans into the process-wide tracer (no-ops unless
``--trace``/``--metrics`` enabled them).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile
import zlib
from typing import Any, Optional, Tuple

from ..errors import CacheCorruptionError
from ..obs.log import get_logger
from ..obs.metrics import global_registry
from ..obs.trace import get_tracer

logger = get_logger("engine.diskcache")

_ENV_CACHE_DIR = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIRNAME = ".repro_cache"
QUARANTINE_DIRNAME = "quarantine"

#: Newest quarantined files kept by default.  Quarantine exists for
#: post-mortem, not as an archive: corrupt cache entries and corpus
#: violation repros are only interesting while someone might still look
#: at them, and before this cap the directory grew without bound.
DEFAULT_QUARANTINE_KEEP = 64

#: Entry trailer: CRC32 and byte length of the pickle payload, then a
#: magic tag naming the on-disk format version.  Bumping the magic
#: quarantines (rather than misreads) every older entry.
_TRAILER = struct.Struct("<IQ")
_MAGIC = b"RPROCAC1"
_TRAILER_BYTES = _TRAILER.size + len(_MAGIC)

_code_version_digest: Optional[str] = None


def default_cache_dir() -> str:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``./.repro_cache``."""
    return os.environ.get(_ENV_CACHE_DIR) or DEFAULT_CACHE_DIRNAME


#: Cache-key schema version.  Bumped when the key derivation changes so
#: stale entries from an older derivation can never alias new ones.
#: ``runspec-v1``: keys derive from ``RunSpec.spec_hash()`` (the
#: canonical hash of the result-affecting spec sections) instead of the
#: older hand-rolled ``repr`` tuple.
KEY_SCHEMA = "runspec-v1"


def run_cache_key(spec, benchmark: str, mode: str,
                  code: Optional[str] = None) -> str:
    """The disk-cache key for one (spec, benchmark, mode) cell.

    ``spec`` is duck-typed (anything with a ``spec_hash()``) so this
    module stays importable without :mod:`repro.spec`.  Scheduler,
    resilience and observability settings are excluded by the spec hash
    itself — they never change a result, so they must never split the
    cache.  ``code`` defaults to the current :func:`code_version`.
    """
    return DiskCache.make_key(
        KEY_SCHEMA, spec.spec_hash(), benchmark, mode,
        code if code is not None else code_version(),
    )


def code_version() -> str:
    """Digest of the ``repro`` package's source files.

    Any edit to the simulator invalidates every cached run — the coarse
    but safe notion of "code version" for a research codebase.  Computed
    once per process (~150 small files, milliseconds).
    """
    global _code_version_digest
    if _code_version_digest is None:
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(package_root)):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, package_root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _code_version_digest = digest.hexdigest()
    return _code_version_digest


def _encode_entry(payload: bytes) -> bytes:
    """Frame a pickle payload with its integrity trailer."""
    return payload + _TRAILER.pack(
        zlib.crc32(payload) & 0xFFFFFFFF, len(payload)
    ) + _MAGIC


def _decode_entry(blob: bytes) -> bytes:
    """The verified pickle payload of ``blob``.

    Raises:
        CacheCorruptionError: missing/foreign trailer, truncated
            payload, or checksum mismatch.
    """
    if len(blob) < _TRAILER_BYTES or not blob.endswith(_MAGIC):
        raise CacheCorruptionError(
            "missing integrity trailer (foreign or pre-trailer entry)"
        )
    payload = blob[:-_TRAILER_BYTES]
    crc, length = _TRAILER.unpack(blob[-_TRAILER_BYTES:-len(_MAGIC)])
    if len(payload) != length:
        raise CacheCorruptionError(
            f"truncated payload ({len(payload)} bytes, expected {length})"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CacheCorruptionError("payload checksum mismatch")
    return payload


class DiskCache:
    """A tiny content-addressed pickle store with verified entries.

    Entries are written atomically (temp file + rename) so a crashed or
    parallel writer can only ever leave a complete entry or none; reads
    verify the integrity trailer before unpickling.
    """

    def __init__(self, directory: str):
        self.directory = directory

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def make_key(*parts: object) -> str:
        """Digest arbitrary (repr-stable) parts into a cache key."""
        digest = hashlib.sha256()
        for part in parts:
            digest.update(repr(part).encode())
            digest.update(b"\x00")
        return digest.hexdigest()

    def path_for(self, key: str) -> str:
        """Filesystem path of ``key``'s entry (present or not)."""
        return os.path.join(self.directory, f"{key}.pkl")

    def quarantine_dir(self) -> str:
        """Where unreadable entries are moved for post-mortem."""
        return os.path.join(self.directory, QUARANTINE_DIRNAME)

    # -- operations ---------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """The stored value, or None on miss *or* unreadable entry."""
        path = self.path_for(key)
        counters = global_registry()
        with get_tracer().span("cache.get", category="cache", key=key[:12]):
            try:
                with open(path, "rb") as handle:
                    blob = handle.read()
            except FileNotFoundError:
                counters.counter("cache.misses").inc()
                return None
            except OSError as error:
                counters.counter("cache.misses").inc()
                logger.warning("cache entry %s unreadable: %r", key[:12],
                               error)
                return None
            try:
                value = pickle.loads(_decode_entry(blob))
            except CacheCorruptionError as error:
                self._quarantine(key, path, str(error))
                counters.counter("cache.misses").inc()
                return None
            except Exception as error:
                # The trailer verified but the pickle itself would not
                # load (e.g. written by an incompatible class layout).
                self._quarantine(key, path, f"unpicklable payload: {error!r}")
                counters.counter("cache.misses").inc()
                return None
            counters.counter("cache.hits").inc()
            return value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` atomically and durably."""
        os.makedirs(self.directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp_", suffix=".pkl"
        )
        with get_tracer().span("cache.put", category="cache", key=key[:12]):
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(_encode_entry(
                        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
                    ))
                    # On disk before visible (see the module docstring).
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_path, self.path_for(key))
            except BaseException:
                try:
                    os.remove(tmp_path)
                except OSError:
                    pass
                raise
        global_registry().counter("cache.puts").inc()

    def _quarantine(self, key: str, path: str, reason: str) -> None:
        """Move a bad entry aside (never silently unlink it)."""
        registry = global_registry()
        registry.counter("cache.evictions").inc()
        quarantine = self.quarantine_dir()
        destination = os.path.join(quarantine, os.path.basename(path))
        try:
            os.makedirs(quarantine, exist_ok=True)
            os.replace(path, destination)
        except OSError:
            # Quarantine itself failed (permissions, cross-device...):
            # fall back to unlinking so the bad entry cannot wedge us.
            destination = "<removed>"
            try:
                os.remove(path)
            except OSError:
                pass
        registry.counter("cache.quarantined").inc()
        get_tracer().instant("cache.quarantine", category="cache",
                             key=key[:12], reason=reason)
        logger.warning("cache entry %s corrupt (%s); quarantined to %s",
                       key[:12], reason, destination)
        # Keep quarantine bounded: every new arrival re-applies the cap
        # so a pathological run cannot fill the disk with post-mortems.
        self.gc_quarantine()

    def gc_quarantine(self, keep: int = DEFAULT_QUARANTINE_KEEP) -> Tuple[int, int]:
        """Prune ``quarantine/`` down to the ``keep`` newest files.

        Walks the whole quarantine tree — corrupt ``.pkl`` entries at
        the top level *and* the corpus gate's minimized traces and
        violation reports under ``quarantine/corpus/`` — and removes
        the oldest files beyond the cap (newest by mtime survive, path
        breaks ties so the order is stable).  Emptied subdirectories
        are removed too.

        Returns:
            ``(kept, removed)`` file counts.
        """
        if keep < 0:
            raise ValueError("keep must be >= 0")
        quarantine = self.quarantine_dir()
        files = []
        for dirpath, _dirnames, filenames in os.walk(quarantine):
            for name in filenames:
                path = os.path.join(dirpath, name)
                try:
                    mtime = os.path.getmtime(path)
                except OSError:
                    continue
                files.append((mtime, path))
        files.sort(reverse=True)  # newest first; path breaks mtime ties
        removed = 0
        for _mtime, path in files[keep:]:
            try:
                os.remove(path)
                removed += 1
            except OSError:
                pass
        if removed:
            # Drop directories the prune emptied (bottom-up).
            for dirpath, dirnames, filenames in os.walk(quarantine,
                                                        topdown=False):
                if dirpath != quarantine and not dirnames and not filenames:
                    try:
                        os.rmdir(dirpath)
                    except OSError:
                        pass
            global_registry().counter("cache.gc_removed").inc(removed)
            logger.info("quarantine gc: kept %d, removed %d",
                        len(files) - removed, removed)
        return len(files) - removed, removed

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed.

        Quarantined entries are kept — they exist for post-mortem and
        are only removed by deleting ``quarantine/`` explicitly.
        """
        removed = 0
        try:
            entries = os.listdir(self.directory)
        except FileNotFoundError:
            return 0
        for name in entries:
            if name.endswith(".pkl"):
                try:
                    os.remove(os.path.join(self.directory, name))
                    removed += 1
                except OSError:
                    pass
        return removed

    def size(self) -> int:
        """Number of stored entries."""
        try:
            return sum(
                1 for name in os.listdir(self.directory)
                if name.endswith(".pkl") and not name.startswith(".tmp_")
            )
        except FileNotFoundError:
            return 0

    def quarantined(self) -> int:
        """Number of quarantined (corrupt) entries awaiting post-mortem."""
        try:
            return sum(
                1 for name in os.listdir(self.quarantine_dir())
                if name.endswith(".pkl")
            )
        except FileNotFoundError:
            return 0
