"""The persistent run ledger: every invocation leaves a durable record.

``.repro_cache/`` remembers *results* (keyed by spec hash, so a repeated
run is free); this module remembers *history*.  Every ``repro
run/figure/bench`` invocation appends one JSONL entry per simulated cell
(or bench record) to ``.repro_ledger/ledger.jsonl``, keyed by
``(spec_hash, benchmark, mode, code_version, git_sha, machine)`` and
carrying the distilled metrics, phase timings and bench speedup ratios.
The ledger is what makes trajectories first-class:

* ``repro ledger list|show|diff|gc`` inspect and prune it;
* ``repro ledger check`` is the drift gate — it exits non-zero when the
  newest entry's EVR effectiveness rates or bench speedup ratios drift
  more than a tolerance away from the ledger median for the same key
  (subsuming the hand-rolled ``check_bench_regression`` JSON-file path:
  the ledger *is* the baseline, and it deepens with every run);
* ``repro dashboard`` (:mod:`repro.obs.dashboard`) renders it.

The file is append-only (``gc`` is the only rewriter) and entries are
self-describing (``v``/``kind``), so old ledgers survive schema growth
the same way event logs do: unknown fields are carried along, unknown
kinds are skipped.

The directory resolves, in order: an explicit argument (the
``obs.ledger`` spec knob / ``--ledger``), the ``REPRO_LEDGER_DIR``
environment variable, then ``.repro_ledger/`` under the current
directory.  ``off`` (or ``none``) disables recording entirely.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import subprocess
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .events import Event, PhaseCompleted, RunStarted
from .log import get_logger

logger = get_logger("obs.ledger")

LEDGER_VERSION = 1
DEFAULT_LEDGER_DIR = ".repro_ledger"
ENV_LEDGER_DIR = "REPRO_LEDGER_DIR"
LEDGER_FILENAME = "ledger.jsonl"

#: ``--ledger off`` / ``obs.ledger = "off"`` values that disable it.
DISABLED_VALUES = ("off", "none", "disabled")

#: Absolute drift tolerance for effectiveness rates (redundant-tile /
#: predicted-occluded fractions live in [0, 1]).
DEFAULT_RATE_TOLERANCE = 0.05
#: Relative drift tolerance for bench speedup ratios (matches the
#: historical ``check_bench_regression`` gate).
DEFAULT_RATIO_TOLERANCE = 0.2

#: RunMetrics fields checked for drift (absolute, rate-valued).
RATE_METRICS = ("redundant_tile_rate", "predicted_occluded_rate")

_git_sha: Optional[str] = None


def git_sha() -> str:
    """The current commit sha, or ``""`` outside a git checkout (cached
    per process — the ledger stamps many entries per invocation)."""
    global _git_sha
    if _git_sha is None:
        try:
            _git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except Exception:  # noqa: BLE001 - no git / not a repo / timeout
            _git_sha = ""
    return _git_sha


def resolve_ledger_dir(directory: Optional[str] = None) -> str:
    """Apply the argument → env → default resolution order; ``""``
    means disabled."""
    if directory is None or directory == "":
        directory = os.environ.get(ENV_LEDGER_DIR, DEFAULT_LEDGER_DIR)
    if directory.lower() in DISABLED_VALUES:
        return ""
    return directory


def run_key(entry: Dict[str, Any]) -> Tuple:
    """The drift-detection grouping key of one ledger entry.

    Run entries group by (spec_hash, benchmark, mode) — entries for the
    same experiment cell across commits; bench entries by preset.
    Code version / git sha / machine stay *recorded* per entry but do
    not split groups: drift across commits is exactly what ``check``
    exists to see.
    """
    if entry.get("kind") == "bench":
        return ("bench", entry.get("preset", ""))
    return ("run", entry.get("spec_hash", ""), entry.get("benchmark", ""),
            entry.get("mode", ""))


class RunLedger:
    """Append-only JSONL store of run/bench history.

    Constructed with ``directory=""`` (after resolution) the ledger is
    disabled: every recording method is a silent no-op and reads return
    empty, so call sites need no conditionals.
    """

    def __init__(self, directory: Optional[str] = None):
        self.directory = resolve_ledger_dir(directory)

    @property
    def enabled(self) -> bool:
        return bool(self.directory)

    @property
    def path(self) -> str:
        return os.path.join(self.directory, LEDGER_FILENAME)

    # -- writing ------------------------------------------------------------

    def _stamp(self, entry: Dict[str, Any]) -> Dict[str, Any]:
        from ..engine.diskcache import code_version
        from ..harness.bench import machine_info

        stamped = {
            "v": LEDGER_VERSION,
            "ts": time.time(),
            "git_sha": git_sha(),
            "code_version": code_version(),
            "machine": machine_info(),
        }
        stamped.update(entry)
        return stamped

    def append(self, entry: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Stamp ``entry`` with version/time/sha/machine and append it;
        returns the stamped entry (None when disabled)."""
        if not self.enabled:
            return None
        stamped = self._stamp(entry)
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(self.path, "a") as handle:
                handle.write(json.dumps(stamped, sort_keys=True) + "\n")
        except OSError as error:
            # The ledger is observability: a read-only checkout must not
            # fail the run it records.
            logger.warning("ledger append to %s failed: %s",
                           self.path, error)
            return None
        return stamped

    def record_run(self, spec_hash: str, metrics,
                   phases: Optional[Dict[str, float]] = None,
                   source: str = "run") -> Optional[Dict[str, Any]]:
        """Append one (benchmark, mode) cell's distilled metrics.

        ``metrics`` is a :class:`~repro.harness.runner.RunMetrics`;
        failed (NaN) cells are skipped — a half-dead run must not drag
        the drift median.  ``phases`` carries measured per-phase wall
        seconds when an event bus was active (empty for cached cells,
        which never simulated).
        """
        if getattr(metrics, "failed", False):
            return None
        fields = dataclasses.asdict(metrics)
        fields.pop("error", None)
        return self.append({
            "kind": "run",
            "source": source,
            "spec_hash": spec_hash,
            "benchmark": fields.pop("benchmark"),
            "mode": fields.pop("mode"),
            "metrics": fields,
            "phases": dict(phases or {}),
        })

    def record_bench(self, record: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Append one ``repro bench`` result: the machine-independent
        speedup ratios plus each backend's headline rates."""
        backends = {}
        for backend, measurement in record.get("backends", {}).items():
            sweep = measurement.get("memsys_sweep") or {}
            backends[backend] = {
                "wall_seconds": measurement.get("wall_seconds"),
                "frames_per_second": measurement.get("frames_per_second"),
                "cache_ops_per_second": sweep.get("cache_ops_per_second"),
                "raster_phase_ms": measurement.get("raster_phase_ms", {}),
            }
        return self.append({
            "kind": "bench",
            "preset": record.get("preset", ""),
            "speedup": dict(record.get("speedup", {})),
            "backends": backends,
        })

    # -- reading ------------------------------------------------------------

    def entries(self) -> List[Dict[str, Any]]:
        """Every parseable entry, in append (chronological) order."""
        if not self.enabled or not os.path.exists(self.path):
            return []
        out: List[Dict[str, Any]] = []
        with open(self.path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue  # torn tail of a killed writer
                if isinstance(entry, dict) and "kind" in entry:
                    out.append(entry)
        return out

    def groups(self) -> Dict[Tuple, List[Dict[str, Any]]]:
        """Entries bucketed by :func:`run_key`, chronological within."""
        grouped: Dict[Tuple, List[Dict[str, Any]]] = {}
        for entry in self.entries():
            grouped.setdefault(run_key(entry), []).append(entry)
        return grouped

    # -- maintenance --------------------------------------------------------

    def gc(self, keep: int) -> Tuple[int, int]:
        """Keep only the newest ``keep`` entries per group; returns
        (kept, dropped).  The single place the ledger file is rewritten."""
        if keep < 1:
            raise ValueError("gc keep must be >= 1")
        entries = self.entries()
        grouped: Dict[Tuple, List[Dict[str, Any]]] = {}
        for entry in entries:
            grouped.setdefault(run_key(entry), []).append(entry)
        survivors = set()
        for group in grouped.values():
            for entry in group[-keep:]:
                survivors.add(id(entry))
        kept = [entry for entry in entries if id(entry) in survivors]
        if self.enabled:
            os.makedirs(self.directory, exist_ok=True)
            with open(self.path, "w") as handle:
                for entry in kept:
                    handle.write(json.dumps(entry, sort_keys=True) + "\n")
        return len(kept), len(entries) - len(kept)

    # -- drift detection ----------------------------------------------------

    def check(self, rate_tolerance: float = DEFAULT_RATE_TOLERANCE,
              ratio_tolerance: float = DEFAULT_RATIO_TOLERANCE,
              ) -> List[str]:
        """Compare each group's newest entry against the median of its
        predecessors; returns a list of human-readable drift findings
        (empty = healthy).

        Run groups gate the EVR effectiveness rates (absolute drift
        beyond ``rate_tolerance``); bench groups gate every speedup
        ratio (relative *drop* beyond ``ratio_tolerance`` — a faster
        run is never drift).  Groups with fewer than two entries have
        no history to drift from and pass.
        """
        findings: List[str] = []
        for key, group in sorted(self.groups().items()):
            if len(group) < 2:
                continue
            latest, priors = group[-1], group[:-1]
            if key[0] == "run":
                label = f"{key[2]}:{key[3]}"
                for metric in RATE_METRICS:
                    values = [e["metrics"][metric] for e in priors
                              if metric in e.get("metrics", {})]
                    current = latest.get("metrics", {}).get(metric)
                    if current is None or not values:
                        continue
                    median = statistics.median(values)
                    if abs(current - median) > rate_tolerance:
                        findings.append(
                            f"run {label}: {metric} {current:.4f} drifted "
                            f"from ledger median {median:.4f} "
                            f"(|Δ| {abs(current - median):.4f} > "
                            f"{rate_tolerance})"
                        )
            else:
                label = f"bench preset={key[1]}"
                ratios = latest.get("speedup", {})
                for name, current in sorted(ratios.items()):
                    values = [e["speedup"][name] for e in priors
                              if name in e.get("speedup", {})]
                    if not values or not current:
                        continue
                    median = statistics.median(values)
                    if median > 0 and current < median * (1 - ratio_tolerance):
                        findings.append(
                            f"{label}: speedup {name} {current:.2f}x fell "
                            f">{ratio_tolerance:.0%} below ledger median "
                            f"{median:.2f}x"
                        )
        return findings


class PhaseAccumulator:
    """Bus subscriber folding :class:`PhaseCompleted` seconds into
    per-cell totals — the ledger's ``phases`` field.

    Attribution relies on each run's events being contiguous on the
    parent bus, which the job envelope guarantees: a worker job's (or
    resilient attempt's) buffered stream (``RunStarted …
    PhaseCompleted … RunFinished``) is replayed atomically when its
    record is settled, and a discarded attempt's never is.
    """

    def __init__(self) -> None:
        self.phases: Dict[Tuple[str, str], Dict[str, float]] = {}
        self._current: Optional[Tuple[str, str]] = None

    def __call__(self, event: Event) -> None:
        if isinstance(event, RunStarted):
            self._current = (event.benchmark, event.mode)
        elif isinstance(event, PhaseCompleted) and self._current is not None:
            cell = self.phases.setdefault(self._current, {})
            cell[event.phase] = cell.get(event.phase, 0.0) + event.seconds

    def for_cell(self, benchmark: str, mode: str) -> Dict[str, float]:
        return self.phases.get((benchmark, mode), {})


# ---------------------------------------------------------------------------
# CLI formatting helpers
# ---------------------------------------------------------------------------

def _when(entry: Dict[str, Any]) -> str:
    ts = entry.get("ts")
    if not ts:
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(ts))


def entry_label(entry: Dict[str, Any]) -> str:
    if entry.get("kind") == "bench":
        return f"bench:{entry.get('preset', '?')}"
    return f"{entry.get('benchmark', '?')}:{entry.get('mode', '?')}"


def entry_headline(entry: Dict[str, Any]) -> str:
    """The one number worth a column in ``ledger list``."""
    if entry.get("kind") == "bench":
        ratios = entry.get("speedup", {})
        fps = ratios.get("frames_per_second")
        cache = ratios.get("cache_ops_per_second")
        parts = []
        if fps:
            parts.append(f"frames/s x{fps:.2f}")
        if cache:
            parts.append(f"cache-ops/s x{cache:.2f}")
        return "  ".join(parts) or "-"
    rate = entry.get("metrics", {}).get("redundant_tile_rate")
    return f"redundant tiles {rate:.4f}" if rate is not None else "-"


def format_ledger_rows(entries: Sequence[Dict[str, Any]]) -> List[str]:
    """``ledger list`` lines: index, time, sha, key, headline metric."""
    lines = []
    for index, entry in enumerate(entries):
        sha = (entry.get("git_sha") or "-")[:9]
        lines.append(f"{index:>4}  {_when(entry)}  {sha:<9}  "
                     f"{entry_label(entry):<24}  {entry_headline(entry)}")
    return lines


def _numeric_leaves(entry: Dict[str, Any], section: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name, value in entry.get(section, {}).items():
        if isinstance(value, (int, float)):
            out[name] = float(value)
    return out


def diff_entries(old: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """Numeric field-by-field delta between two entries of one group."""
    section = "speedup" if new.get("kind") == "bench" else "metrics"
    before = _numeric_leaves(old, section)
    after = _numeric_leaves(new, section)
    lines = []
    for name in sorted(before.keys() | after.keys()):
        a, b = before.get(name), after.get(name)
        if a is None or b is None:
            lines.append(f"  {name}: {a} -> {b}")
        elif a != b:
            delta = b - a
            rel = f" ({delta / a:+.2%})" if a else ""
            lines.append(f"  {name}: {a:.6g} -> {b:.6g}{rel}")
    return lines or ["  (no numeric change)"]
