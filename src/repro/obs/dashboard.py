"""`repro dashboard`: render the run ledger as one self-contained HTML file.

The dashboard is the visual end of the telemetry pipeline: the event bus
streams a run, the ledger (:mod:`repro.obs.ledger`) persists its
distilled history, and this module turns that history into a static
page — inline CSS and inline SVG only, no scripts, no network — that CI
publishes as an artifact on every push.  Five panels:

* **Effectiveness** — per-benchmark redundant-tile rate by mode, the
  paper's EVR-vs-RE-vs-ORACLE comparison as grouped bars (latest ledger
  entry per cell).
* **Perf trajectory** — bench speedup ratios (frames/s, cache-ops/s,
  fragments/s) over successive ledger entries, labelled by commit.
* **Phase breakdown** — measured geometry/raster wall seconds per run
  entry as a stacked area (filled when runs executed with an event bus
  attached; cached cells carry no phase timings).
* **Worker occupancy** — one lane per worker pid showing tile-job
  intervals, read from an ``--events`` JSONL log's
  :class:`~repro.obs.events.TileJobFinished` records.
* **Memsys** — the batched memory-system counters (drain batch sizes,
  same-tag run-collapse ratio, scalar-tail lane fraction) from a
  ``--metrics`` export's registry record.

Panels without data render as an explicit "no data" note rather than
vanishing, so a thin ledger still produces a self-describing page.
"""

from __future__ import annotations

import html
import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .events import TileJobFinished, read_event_log
from .ledger import RunLedger

# One shared palette (mode / series / lane colors cycle through it).
PALETTE = ("#4878cf", "#e24a33", "#6acc65", "#956cb4",
           "#d5bb67", "#82c6e2", "#8c613c", "#ccb974")

_PAGE_CSS = """
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial, sans-serif;
       margin: 2rem auto; max-width: 1080px; color: #222; }
h1 { font-size: 1.5rem; }  h2 { font-size: 1.1rem; margin-top: 2.2rem; }
.meta { color: #666; font-size: 0.85rem; }
.panel { border: 1px solid #ddd; border-radius: 6px; padding: 1rem;
         margin-top: 0.6rem; }
.empty { color: #888; font-style: italic; }
.legend span { display: inline-block; margin-right: 1.2rem;
               font-size: 0.8rem; }
.swatch { display: inline-block; width: 0.7rem; height: 0.7rem;
          border-radius: 2px; margin-right: 0.3rem;
          vertical-align: baseline; }
svg text { font-family: inherit; }
"""


def _esc(text: Any) -> str:
    return html.escape(str(text), quote=True)


# ---------------------------------------------------------------------------
# Tiny SVG toolkit (static, tooltip via <title>)
# ---------------------------------------------------------------------------

def _svg(width: int, height: int, body: List[str]) -> str:
    return (f'<svg viewBox="0 0 {width} {height}" width="{width}" '
            f'height="{height}" role="img">' + "".join(body) + "</svg>")


def _rect(x: float, y: float, w: float, h: float, fill: str,
          title: str = "") -> str:
    tip = f"<title>{_esc(title)}</title>" if title else ""
    return (f'<rect x="{x:.1f}" y="{y:.1f}" width="{max(w, 0.5):.1f}" '
            f'height="{max(h, 0.0):.1f}" fill="{fill}">{tip}</rect>')


def _text(x: float, y: float, content: str, size: int = 11,
          anchor: str = "start", color: str = "#444") -> str:
    return (f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
            f'text-anchor="{anchor}" fill="{color}">{_esc(content)}</text>')


def _polyline(points: Sequence[Tuple[float, float]], color: str) -> str:
    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    return (f'<polyline points="{path}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>')


def _polygon(points: Sequence[Tuple[float, float]], fill: str,
             title: str = "") -> str:
    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    tip = f"<title>{_esc(title)}</title>" if title else ""
    return f'<polygon points="{path}" fill="{fill}" opacity="0.8">{tip}</polygon>'


def _axis_line(x1: float, y1: float, x2: float, y2: float) -> str:
    return (f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
            f'y2="{y2:.1f}" stroke="#999" stroke-width="1"/>')


def _legend(labels: Sequence[str]) -> str:
    spans = "".join(
        f'<span><span class="swatch" style="background:'
        f'{PALETTE[i % len(PALETTE)]}"></span>{_esc(label)}</span>'
        for i, label in enumerate(labels)
    )
    return f'<div class="legend">{spans}</div>'


def _empty(note: str) -> str:
    return f'<p class="empty">{_esc(note)}</p>'


# ---------------------------------------------------------------------------
# Panels
# ---------------------------------------------------------------------------

def _latest_cells(entries: List[Dict[str, Any]]
                  ) -> Dict[Tuple[str, str], Dict[str, Any]]:
    """Newest run entry per (benchmark, mode)."""
    cells: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for entry in entries:
        if entry.get("kind") == "run":
            cells[(entry.get("benchmark", "?"),
                   entry.get("mode", "?"))] = entry
    return cells


def effectiveness_panel(entries: List[Dict[str, Any]]) -> str:
    """Grouped bars: redundant-tile rate per benchmark, one bar per mode."""
    cells = _latest_cells(entries)
    if not cells:
        return _empty("no run entries in the ledger yet — "
                      "`repro run`/`repro figure` populate it")
    benchmarks = sorted({bench for bench, _ in cells})
    modes = sorted({mode for _, mode in cells})
    top = max((e.get("metrics", {}).get("redundant_tile_rate") or 0.0
               for e in cells.values()), default=0.0) or 1.0
    width, height, pad_l, pad_b = 980, 240, 46, 34
    plot_w, plot_h = width - pad_l - 10, height - pad_b - 12
    group_w = plot_w / max(len(benchmarks), 1)
    bar_w = min(22.0, (group_w - 8) / max(len(modes), 1))
    body = [_axis_line(pad_l, 12, pad_l, 12 + plot_h),
            _axis_line(pad_l, 12 + plot_h, width - 10, 12 + plot_h),
            _text(6, 18, f"{top:.2f}", size=10),
            _text(6, 12 + plot_h, "0", size=10)]
    for b_index, benchmark in enumerate(benchmarks):
        gx = pad_l + b_index * group_w
        body.append(_text(gx + group_w / 2, height - 16, benchmark,
                          size=10, anchor="middle"))
        for m_index, mode in enumerate(modes):
            entry = cells.get((benchmark, mode))
            if entry is None:
                continue
            rate = entry.get("metrics", {}).get("redundant_tile_rate")
            if rate is None:
                continue
            h = plot_h * max(rate, 0.0) / top
            body.append(_rect(
                gx + 4 + m_index * bar_w, 12 + plot_h - h, bar_w - 2, h,
                PALETTE[m_index % len(PALETTE)],
                title=f"{benchmark}:{mode} redundant_tile_rate={rate:.4f}",
            ))
    return _legend(modes) + _svg(width, height, body)


def trajectory_panel(entries: List[Dict[str, Any]]) -> str:
    """Bench speedup ratios over successive ledger entries."""
    benches = [e for e in entries if e.get("kind") == "bench"
               and e.get("speedup")]
    if not benches:
        return _empty("no bench entries yet — `repro bench` appends the "
                      "speedup trajectory here")
    series_names = sorted({name for e in benches for name in e["speedup"]})
    top = max(v for e in benches for v in e["speedup"].values()) or 1.0
    width, height, pad_l, pad_b = 980, 220, 46, 30
    plot_w, plot_h = width - pad_l - 10, height - pad_b - 12
    step = plot_w / max(len(benches) - 1, 1)
    body = [_axis_line(pad_l, 12, pad_l, 12 + plot_h),
            _axis_line(pad_l, 12 + plot_h, width - 10, 12 + plot_h),
            _text(6, 18, f"{top:.1f}x", size=10),
            _text(6, 12 + plot_h, "0x", size=10)]
    for index, entry in enumerate(benches):
        sha = (entry.get("git_sha") or "")[:7] or f"#{index}"
        preset = entry.get("preset", "")
        body.append(_text(pad_l + index * step, height - 12,
                          f"{sha} {preset}".strip(), size=9,
                          anchor="middle"))
    for s_index, name in enumerate(series_names):
        color = PALETTE[s_index % len(PALETTE)]
        points = [
            (pad_l + index * step,
             12 + plot_h * (1 - entry["speedup"][name] / top))
            for index, entry in enumerate(benches)
            if name in entry["speedup"]
        ]
        if len(points) == 1:
            x, y = points[0]
            body.append(_rect(x - 2, y - 2, 4, 4, color, title=name))
        elif points:
            body.append(_polyline(points, color))
    return _legend(series_names) + _svg(width, height, body)


def phase_panel(entries: List[Dict[str, Any]]) -> str:
    """Stacked area of measured per-phase seconds across run entries."""
    timed = [e for e in entries if e.get("kind") == "run"
             and e.get("phases")]
    if not timed:
        return _empty("no phase timings yet — runs executed with --live/"
                      "--events record measured phase seconds")
    phases = sorted({phase for e in timed for phase in e["phases"]})
    totals = [sum(e["phases"].values()) for e in timed]
    top = max(totals) or 1.0
    width, height, pad_l, pad_b = 980, 200, 46, 30
    plot_w, plot_h = width - pad_l - 10, height - pad_b - 12
    step = plot_w / max(len(timed) - 1, 1)
    body = [_axis_line(pad_l, 12, pad_l, 12 + plot_h),
            _axis_line(pad_l, 12 + plot_h, width - 10, 12 + plot_h),
            _text(6, 18, f"{top:.2f}s", size=10),
            _text(6, 12 + plot_h, "0", size=10)]
    if len(timed) == 1:
        # A single sample stacks as adjacent bars instead of a zero-width
        # area.
        entry = timed[0]
        y = 12.0 + plot_h
        for p_index, phase in enumerate(phases):
            seconds = entry["phases"].get(phase, 0.0)
            h = plot_h * seconds / top
            y -= h
            body.append(_rect(pad_l + 8, y, 60, h,
                              PALETTE[p_index % len(PALETTE)],
                              title=f"{phase}: {seconds:.3f}s"))
    else:
        baseline = [0.0] * len(timed)
        for p_index, phase in enumerate(phases):
            upper = [baseline[i] + timed[i]["phases"].get(phase, 0.0)
                     for i in range(len(timed))]
            points = [(pad_l + i * step, 12 + plot_h * (1 - upper[i] / top))
                      for i in range(len(timed))]
            points += [(pad_l + i * step,
                        12 + plot_h * (1 - baseline[i] / top))
                       for i in reversed(range(len(timed)))]
            body.append(_polygon(points, PALETTE[p_index % len(PALETTE)],
                                 title=phase))
            baseline = upper
    for index, entry in enumerate(timed):
        label = f"{entry.get('benchmark', '?')}:{entry.get('mode', '?')}"
        body.append(_text(pad_l + index * step, height - 12, label,
                          size=9, anchor="middle"))
    return _legend(phases) + _svg(width, height, body)


def occupancy_panel(events_path: Optional[str]) -> str:
    """Worker lanes: one row per pid, a rect per tile-job interval."""
    if not events_path or not os.path.exists(events_path):
        return _empty("no event log supplied — pass --events with a JSONL "
                      "file captured via `repro ... --events out.jsonl`")
    jobs = [event for event in read_event_log(events_path)
            if isinstance(event, TileJobFinished) and event.end > event.start]
    if not jobs:
        return _empty("event log has no tile-job events")
    workers = sorted({job.worker for job in jobs})
    t0 = min(job.start for job in jobs)
    t1 = max(job.end for job in jobs)
    span = (t1 - t0) or 1.0
    lane_h, width, pad_l = 18, 980, 86
    height = 24 + lane_h * len(workers) + 22
    plot_w = width - pad_l - 10
    body = [_text(pad_l, 14, f"{len(jobs)} tile jobs over {span:.3f}s",
                  size=10)]
    for index, worker in enumerate(workers):
        y = 22 + index * lane_h
        body.append(_text(4, y + lane_h - 6, f"pid {worker}", size=10))
        body.append(_axis_line(pad_l, y + lane_h - 2, width - 10,
                               y + lane_h - 2))
    for job in jobs:
        index = workers.index(job.worker)
        x = pad_l + plot_w * (job.start - t0) / span
        w = plot_w * (job.end - job.start) / span
        body.append(_rect(
            x, 22 + index * lane_h + 2, w, lane_h - 6,
            PALETTE[index % len(PALETTE)],
            title=(f"{job.tiles} tile(s) from tile {job.tile} on pid "
                   f"{job.worker}: "
                   f"{(job.end - job.start) * 1e3:.2f}ms, "
                   f"{job.fragments} fragments"),
        ))
    return _svg(width, height, body)


def memsys_panel(metrics_path: Optional[str]) -> str:
    """Batched memory-system telemetry from a ``--metrics`` export."""
    registry = _load_registry_record(metrics_path)
    if registry is None:
        return _empty("no metrics export supplied — pass --metrics with a "
                      "JSONL file captured via `repro ... --metrics m.jsonl`")
    counters = {name: value
                for name, value in registry.get("counters", {}).items()
                if name.startswith("memsys.")}
    histograms = {name: value
                  for name, value in registry.get("histograms", {}).items()
                  if name.startswith("memsys.")}
    if not counters and not histograms:
        return _empty("metrics export has no memsys.* series — batched "
                      "memsys counters record under the numpy backend")
    rows = []
    accesses = counters.get("memsys.line_accesses", 0)
    collapsed = counters.get("memsys.collapsed_runs", 0)
    tail = counters.get("memsys.scalar_tail_lanes", 0)
    closed = counters.get("memsys.closed_form_lanes", 0)
    lanes = counters.get("memsys.batch_lanes", 0)
    if accesses:
        rows.append(("same-tag run-collapse ratio",
                     f"{collapsed / accesses:.2%}",
                     f"{collapsed:,.0f} of {accesses:,.0f} line accesses "
                     "collapsed into a predecessor's run"))
    if lanes:
        rows.append(("closed-form set fraction",
                     f"{closed / lanes:.2%}",
                     f"{closed:,.0f} of {lanes:,.0f} batched sets settled "
                     "in closed form (at most two ways)"))
        rows.append(("scalar-tail lane fraction",
                     f"{tail / lanes:.2%}",
                     f"{tail:,.0f} of {lanes:,.0f} batched lanes fell to "
                     "the exact scalar tail"))
    drain = histograms.get("memsys.drain_batch_ops")
    if drain:
        rows.append(("drain batch size",
                     f"{drain.get('mean', 0):,.0f} ops mean",
                     f"{drain.get('count', 0):,.0f} drains, max "
                     f"{drain.get('max', 0):,.0f} ops"))
    for name in sorted(counters):
        if name not in ("memsys.line_accesses", "memsys.collapsed_runs",
                        "memsys.scalar_tail_lanes", "memsys.batch_lanes",
                        "memsys.closed_form_lanes"):
            rows.append((name, f"{counters[name]:,.0f}", ""))
    cells = "".join(
        f"<tr><td>{_esc(label)}</td><td><b>{_esc(value)}</b></td>"
        f"<td class='meta'>{_esc(detail)}</td></tr>"
        for label, value, detail in rows
    )
    return (f'<table>{cells}</table>' if rows
            else _empty("memsys series present but empty"))


def _load_registry_record(metrics_path: Optional[str]
                          ) -> Optional[Dict[str, Any]]:
    if not metrics_path or not os.path.exists(metrics_path):
        return None
    registry = None
    with open(metrics_path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if record.get("record") == "registry":
                registry = record  # last one wins (freshest snapshot)
    return registry


# ---------------------------------------------------------------------------
# Page assembly
# ---------------------------------------------------------------------------

def build_dashboard(ledger: RunLedger,
                    events_path: Optional[str] = None,
                    metrics_path: Optional[str] = None) -> str:
    """The complete dashboard page as an HTML string."""
    entries = ledger.entries()
    runs = sum(1 for e in entries if e.get("kind") == "run")
    benches = sum(1 for e in entries if e.get("kind") == "bench")
    source = ledger.path if ledger.enabled else "(ledger disabled)"
    panels = [
        ("EVR / RE / ORACLE effectiveness",
         "redundant-tile rate per benchmark, latest entry per cell",
         effectiveness_panel(entries)),
        ("Performance trajectory",
         "bench speedup ratios over ledger entries (labelled by commit)",
         trajectory_panel(entries)),
        ("Phase breakdown",
         "measured wall seconds per pipeline phase, stacked per run",
         phase_panel(entries)),
        ("Worker occupancy",
         "tile-job intervals per worker process, from the event log",
         occupancy_panel(events_path)),
        ("Batched memory system",
         "drain batching and lane-collapse telemetry, from the metrics "
         "export", memsys_panel(metrics_path)),
    ]
    sections = "".join(
        f"<h2>{_esc(title)}</h2><p class='meta'>{_esc(subtitle)}</p>"
        f"<div class='panel'>{content}</div>"
        for title, subtitle, content in panels
    )
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        "<title>repro dashboard</title>"
        f"<style>{_PAGE_CSS}</style></head><body>"
        "<h1>repro — run-history dashboard</h1>"
        f"<p class='meta'>ledger: {_esc(source)} · {runs} run entries · "
        f"{benches} bench entries</p>"
        f"{sections}</body></html>"
    )


def write_dashboard(path: str, ledger: RunLedger,
                    events_path: Optional[str] = None,
                    metrics_path: Optional[str] = None) -> str:
    """Render and write the dashboard; returns ``path``."""
    page = build_dashboard(ledger, events_path=events_path,
                           metrics_path=metrics_path)
    with open(path, "w") as handle:
        handle.write(page)
    return path
