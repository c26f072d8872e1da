"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``list`` — show the benchmark suite (Table III).
* ``modes`` — list the registered pipeline techniques (paper modes,
  alternative culling mechanisms, approximate rivals) and their
  validation contracts.
* ``run`` — simulate one benchmark under one or more registered
  techniques (``--modes``, or ``--mode`` for a single one) and print
  the headline metrics.
* ``figure`` — regenerate one of the paper's figures/tables, an
  ablation or an analysis; each is ``fn(runner, benchmarks)`` over a
  runner built from the resolved spec, so spec overrides reach all.
* ``render`` — render a benchmark's frames to PPM images.
* ``report`` — paper-vs-measured markdown report (EXPERIMENTS.md body).
* ``profile`` — run one benchmark under the profiler and print where the
  wall-clock time went (phases, jobs, worker occupancy).
* ``validate`` — cross-mode pixel-equality and invariant checks;
  ``--backends`` adds backend bit-identity to the same report.
* ``trace`` — record a benchmark or stress family to a portable
  command-trace file, or replay a trace through validation (with a
  serialization round-trip bit-identity check).
* ``corpus`` — adversarial stress corpus: ``build`` serialized trace
  families, ``list`` them, ``replay`` them through the differential
  validation gate (all modes × all backends), shrinking and
  quarantining any violation.
* ``bench`` — measure backend throughput; ``--history`` prints the
  ledger's speedup trajectory.
* ``cache`` — inspect or clear the persistent run cache; ``gc`` prunes
  the quarantine directory to its newest entries.
* ``ledger`` — list/show/diff/gc the persistent run ledger; ``check``
  exits non-zero when the newest entries drift from the ledger median.
* ``dashboard`` — render the ledger as one self-contained HTML page.
* ``spec`` — show, diff or dump the resolved experiment spec.

Every experiment-running command resolves its parameters through one
declarative :class:`repro.spec.RunSpec`, layered from (later wins):
built-in defaults → ``--preset NAME`` → ``--spec FILE`` (TOML/JSON) →
environment (``REPRO_JOBS``, ``REPRO_FAULTS``) → explicit CLI flags →
dotted-path ``--set key=value`` overrides.  ``repro spec show`` prints
the fully resolved spec with the layer that supplied every field; a run
driven by a spec file is bit-identical to the same run driven by the
equivalent flags, and shares its disk-cache entries (keys derive from
the spec's canonical content hash).

Resilience (see :mod:`repro.resilience`): ``--retries N`` /
``--job-timeout S`` arm the resilient scheduler (bounded retries with
deterministic backoff, per-job timeouts and broken-pool recovery under
``--jobs``), and ``--inject-faults SPEC`` (or ``$REPRO_FAULTS``) with
``--fault-seed`` exercises those paths deterministically.  Every cell of
``run``, ``figure``, ``report`` and ``profile`` comes from a
:class:`~repro.harness.runner.SuiteRunner`, and the run cache is the
checkpoint of ``run``, ``figure`` and ``report``: re-running an
interrupted command recomputes only unfinished cells.  Runs that export
per-frame data (``run --csv``, ``--trace``, ``--metrics``, ``--events``,
``--live``) and ``profile`` always simulate.  ``--strict`` turns
permanently failed cells into a non-zero exit (the default is graceful
degradation: the command completes with failed cells rendered as
``nan``).

Observability (see :mod:`repro.obs`): every subcommand takes ``-v`` /
``--verbose`` and ``-q`` / ``--quiet`` *after* the subcommand name;
``run``, ``figure``, ``report`` and ``profile`` additionally take
``--trace out.json`` (Chrome/Perfetto trace-event JSON) and ``--metrics
out.jsonl`` (or ``.csv``) to export what was measured.  ``--live``
renders per-benchmark progress (fragments/s, cache-ops/s) to the
terminal and ``--events out.jsonl`` streams the structured event bus to
a crash-durable JSONL log; both ride the same bus, fed from workers over
the result channel.  No observability flag changes any simulated result
— a run with subscribers attached is bit-identical to a bare run.
Metrics exports lead with a ``spec`` record carrying the resolved spec
and its hash for provenance.

Every ``run``/``figure``/``report``/``bench`` invocation also appends
its distilled results to the persistent run ledger (``.repro_ledger/``
by default; ``--ledger DIR`` or ``$REPRO_LEDGER_DIR`` overrides,
``--ledger off`` disables).  ``repro ledger list|show|diff|gc|check``
inspects it — ``check`` exits non-zero on drift from the ledger median —
and ``repro dashboard`` renders it into one self-contained HTML page.
"""

from __future__ import annotations

import argparse
import atexit
import io
import json
import os
import sys
import time
from contextlib import ExitStack, contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from . import __version__
from .commands import FrameStream
from .commands.trace import load_trace, save_trace
from .corpus import (
    DEFAULT_MAX_EVALS,
    MANIFEST_NAME,
    build_corpus,
    family_names,
    family_stream,
    get_family,
    load_corpus,
    make_pixel_corruptor,
    read_manifest,
    replay_families,
)
from .config import GPUConfig
from .engine import DiskCache, default_cache_dir
from .engine.diskcache import DEFAULT_QUARANTINE_KEEP
from .errors import CommandError, ConfigError, CorpusError, SpecError
from .harness import (
    ablation_draw_order,
    ablation_history,
    ablation_prediction_point,
    ablation_subtile,
    figure6_energy,
    figure7_time,
    figure8_overshading,
    figure9_redundant_tiles,
    figure10_energy_vs_re,
    figure11_time_vs_re,
    format_table,
    table2_parameters,
    table3_suite,
)
from .harness.alternatives import culling_alternatives, rival_techniques
from .harness.balance import pipeline_balance_report
from .harness.timeseries import frame_series, write_csv
from .harness.report import render_report
from .harness.runner import SuiteRunner
from .harness.bench import (
    BENCH_PRESETS,
    check_bench_regression,
    format_bench_summary,
    run_bench,
    write_bench_json,
)
from .imageio import write_ppm
from .kernels import DEFAULT_BACKEND, available_backends
from .obs import (
    ChromeTracer,
    EventBus,
    JsonlEventWriter,
    LiveRenderer,
    MetricsSubscriber,
    Output,
    PhaseAccumulator,
    RunLedger,
    SchedulerProfiler,
    TracerSubscriber,
    global_registry,
    publishing,
    setup_logging,
    tracing,
    write_csv_records,
    write_jsonl,
)
from .obs.dashboard import write_dashboard
from .obs.ledger import (
    DEFAULT_RATE_TOLERANCE,
    DEFAULT_RATIO_TOLERANCE,
    diff_entries,
    entry_label,
    format_ledger_rows,
)
from .obs.log import verbosity_from_flags
from .obs.metrics import frame_record, run_record, spec_record
from .obs.profile import phase_breakdown
from .pipeline import GPU
from .scenes import BENCHMARKS, benchmark_stream
from .spec import (
    PRESETS,
    ResolvedSpec,
    RunSpec,
    flatten_spec,
    preset_names,
    spec_from_args,
)
from .techniques import default_modes, get_technique, technique_names
from .validate import validate_stream

_FIGURES = {
    "table2": lambda runner, subset: table2_parameters(),
    "table3": lambda runner, subset: table3_suite(),
    "fig6": figure6_energy,
    "fig7": figure7_time,
    "fig8": figure8_overshading,
    "fig9": figure9_redundant_tiles,
    "fig10": figure10_energy_vs_re,
    "fig11": figure11_time_vs_re,
    "ablation-point": ablation_prediction_point,
    "ablation-history": ablation_history,
    "ablation-order": ablation_draw_order,
    "ablation-subtile": ablation_subtile,
    "balance": pipeline_balance_report,
    "alternatives": culling_alternatives,
    "rivals": rival_techniques,
}


# ---------------------------------------------------------------------------
# Argument groups
#
# Every default is ``None`` (or False for store_true flags): the parser
# records only what the user actually typed, so spec-file and preset
# values are never masked by untouched flags — `spec_from_args` layers
# the explicit values on top.
# ---------------------------------------------------------------------------

def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spec", default=None, metavar="FILE",
        help="experiment spec file (TOML, or JSON with .json)",
    )
    parser.add_argument(
        "--preset", default=None, choices=preset_names(),
        help="built-in base configuration the spec/flags layer onto",
    )
    parser.add_argument(
        "--set", dest="set_overrides", action="append", default=[],
        metavar="KEY=VALUE",
        help="dotted-path spec override, e.g. "
             "--set features.evr_reorder=false (repeatable; highest "
             "precedence)",
    )


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--frames", type=int, default=None,
                        help="frames to simulate (default 10; paper: 60)")
    parser.add_argument("--width", type=int, default=None,
                        help="screen width in pixels (paper: 1196)")
    parser.add_argument("--height", type=int, default=None,
                        help="screen height in pixels (paper: 768)")


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for scheduler fan-out "
             "(default: $REPRO_JOBS or 1 = serial; "
             "negative = all CPU cores)",
    )
    parser.add_argument(
        "--backend", default=None, choices=available_backends(),
        help="backend for the fragment hot path and the memory-system "
             "trace replay (default: $REPRO_BACKEND or "
             f"{DEFAULT_BACKEND}; backends are bit-identical, "
             "so results and cache entries are shared)",
    )


def _add_backends_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backends", nargs="+", default=None,
        choices=available_backends(), metavar="BACKEND",
        help="kernel backends to render under; two or more make the "
             "validation differential (every mode × backend image is "
             "compared against the first backend's baseline). "
             "corpus replay defaults to all available backends",
    )


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    """Fault-tolerance flags (see :mod:`repro.resilience`).

    ``--strict`` always resolves to the one ``resilience.strict`` spec
    field (one exit-code contract: 0 clean, 1 failure/violation, 2 usage
    error).
    """
    parser.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="deterministic fault injection, e.g. 'crash:0.2,hang:0.1' "
             "(kinds: raise, corrupt, hang, crash, pixel; "
             "default: $REPRO_FAULTS)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None, metavar="N",
        help="seed decorrelating otherwise-identical fault plans",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="max attempts per job (arms the resilient scheduler; "
             "default 4 once armed)",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock timeout under a process pool "
             "(arms the resilient scheduler)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail hard: suite sweeps exit non-zero on permanently "
             "failed cells; corpus replay stops at the first violating "
             "family (violations always exit 1 either way)",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a Chrome/Perfetto trace-event JSON file "
             "(open in chrome://tracing or ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="export metrics records; .csv writes flattened CSV, "
             "anything else JSON Lines",
    )
    parser.add_argument(
        "--events", default=None, metavar="FILE",
        help="stream the structured event bus to a JSONL log "
             "(crash-durable: each event is flushed as it arrives)",
    )
    parser.add_argument(
        "--live", action="store_true", default=False,
        help="live terminal progress (per-benchmark phases, fragments/s, "
             "cache-ops/s); falls back to plain lines when not a TTY",
    )
    _add_ledger_argument(parser)


def _add_ledger_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger", default=None, metavar="DIR",
        help="run-ledger directory (default: $REPRO_LEDGER_DIR or "
             ".repro_ledger; 'off' disables recording)",
    )


def _output_flags_parent() -> argparse.ArgumentParser:
    """Shared ``-v``/``-q`` flags, attached to every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_mutually_exclusive_group()
    group.add_argument("-v", "--verbose", action="store_true",
                       help="extra diagnostics; repro logger at DEBUG")
    group.add_argument("-q", "--quiet", action="store_true",
                       help="primary output only (tables, reports)")
    return parent


def _make_output(args: argparse.Namespace) -> Output:
    """Configure logging from the parsed flags and return the writer
    (commands that don't resolve a spec: ``list``, ``cache``)."""
    verbosity = verbosity_from_flags(
        getattr(args, "verbose", False), getattr(args, "quiet", False)
    )
    setup_logging(verbosity)
    return Output(verbosity)


def _resolve(args: argparse.Namespace
             ) -> Tuple[ResolvedSpec, RunSpec, Output]:
    """Resolve the command's spec layers and configure output from it."""
    resolved = spec_from_args(args)
    spec = resolved.spec
    verbosity = spec.obs.verbosity()
    setup_logging(verbosity)
    return resolved, spec, Output(verbosity)


def _report_failures(runner: SuiteRunner, out: Output,
                     strict: bool) -> int:
    """Print any permanently failed cells; the exit code honours
    ``strict`` — always the resolved ``resilience.strict`` spec field,
    never an attribute sniffed off the runner (graceful degradation
    otherwise)."""
    if not runner.failures:
        return 0
    for (benchmark, mode), failure in sorted(
        runner.failures.items(), key=lambda kv: (kv[0][0], kv[0][1].name)
    ):
        out.result(f"FAILED {benchmark}:{mode.name} "
                   f"after {failure.attempts} attempt(s): {failure.message}")
    out.result(f"{len(runner.failures)} suite cell(s) failed permanently"
               + ("" if strict else " (exit 0; use --strict to fail)"))
    return 1 if strict else 0


@contextmanager
def _command_tracer(trace_path: str,
                    out: Output) -> Iterator[Optional[ChromeTracer]]:
    """Install a :class:`ChromeTracer` for the command when ``--trace``
    (or ``obs.trace``) was given (yields None otherwise).

    Flush-on-crash: the file is written in a ``finally`` (an exception
    propagating through the command still leaves the partial trace on
    disk as valid JSON), and ``arm_flush`` registers an ``atexit``
    backstop for exits that skip the unwind entirely."""
    if not trace_path:
        yield None
        return
    tracer = ChromeTracer()
    tracer.arm_flush(trace_path)
    try:
        with tracing(tracer):
            yield tracer
    finally:
        tracer.disarm_flush()
        tracer.write(trace_path)
        out.info(f"trace ({len(tracer.events)} events) -> {trace_path}")


class _BusSession:
    """What a command gets back from :func:`_command_bus`: the live bus
    (None when no subscriber was requested) and the phase accumulator
    that fills the ledger's per-cell ``phases`` column."""

    def __init__(self) -> None:
        self.bus: Optional[EventBus] = None
        self.accumulator = PhaseAccumulator()

    def phases_for(self, benchmark: str, mode: str) -> Dict[str, float]:
        return self.accumulator.for_cell(benchmark, mode)


@contextmanager
def _command_bus(events_path: str, live: bool, out: Output,
                 tracer: Optional[ChromeTracer] = None,
                 ) -> Iterator[_BusSession]:
    """Install the event bus with the requested subscribers for the
    command's duration (``--events`` JSONL writer, ``--live`` renderer,
    tracer and metrics-registry consumers, the ledger's phase
    accumulator).  Without ``--events``/``--live`` the NULL_BUS stays
    installed and instrumented call sites pay one attribute check.

    The JSONL writer flushes per event and is additionally registered
    with ``atexit`` while open, so a crashed or killed run leaves a
    valid prefix of the stream on disk (flush-on-crash)."""
    session = _BusSession()
    if not (events_path or live):
        yield session
        return
    bus = EventBus()
    session.bus = bus
    bus.subscribe(session.accumulator)
    writer: Optional[JsonlEventWriter] = None
    renderer: Optional[LiveRenderer] = None
    if events_path:
        writer = JsonlEventWriter(events_path)
        atexit.register(writer.close)
        bus.subscribe(writer)
    if live:
        renderer = LiveRenderer()
        bus.subscribe(renderer)
    if tracer is not None:
        bus.subscribe(TracerSubscriber(tracer))
    bus.subscribe(MetricsSubscriber(global_registry()))
    try:
        with publishing(bus):
            yield session
    finally:
        if renderer is not None:
            renderer.close()
        if writer is not None:
            writer.close()
            atexit.unregister(writer.close)
            out.info(f"events ({writer.written} events) -> {events_path}")


def _ledger_record_suite(spec: RunSpec, runner: SuiteRunner,
                         session: _BusSession, out: Output,
                         source: str) -> None:
    """Append every settled (benchmark, mode) cell of a suite sweep to
    the run ledger (failed cells are skipped by ``record_run``)."""
    ledger = RunLedger(spec.obs.ledger)
    appended = 0
    for (benchmark, mode), metrics in sorted(
        runner.results().items(),
        key=lambda kv: (kv[0][0], kv[0][1].name),
    ):
        if ledger.record_run(
            spec.spec_hash(), metrics,
            phases=session.phases_for(benchmark, mode.name),
            source=source,
        ) is not None:
            appended += 1
    if appended:
        out.detail(f"ledger: {appended} entries -> {ledger.path}")


def _write_metrics(records: List[Dict[str, Any]], path: str,
                   out: Output) -> None:
    if path.endswith(".csv"):
        write_csv_records(records, path)
    else:
        write_jsonl(records, path)
    out.info(f"metrics ({len(records)} records) -> {path}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _command_list(args: argparse.Namespace) -> int:
    out = _make_output(args)
    out.result(table3_suite().render())
    return 0


def _command_modes(args: argparse.Namespace) -> int:
    """List every registered technique with its validation contract."""
    out = _make_output(args)
    rows: List[List[object]] = []
    for technique in default_modes():
        contract = ("pixel-exact" if technique.pixel_exact
                    else f"err <= {technique.error_tolerance:g}")
        rows.append([
            technique.name,
            technique.kind,
            contract,
            ", ".join(technique.aliases) or "-",
            technique.summary,
        ])
    out.result(format_table(
        ["mode", "kind", "contract", "aliases", "summary"], rows,
        title=f"registered techniques ({len(rows)})",
    ))
    return 0


def _command_run(args: argparse.Namespace) -> int:
    if getattr(args, "mode", None):
        # `--mode dsr` is sugar for `--modes dsr`: a single-technique
        # run without a comparison table base.
        args.modes = [args.mode]
    resolved, spec, out = _resolve(args)
    benchmarks = ([args.benchmark] if args.benchmark
                  else list(spec.workload.benchmarks))
    if not benchmarks:
        raise SpecError(
            "repro run needs a benchmark: pass one on the command line "
            "or set workload.benchmarks in the spec"
        )
    modes = spec.workload.pipeline_modes()
    config = spec.gpu
    records: List[Dict[str, Any]] = []
    global_registry().reset()
    # Exports and live telemetry need every frame of every cell, which
    # the distilled metrics do not carry, so an exporting run simulates
    # each cell with the run cache off; any other run is a suite sweep.
    exporting = bool(args.csv or spec.obs.trace or spec.obs.metrics
                     or spec.obs.wants_bus())
    with ExitStack() as stack:
        tracer = stack.enter_context(_command_tracer(spec.obs.trace, out))
        session = stack.enter_context(
            _command_bus(spec.obs.events, spec.obs.live, out, tracer))
        profiler = SchedulerProfiler(tracer) if tracer is not None else None
        runner = stack.enter_context(SuiteRunner(
            spec=spec, cache_dir=None if exporting else default_cache_dir(),
            profiler=profiler))
        if exporting:
            # Every cell renders here first; run_many then finds them all.
            for benchmark in benchmarks:
                for mode in modes:
                    result = runner.simulate(benchmark, mode)
                    if args.csv:
                        # Several benchmarks' series must not share a file.
                        cell = (f"{benchmark}_{mode.name}"
                                if len(benchmarks) > 1 else mode.name)
                        path = f"{args.csv.removesuffix('.csv')}_{cell}.csv"
                        write_csv(frame_series(result), path)
                        out.info(f"per-frame series -> {path}")
                    if spec.obs.metrics:
                        records.extend(
                            frame_record(benchmark, mode.name, frame,
                                         result.cost_model,
                                         result.energy_model,
                                         result.features)
                            for frame in result.frames
                        )
                        records.append(
                            run_record(benchmark, mode.name, result))
        cells = runner.run_many(benchmarks, modes)
    if spec.obs.metrics:
        records.insert(0, spec_record(spec))
        records.append({"record": "registry",
                        **global_registry().as_dict()})
        _write_metrics(records, spec.obs.metrics, out)
    if not exporting:
        out.info(runner.cache_summary())
    _ledger_record_suite(spec, runner, session, out, source="run")
    # Tables last, so the primary payload is the tail of the output
    # whatever observability chatter preceded it.
    for benchmark in benchmarks:
        base = cells[(benchmark, modes[0].name)].total_cycles
        rows = []
        for mode in modes:
            metrics = cells[(benchmark, mode.name)]
            geometry, raster = metrics.geometry_cycles, metrics.raster_cycles
            if not metrics.failed:  # a failed cell's NaNs print as nan
                geometry, raster = round(geometry), round(raster)
            rows.append([
                mode.name, geometry, raster, metrics.total_cycles / base,
                metrics.energy_joules * 1e3, metrics.redundant_tile_rate,
                metrics.shaded_fragments_per_pixel,
            ])
        out.result(format_table(
            ["mode", "geom cyc", "raster cyc", "time vs first",
             "energy (mJ)", "tiles skipped", "frags/px"],
            rows,
            title=f"{benchmark} @ {config.screen_width}x"
                  f"{config.screen_height}, {config.frames} frames",
        ))
    return _report_failures(runner, out, spec.resilience.strict)


def _command_figure(args: argparse.Namespace) -> int:
    resolved, spec, out = _resolve(args)
    global_registry().reset()
    with ExitStack() as stack:
        tracer = stack.enter_context(_command_tracer(spec.obs.trace, out))
        session = stack.enter_context(
            _command_bus(spec.obs.events, spec.obs.live, out, tracer))
        profiler = SchedulerProfiler(tracer) if tracer is not None else None
        with SuiteRunner(spec=spec,
                         cache_dir=default_cache_dir(),
                         profiler=profiler) as runner:
            subset = list(spec.workload.benchmarks) or None
            result = _FIGURES[args.figure](runner, subset)
            out.result(result.render())
            out.info(runner.cache_summary())
            if spec.obs.metrics:
                records = [spec_record(spec)]
                records.extend(runner.metrics_records())
                records.append({"record": "registry",
                                **global_registry().as_dict()})
                _write_metrics(records, spec.obs.metrics, out)
            status = _report_failures(runner, out, spec.resilience.strict)
        _ledger_record_suite(spec, runner, session, out, source="figure")
    return status


def _command_render(args: argparse.Namespace) -> int:
    resolved, spec, out = _resolve(args)
    config = spec.gpu
    stream = benchmark_stream(args.benchmark, config)
    mode = get_technique(args.mode)
    os.makedirs(args.output, exist_ok=True)
    gpu = GPU.from_spec(spec, mode)
    for frame in stream:
        result = gpu.render_frame(frame)
        path = os.path.join(
            args.output, f"{args.benchmark}_{frame.index:03d}.ppm"
        )
        write_ppm(path, result.image)
        out.info(f"frame {frame.index}: {result.stats.fragments_shaded} "
                 f"fragments, {result.stats.tiles_skipped} tiles skipped "
                 f"-> {path}")
    return 0


def _command_report(args: argparse.Namespace) -> int:
    resolved, spec, out = _resolve(args)
    global_registry().reset()
    with ExitStack() as stack:
        tracer = stack.enter_context(_command_tracer(spec.obs.trace, out))
        session = stack.enter_context(
            _command_bus(spec.obs.events, spec.obs.live, out, tracer))
        profiler = SchedulerProfiler(tracer) if tracer is not None else None
        with SuiteRunner(spec=spec,
                         cache_dir=default_cache_dir(),
                         profiler=profiler) as runner:
            report = render_report(runner)
            summary = runner.cache_summary()
            records = (runner.metrics_records() if spec.obs.metrics else [])
        _ledger_record_suite(spec, runner, session, out, source="report")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        out.info(f"report written to {args.output}")
    else:
        out.result(report)
    out.info(summary)
    if spec.obs.metrics:
        records.insert(0, spec_record(spec))
        records.append({"record": "registry", **global_registry().as_dict()})
        _write_metrics(records, spec.obs.metrics, out)
    return _report_failures(runner, out, spec.resilience.strict)


def _command_profile(args: argparse.Namespace) -> int:
    """Render one (benchmark, mode) run under a tracer + profiler and
    print the phase, job and worker-occupancy breakdowns.  As under
    ``run``, ``--trace`` is written even when the run raises, and the
    cell is appended to the ledger."""
    resolved, spec, out = _resolve(args)
    config = spec.gpu
    mode = get_technique(args.mode)
    global_registry().reset()
    with ExitStack() as stack:
        tracer = stack.enter_context(_command_tracer(spec.obs.trace, out))
        if tracer is None:  # the breakdowns need one, written or not
            tracer = ChromeTracer()
            stack.enter_context(tracing(tracer))
        profiler = SchedulerProfiler(tracer)
        session = stack.enter_context(
            _command_bus(spec.obs.events, spec.obs.live, out, tracer))
        runner = stack.enter_context(SuiteRunner(spec=spec,
                                                 profiler=profiler))
        runner.simulate(args.benchmark, mode)
    _ledger_record_suite(spec, runner, session, out, source="profile")

    phase_rows = [
        [row["span"], row["count"], row["total_ms"], row["mean_ms"]]
        for row in phase_breakdown(tracer)
    ]
    out.result(format_table(
        ["span", "count", "total ms", "mean ms"], phase_rows,
        title=f"phase breakdown: {args.benchmark}:{mode.name} @ "
              f"{config.screen_width}x{config.screen_height}, "
              f"{config.frames} frames",
    ))
    jobs = profiler.job_summary()
    out.result(format_table(
        ["tile jobs", "busy ms", "mean ms", "max ms",
         "mean wait ms", "max wait ms"],
        [[jobs["jobs"], jobs["busy_seconds"] * 1e3,
          jobs["mean_seconds"] * 1e3, jobs["max_seconds"] * 1e3,
          jobs["mean_queue_wait_seconds"] * 1e3,
          jobs["max_queue_wait_seconds"] * 1e3]],
        title="tile jobs",
    ))
    worker_rows = [
        [row["worker"], row["jobs"], row["busy_seconds"] * 1e3,
         row["occupancy"]]
        for row in profiler.worker_summary()
    ]
    out.result(format_table(
        ["worker", "jobs", "busy ms", "occupancy"], worker_rows,
        title="worker occupancy",
    ))
    if spec.obs.metrics:
        _write_metrics(
            [spec_record(spec),
             {"record": "registry", **global_registry().as_dict()}],
            spec.obs.metrics, out,
        )
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    out = _make_output(args)
    cache = DiskCache(args.dir or default_cache_dir())
    if args.action == "clear":
        removed = cache.clear()
        out.result(f"removed {removed} cached runs ({cache.directory})")
    elif args.action == "gc":
        kept, removed = cache.gc_quarantine(args.keep)
        out.result(f"quarantine gc: kept {kept}, removed {removed} "
                   f"(newest {args.keep}, {cache.quarantine_dir()})")
    else:  # info
        out.result(f"cache directory: {cache.directory}")
        out.result(f"cached runs: {cache.size()}")
    return 0


def _entry_stamp(entry: Dict[str, Any]) -> str:
    ts = entry.get("ts")
    when = (time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(ts))
            if ts else "-")
    sha = (entry.get("git_sha") or "-")[:9]
    return f"{when}  {sha:<9}"


def _command_bench(args: argparse.Namespace) -> int:
    out = _make_output(args)
    ledger = RunLedger(args.ledger)
    if args.history:
        # Ratio trajectory straight from the ledger; does not run the
        # bench.
        entries = [entry for entry in ledger.entries()
                   if entry.get("kind") == "bench"
                   and entry.get("preset") == args.preset]
        if not entries:
            where = ledger.path if ledger.enabled else "ledger disabled"
            out.result(f"no bench history for preset {args.preset!r} "
                       f"({where})")
            return 0
        out.result(f"bench history: preset {args.preset} "
                   f"({len(entries)} entries, {ledger.path})")
        names = sorted({name for entry in entries
                        for name in entry.get("speedup", {})})
        for entry in entries:
            ratios = "  ".join(
                f"{name} x{entry['speedup'][name]:.2f}"
                for name in names if name in entry.get("speedup", {}))
            out.result(f"{_entry_stamp(entry)}  {ratios or '-'}")
        return 0
    with _command_bus(args.events or "", args.live, out):
        record = run_bench(args.preset, backends=args.backends,
                           repeat=args.repeat)
    path = args.output or f"BENCH_{args.preset}.json"
    write_bench_json(record, path)
    out.result(format_bench_summary(record))
    out.result(f"wrote {path}")
    if ledger.record_bench(record) is not None:
        out.detail(f"ledger: bench entry -> {ledger.path}")
    if args.check:
        failures = check_bench_regression(record, args.check,
                                          args.tolerance)
        for failure in failures:
            print(f"repro bench: REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        out.result(f"no regression against {args.check} "
                   f"(tolerance {args.tolerance:.0%})")
    return 0


def _command_ledger(args: argparse.Namespace) -> int:
    out = _make_output(args)
    ledger = RunLedger(args.ledger)
    if not ledger.enabled:
        print("repro ledger: the ledger is disabled (--ledger off / "
              "$REPRO_LEDGER_DIR)", file=sys.stderr)
        return 2
    if args.action == "gc":
        kept, dropped = ledger.gc(args.keep)
        out.result(f"ledger gc: kept {kept}, dropped {dropped} "
                   f"(newest {args.keep} per group, {ledger.path})")
        return 0
    if args.action == "check":
        findings = ledger.check(rate_tolerance=args.rate_tolerance,
                                ratio_tolerance=args.tolerance)
        for finding in findings:
            print(f"repro ledger: DRIFT: {finding}", file=sys.stderr)
        if findings:
            return 1
        groups = ledger.groups()
        gated = sum(1 for group in groups.values() if len(group) >= 2)
        out.result(f"ledger check: no drift ({gated} of {len(groups)} "
                   f"groups have history to gate against)")
        return 0
    entries = ledger.entries()
    if not entries:
        out.result(f"ledger empty ({ledger.path})")
        return 0
    if args.action == "list":
        out.result(f"ledger: {len(entries)} entries ({ledger.path})")
        for line in format_ledger_rows(entries):
            out.result(line)
        return 0
    if args.action == "show":
        index = len(entries) - 1
        if args.refs:
            try:
                index = int(args.refs[0])
            except ValueError:
                raise SpecError(
                    f"repro ledger show takes an entry index "
                    f"(from `ledger list`), got {args.refs[0]!r}"
                )
        if not -len(entries) <= index < len(entries):
            raise SpecError(
                f"ledger entry index {index} out of range "
                f"(0..{len(entries) - 1})"
            )
        out.result(json.dumps(entries[index], indent=2, sort_keys=True))
        return 0
    # diff: newest two entries of each group (optionally filtered by a
    # substring of the group label, e.g. `repro ledger diff tib:evr`).
    shown = 0
    for key, group in sorted(ledger.groups().items()):
        if len(group) < 2:
            continue
        label = entry_label(group[-1])
        if args.refs and not any(ref in label for ref in args.refs):
            continue
        out.result(f"{label}  ({_entry_stamp(group[-2])} -> "
                   f"{_entry_stamp(group[-1])})")
        for line in diff_entries(group[-2], group[-1]):
            out.result(line)
        shown += 1
    if not shown:
        out.result("ledger diff: no group has two entries to compare"
                   + (f" matching {args.refs}" if args.refs else ""))
    return 0


def _command_dashboard(args: argparse.Namespace) -> int:
    out = _make_output(args)
    ledger = RunLedger(args.ledger)
    path = write_dashboard(args.output, ledger,
                           events_path=args.events or None,
                           metrics_path=args.metrics or None)
    entries = ledger.entries()
    out.result(f"dashboard ({len(entries)} ledger entries) -> {path}")
    return 0


def _command_validate(args: argparse.Namespace) -> int:
    resolved, spec, out = _resolve(args)
    config = spec.gpu
    stream = benchmark_stream(args.benchmark, config)
    corruptor = make_pixel_corruptor(spec.resilience.fault_plan(),
                                     args.benchmark)
    report = validate_stream(stream, config, backends=args.backends,
                             corruptor=corruptor)
    out.result(report.render())
    return 0 if report.passed else 1


def _encode_stream(stream: FrameStream) -> str:
    """The stream's canonical trace serialization, as a string."""
    buffer = io.StringIO()
    save_trace(stream, buffer)
    return buffer.getvalue()


def _command_trace(args: argparse.Namespace) -> int:
    resolved, spec, out = _resolve(args)
    config = spec.gpu

    if args.action == "record":
        target = args.target
        if target in BENCHMARKS:
            stream = benchmark_stream(target, config)
        elif target in family_names():
            stream = family_stream(target, config)
        else:
            raise SpecError(
                f"unknown trace source {target!r}: not a benchmark "
                f"({', '.join(sorted(BENCHMARKS))}) and not a stress "
                f"family ({', '.join(family_names())})"
            )
        path = args.output or f"{target}.trace.json"
        save_trace(stream, path)
        # Round-trip bit-identity: the trace must decode to a stream
        # that re-encodes to the exact same bytes, or the file is not a
        # faithful capture.
        with open(path) as handle:
            reloaded = load_trace(handle)
        if _encode_stream(reloaded) != _encode_stream(stream):
            out.result(f"round-trip MISMATCH: {path} does not re-encode "
                       f"bit-identically; do not trust this capture")
            return 1
        frames = list(stream)
        draws = sum(len(frame.commands) for frame in frames)
        out.result(f"recorded {target}: {len(frames)} frames, {draws} "
                   f"draws -> {path} (round-trip bit-identical)")
        return 0

    # replay
    if not os.path.exists(args.target):
        raise SpecError(f"no trace file at {args.target!r}")
    stream = load_trace(args.target)
    encoded = _encode_stream(stream)
    if _encode_stream(load_trace(io.StringIO(encoded))) != encoded:
        out.result(f"round-trip MISMATCH: {args.target} decodes to a "
                   f"stream that does not re-encode bit-identically")
        return 1
    out.detail(f"replaying {args.target}: {len(stream)} frames "
               f"(round-trip bit-identical)")
    # The filename stem doubles as the fault-plan key, so a quarantined
    # corpus repro (`<family>.trace.json`) replayed with the violation
    # report's fault spec damages the exact same pixels and reproduces
    # the violation standalone.
    stem = os.path.basename(args.target).split(".")[0]
    corruptor = make_pixel_corruptor(spec.resilience.fault_plan(), stem)
    report = validate_stream(stream, config, backends=args.backends,
                             corruptor=corruptor)
    out.result(report.render())
    return 0 if report.passed else 1


def _command_corpus(args: argparse.Namespace) -> int:
    resolved, spec, out = _resolve(args)

    if args.action == "list":
        directory = args.dir
        if directory and os.path.exists(
                os.path.join(directory, MANIFEST_NAME)):
            manifest = read_manifest(directory)
            records = manifest.get("families", {})
            gpu = manifest.get("gpu", {})
            rows = [
                [name, record["frames"], record["draws"],
                 record["triangles"], record["seed"],
                 str(record["sha256"])[:12], record["adversary"]]
                for name, record in sorted(records.items())
            ]
            out.result(format_table(
                ["family", "frames", "draws", "tris", "seed", "sha256",
                 "adversary"],
                rows,
                title=f"corpus at {directory} "
                      f"({gpu.get('screen_width')}x"
                      f"{gpu.get('screen_height')}, "
                      f"{gpu.get('frames')} frames)",
            ))
        else:
            rows = [
                [family.name, family.default_seed, family.adversary,
                 family.description]
                for family in (get_family(name) for name in family_names())
            ]
            out.result(format_table(
                ["family", "seed", "adversary", "stresses"], rows,
                title="registered stress families",
            ))
        return 0

    if args.action == "build":
        directory = args.dir or os.path.join("corpus", "tiny")
        config = spec.gpu
        manifest = build_corpus(directory, config, names=args.families,
                                seed=args.seed)
        records = manifest["families"]
        frames = sum(record["frames"] for record in records.values())
        draws = sum(record["draws"] for record in records.values())
        out.result(f"built {len(records)} families ({frames} frames, "
                   f"{draws} draws) at {config.screen_width}x"
                   f"{config.screen_height} -> {directory}")
        return 0

    # replay: the differential gate.
    if args.dir:
        streams, manifest = load_corpus(args.dir, names=args.families)
        gpu = manifest["gpu"]
        # Replay under the configuration the corpus was generated for,
        # not whatever the local spec happens to resolve to.
        config = GPUConfig(screen_width=gpu["screen_width"],
                           screen_height=gpu["screen_height"],
                           frames=gpu["frames"])
        source = args.dir
    else:
        config = spec.gpu
        names = list(args.families) if args.families else list(family_names())
        streams = {name: family_stream(name, config, seed=args.seed)
                   for name in names}
        source = "generated in-memory"
    backends = list(args.backends) if args.backends \
        else list(available_backends())
    plan = spec.resilience.fault_plan()
    cache = DiskCache(default_cache_dir())
    quarantine = args.quarantine or os.path.join(cache.quarantine_dir(),
                                                 "corpus")
    out.detail(f"corpus replay: {len(streams)} families ({source}), "
               f"backends {', '.join(backends)}"
               + (f", faults {plan.describe()}" if plan is not None else ""))
    global_registry().reset()
    with ExitStack() as stack:
        stack.enter_context(
            _command_bus(spec.obs.events, spec.obs.live, out))
        results = replay_families(
            streams, config,
            backends=backends,
            fault_plan=plan,
            quarantine_dir=quarantine,
            strict=spec.resilience.strict,
            shrink=args.shrink,
            max_shrink_evals=args.max_shrink_evals,
        )
    rows = []
    for result in results:
        shrink_note = ""
        if result.shrunk is not None:
            shrunk = result.shrunk
            shrink_note = (f"{shrunk.original_frames}f/"
                           f"{shrunk.original_draws}d -> "
                           f"{shrunk.frames}f/{shrunk.draws}d")
        rows.append([
            result.family, result.frames, len(result.report.checks),
            len(result.report.failures), f"{result.seconds:.2f}",
            "ok" if result.passed else "VIOLATION", shrink_note,
        ])
    out.result(format_table(
        ["family", "frames", "checks", "failed", "sec", "status",
         "shrunk"],
        rows,
        title=f"corpus replay: {len(results)} families x "
              f"{len(backends)} backend(s)",
    ))
    failed = [result for result in results if not result.passed]
    for result in failed:
        for failure in result.report.failures:
            out.result(f"  {result.family}: {failure}")
        if result.trace_path:
            out.result(f"  quarantined repro: {result.trace_path} "
                       f"(+ {os.path.basename(result.report_path)})")
    if failed:
        if not args.quarantine:
            # The corpus quarantine lives under the disk cache's
            # quarantine directory and shares its retention cap.
            cache.gc_quarantine()
        skipped = len(streams) - len(results)
        out.result(f"{len(failed)} of {len(results)} families violated "
                   f"contracts"
                   + (f" ({skipped} not replayed under --strict)"
                      if skipped else ""))
        return 1
    out.result(f"all {len(results)} families passed "
               f"({', '.join(backends)})")
    return 0


def _spec_ref(ref: str) -> RunSpec:
    """A spec from a preset name or a spec-file path (``spec diff``)."""
    if ref in PRESETS:
        return RunSpec.preset(ref)
    if os.path.exists(ref):
        return RunSpec.from_file(ref)
    raise SpecError(
        f"unknown spec reference {ref!r}: not a preset "
        f"({', '.join(preset_names())}) and no such file"
    )


def _format_value(value: Any) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_format_value(item) for item in value) + "]"
    return repr(value) if isinstance(value, str) else str(value)


def _command_spec(args: argparse.Namespace) -> int:
    resolved, spec, out = _resolve(args)
    if args.action == "show":
        out.result(f"spec_hash: {spec.spec_hash()}")
        out.result(f"layers: {', '.join(resolved.layers)}")
        rows = [
            [path, _format_value(value), resolved.source_of(path)]
            for path, value in flatten_spec(spec)
        ]
        out.result(format_table(["field", "value", "layer"], rows,
                                title="resolved spec"))
        return 0
    if args.action == "dump":
        text = spec.to_toml()
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text)
            out.info(f"spec ({spec.spec_hash()[:12]}) -> {args.output}")
        else:
            out.result(text.rstrip("\n"))
        return 0
    # diff
    if len(args.refs) != 2:
        raise SpecError(
            "repro spec diff needs exactly two references "
            "(presets or spec files), e.g. `repro spec diff paper scaled`"
        )
    left = _spec_ref(args.refs[0])
    right = _spec_ref(args.refs[1])
    differences = left.diff(right)
    if not differences:
        out.result(f"specs are identical (hash {left.spec_hash()[:16]})")
        return 0
    rows = [
        [path, _format_value(a), _format_value(b)]
        for path, a, b in differences
    ]
    out.result(format_table(
        ["field", args.refs[0], args.refs[1]], rows,
        title=f"spec diff ({len(differences)} fields)",
    ))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EVR (HPCA 2019) reproduction: TBR GPU simulator, "
                    "benchmarks and figure regeneration.",
    )
    parser.add_argument(
        "--version", action="version",
        version=(f"repro {__version__} "
                 f"(kernel backends: {', '.join(available_backends())}; "
                 f"default: {DEFAULT_BACKEND})"),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    output_flags = _output_flags_parent()

    subparsers.add_parser("list", help="show the benchmark suite",
                          parents=[output_flags])

    subparsers.add_parser(
        "modes",
        help="list the registered pipeline techniques and their "
             "validation contracts",
        parents=[output_flags],
    )

    run_parser = subparsers.add_parser("run", help="simulate one benchmark",
                                       parents=[output_flags])
    run_parser.add_argument("benchmark", nargs="?", default=None,
                            choices=sorted(BENCHMARKS),
                            help="benchmark alias (default: the spec's "
                                 "workload.benchmarks)")
    run_parser.add_argument(
        "--csv", default="", metavar="PREFIX",
        help="also dump a per-frame CSV per mode to PREFIX_<mode>.csv, "
             "or PREFIX_<benchmark>_<mode>.csv when the run covers "
             "several benchmarks (a trailing .csv on PREFIX is dropped)",
    )
    run_parser.add_argument(
        "--modes", nargs="+", default=None,
        choices=technique_names(include_aliases=True), metavar="MODE",
        help="registered techniques to compare (first is the "
             "normalization base; default baseline re evr; "
             "see `repro modes`)",
    )
    run_parser.add_argument(
        "--mode", default=None,
        choices=technique_names(include_aliases=True), metavar="MODE",
        help="shorthand for --modes with a single technique",
    )
    _add_spec_arguments(run_parser)
    _add_config_arguments(run_parser)
    _add_jobs_argument(run_parser)
    _add_resilience_arguments(run_parser)
    _add_obs_arguments(run_parser)

    figure_parser = subparsers.add_parser(
        "figure", help="regenerate a paper table/figure or an ablation",
        parents=[output_flags],
    )
    figure_parser.add_argument("figure", choices=sorted(_FIGURES))
    figure_parser.add_argument(
        "--benchmarks", nargs="*",
        help="restrict to these benchmark aliases",
    )
    _add_spec_arguments(figure_parser)
    _add_config_arguments(figure_parser)
    _add_jobs_argument(figure_parser)
    _add_resilience_arguments(figure_parser)
    _add_obs_arguments(figure_parser)

    render_parser = subparsers.add_parser(
        "render", help="render a benchmark's frames to PPM files",
        parents=[output_flags],
    )
    render_parser.add_argument("benchmark", choices=sorted(BENCHMARKS))
    render_parser.add_argument(
        "--mode", default="evr",
        choices=technique_names(include_aliases=True), metavar="MODE",
        help="registered technique to render under (see `repro modes`)",
    )
    render_parser.add_argument("--output", default="out_frames")
    _add_spec_arguments(render_parser)
    _add_config_arguments(render_parser)

    report_parser = subparsers.add_parser(
        "report", help="paper-vs-measured markdown report (full suite)",
        parents=[output_flags],
    )
    report_parser.add_argument("--output", default="",
                               help="write to a file instead of stdout")
    _add_spec_arguments(report_parser)
    _add_config_arguments(report_parser)
    _add_jobs_argument(report_parser)
    _add_resilience_arguments(report_parser)
    _add_obs_arguments(report_parser)

    profile_parser = subparsers.add_parser(
        "profile",
        help="profile one run: phase/job/worker time breakdown",
        parents=[output_flags],
    )
    profile_parser.add_argument("benchmark", choices=sorted(BENCHMARKS))
    profile_parser.add_argument(
        "--mode", default="evr",
        choices=technique_names(include_aliases=True), metavar="MODE",
        help="registered technique to profile (see `repro modes`)",
    )
    _add_spec_arguments(profile_parser)
    _add_config_arguments(profile_parser)
    _add_jobs_argument(profile_parser)
    _add_obs_arguments(profile_parser)

    bench_parser = subparsers.add_parser(
        "bench",
        help="measure backend throughput; emit BENCH_<preset>.json",
        parents=[output_flags],
    )
    bench_parser.add_argument(
        "--preset", default="default", choices=sorted(BENCH_PRESETS),
        help="bench workload (resolution, frames, geometry load)",
    )
    bench_parser.add_argument(
        "--backends", nargs="+", default=None,
        choices=available_backends(), metavar="BACKEND",
        help="backends to measure (default: all available)",
    )
    bench_parser.add_argument(
        "--repeat", type=int, default=3, metavar="N",
        help="kernel-sweep repetitions; best-of-N is reported",
    )
    bench_parser.add_argument(
        "--output", default="", metavar="FILE",
        help="result JSON path (default BENCH_<preset>.json)",
    )
    bench_parser.add_argument(
        "--check", default="", metavar="BASELINE",
        help="committed baseline JSON to gate against (exit 1 when the "
             "numpy/python speedup ratio regresses beyond --tolerance)",
    )
    bench_parser.add_argument(
        "--tolerance", type=float, default=0.2, metavar="FRAC",
        help="allowed fractional speedup regression for --check "
             "(default 0.2)",
    )
    bench_parser.add_argument(
        "--history", action="store_true",
        help="print the preset's speedup-ratio trajectory from the run "
             "ledger instead of benchmarking",
    )
    bench_parser.add_argument(
        "--events", default=None, metavar="FILE",
        help="stream bench events (per-backend rates, speedup ratios) "
             "to a JSONL log",
    )
    bench_parser.add_argument(
        "--live", action="store_true", default=False,
        help="live terminal progress while the bench runs",
    )
    _add_ledger_argument(bench_parser)

    cache_parser = subparsers.add_parser(
        "cache",
        help="inspect or clear the persistent run cache; gc prunes the "
             "quarantine directory",
        parents=[output_flags],
    )
    cache_parser.add_argument("action", choices=("info", "clear", "gc"))
    cache_parser.add_argument(
        "--dir", default="",
        help="cache directory (default: $REPRO_CACHE_DIR or .repro_cache)",
    )
    cache_parser.add_argument(
        "--keep", type=int, default=DEFAULT_QUARANTINE_KEEP, metavar="N",
        help="for gc: newest quarantined files kept — corrupt cache "
             "entries and corpus violation repros alike "
             f"(default {DEFAULT_QUARANTINE_KEEP})",
    )

    ledger_parser = subparsers.add_parser(
        "ledger",
        help="inspect the persistent run ledger; `check` gates drift",
        parents=[output_flags],
    )
    ledger_parser.add_argument(
        "action", choices=("list", "show", "diff", "gc", "check"),
    )
    ledger_parser.add_argument(
        "refs", nargs="*",
        help="for show: an entry index from `ledger list` (default "
             "newest); for diff: substring filters on the group label",
    )
    _add_ledger_argument(ledger_parser)
    ledger_parser.add_argument(
        "--keep", type=int, default=10, metavar="N",
        help="for gc: newest entries kept per (spec, benchmark, mode) "
             "or bench-preset group (default 10)",
    )
    ledger_parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_RATIO_TOLERANCE,
        metavar="FRAC",
        help="for check: allowed relative drop of a bench speedup ratio "
             f"below the ledger median (default {DEFAULT_RATIO_TOLERANCE})",
    )
    ledger_parser.add_argument(
        "--rate-tolerance", type=float, default=DEFAULT_RATE_TOLERANCE,
        metavar="ABS",
        help="for check: allowed absolute drift of EVR effectiveness "
             f"rates from the ledger median "
             f"(default {DEFAULT_RATE_TOLERANCE})",
    )

    dashboard_parser = subparsers.add_parser(
        "dashboard",
        help="render the run ledger as one self-contained HTML page",
        parents=[output_flags],
    )
    dashboard_parser.add_argument(
        "--output", default="dashboard.html", metavar="FILE",
        help="HTML output path (default dashboard.html)",
    )
    _add_ledger_argument(dashboard_parser)
    dashboard_parser.add_argument(
        "--events", default=None, metavar="FILE",
        help="event JSONL log feeding the worker-occupancy panel",
    )
    dashboard_parser.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="metrics JSONL export feeding the memory-system panel",
    )

    validate_parser = subparsers.add_parser(
        "validate",
        help="verify all modes render identical images on a benchmark",
        parents=[output_flags],
    )
    validate_parser.add_argument("benchmark", choices=sorted(BENCHMARKS))
    _add_backends_argument(validate_parser)
    _add_spec_arguments(validate_parser)
    _add_config_arguments(validate_parser)
    _add_resilience_arguments(validate_parser)

    trace_parser = subparsers.add_parser(
        "trace",
        help="record a benchmark/stress family to a portable trace "
             "file, or replay one through cross-mode validation",
        parents=[output_flags],
    )
    trace_parser.add_argument("action", choices=("record", "replay"))
    trace_parser.add_argument(
        "target",
        help="record: a benchmark alias or stress-family name; "
             "replay: a repro-trace JSON file",
    )
    trace_parser.add_argument(
        "--output", default="", metavar="FILE",
        help="record: trace path (default <target>.trace.json)",
    )
    _add_backends_argument(trace_parser)
    _add_spec_arguments(trace_parser)
    _add_config_arguments(trace_parser)
    _add_resilience_arguments(trace_parser)

    corpus_parser = subparsers.add_parser(
        "corpus",
        help="adversarial stress corpus: build trace families, list "
             "them, replay them through the differential gate",
        parents=[output_flags],
    )
    corpus_parser.add_argument("action", choices=("build", "list", "replay"))
    corpus_parser.add_argument(
        "--dir", default="", metavar="DIR",
        help="corpus directory (build default: corpus/tiny; replay "
             "generates streams in-memory when omitted; list shows the "
             "registry when omitted)",
    )
    corpus_parser.add_argument(
        "--families", nargs="+", default=None, choices=family_names(),
        metavar="FAMILY",
        help="restrict to these stress families (default: all)",
    )
    corpus_parser.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="build/in-memory replay: override every family's default "
             "seed",
    )
    _add_backends_argument(corpus_parser)
    corpus_parser.add_argument(
        "--quarantine", default="", metavar="DIR",
        help="where minimized violating traces and violation reports "
             "land (default: <cache>/quarantine/corpus, bounded by the "
             "disk-cache quarantine retention cap)",
    )
    corpus_parser.add_argument(
        "--no-shrink", dest="shrink", action="store_false", default=True,
        help="quarantine the full violating stream without "
             "delta-debugging it down first",
    )
    corpus_parser.add_argument(
        "--max-shrink-evals", type=int, default=DEFAULT_MAX_EVALS,
        metavar="N",
        help="predicate-evaluation budget for the shrinker "
             f"(default {DEFAULT_MAX_EVALS})",
    )
    _add_spec_arguments(corpus_parser)
    _add_config_arguments(corpus_parser)
    _add_resilience_arguments(corpus_parser)
    _add_obs_arguments(corpus_parser)

    spec_parser = subparsers.add_parser(
        "spec",
        help="show, diff or dump the resolved experiment spec",
        parents=[output_flags],
    )
    spec_parser.add_argument("action", choices=("show", "diff", "dump"))
    spec_parser.add_argument(
        "refs", nargs="*",
        help="for diff: two preset names or spec-file paths",
    )
    spec_parser.add_argument(
        "--output", default="",
        help="for dump: write the TOML here instead of stdout",
    )
    _add_spec_arguments(spec_parser)
    _add_config_arguments(spec_parser)
    _add_jobs_argument(spec_parser)
    _add_resilience_arguments(spec_parser)
    _add_obs_arguments(spec_parser)

    return parser


_COMMANDS = {
    "list": _command_list,
    "modes": _command_modes,
    "run": _command_run,
    "figure": _command_figure,
    "render": _command_render,
    "report": _command_report,
    "profile": _command_profile,
    "validate": _command_validate,
    "trace": _command_trace,
    "corpus": _command_corpus,
    "bench": _command_bench,
    "cache": _command_cache,
    "ledger": _command_ledger,
    "dashboard": _command_dashboard,
    "spec": _command_spec,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, CorpusError, CommandError) as error:
        # SpecError included: a bad spec/flag combination, an unknown
        # or tampered corpus, or an unreadable trace file is a usage
        # error, reported cleanly instead of as a traceback.
        print(f"repro: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
