"""Tests for the command-line interface."""

import json
import os

import pytest

import repro.cli
import repro.harness.runner
from repro.cli import build_parser, main
from repro.engine import SerialScheduler
from repro.obs import NULL_TRACER, get_tracer
from repro.spec import spec_from_args


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        # Parser defaults are all None so spec files are never masked by
        # untouched flags; the resolved spec supplies the real defaults.
        args = build_parser().parse_args(["run", "cde"])
        assert args.benchmark == "cde"
        assert args.modes is None
        assert args.frames is None
        spec = spec_from_args(args).spec
        assert spec.workload.modes == ("baseline", "re", "evr")
        assert spec.gpu.frames == 10
        assert spec.gpu.screen_width == 192
        assert spec.gpu.screen_height == 160

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "doom"])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig9"])
        assert args.figure == "fig9"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_verbosity_flags_on_subcommands(self):
        args = build_parser().parse_args(["run", "cde", "-v"])
        assert args.verbose and not args.quiet
        args = build_parser().parse_args(["list", "--quiet"])
        assert args.quiet
        with pytest.raises(SystemExit):  # mutually exclusive
            build_parser().parse_args(["run", "cde", "-v", "-q"])

    def test_obs_flags(self):
        args = build_parser().parse_args(
            ["run", "cde", "--trace", "t.json", "--metrics", "m.jsonl"]
        )
        assert args.trace == "t.json"
        assert args.metrics == "m.jsonl"

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile", "hop"])
        assert args.mode == "evr"
        assert args.trace is None
        assert spec_from_args(args).spec.obs.trace == ""


class TestCommands:
    SMALL = ["--frames", "3", "--width", "64", "--height", "48"]

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Castle Defense" in out

    def test_run(self, capsys):
        assert main(["run", "hop", "--modes", "baseline", "evr"]
                    + self.SMALL) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "evr" in out
        assert "tiles skipped" in out

    def test_second_run_is_served_from_the_run_cache(self, capsys):
        argv = ["run", "hop"] + self.SMALL
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "run cache: 0 hits, 3 misses" in first
        assert "run cache: 3 hits, 0 misses" in second
        # The table: title, header, rule and one row per mode.
        assert second.splitlines()[-6:] == first.splitlines()[-6:]

    def test_figure_table2(self, capsys):
        assert main(["figure", "table2"] + self.SMALL) == 0
        assert "400 MHz" in capsys.readouterr().out

    def test_figure_subset(self, capsys):
        assert main(["figure", "fig9", "--benchmarks", "hop"]
                    + self.SMALL) == 0
        assert "hop" in capsys.readouterr().out

    @pytest.mark.parametrize("prefix, written", [
        ("metrics", "metrics_baseline.csv"),
        ("out.csv", "out_baseline.csv"),
    ])
    def test_run_csv_prefix(self, tmp_path, prefix, written):
        out = tmp_path / "csv"
        out.mkdir()
        assert main(["run", "hop", "--modes", "baseline", "-q",
                     "--csv", str(out / prefix)] + self.SMALL) == 0
        assert os.listdir(out) == [written]
        with open(out / written) as handle:
            assert len(handle.readlines()) == 1 + 3  # header + 3 frames

    def test_run_csv_per_benchmark(self, tmp_path):
        """A run over two benchmarks writes one series per benchmark and
        mode, each the one a single-benchmark run writes."""
        small = ["--modes", "baseline", "-q", "--frames", "2", "--width",
                 "64", "--height", "48"]
        both = tmp_path / "both"
        both.mkdir()
        assert main(["run", "--set", "workload.benchmarks=ata,hop",
                     "--csv", str(both / "out.csv")] + small) == 0
        assert sorted(os.listdir(both)) == ["out_ata_baseline.csv",
                                            "out_hop_baseline.csv"]
        for benchmark in ("ata", "hop"):
            alone = tmp_path / benchmark
            alone.mkdir()
            assert main(["run", benchmark, "--csv", str(alone / "out")]
                        + small) == 0
            with open(alone / "out_baseline.csv") as expected, open(
                    both / f"out_{benchmark}_baseline.csv") as actual:
                assert actual.read() == expected.read()

    def test_render(self, tmp_path, capsys):
        output = str(tmp_path / "frames")
        assert main(["render", "hop", "--output", output, "--mode",
                     "baseline"] + self.SMALL) == 0
        files = sorted(os.listdir(output))
        assert files == ["hop_000.ppm", "hop_001.ppm", "hop_002.ppm"]
        with open(os.path.join(output, files[0]), "rb") as handle:
            assert handle.read(2) == b"P6"

    def test_profile(self, capsys):
        assert main(["profile", "hop", "--mode", "evr"] + self.SMALL) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "geometry" in out and "raster" in out
        assert "worker occupancy" in out
        assert "main" in out  # serial run: everything on the main track


class TestFigureSpecOverrides:
    """Spec feature and cost overrides reach the ablation and analysis
    figures too, not only Figures 6-11."""

    ARGS = ["--frames", "4", "--width", "96", "--height", "80",
            "--benchmarks", "tib", "-q"]

    def _table(self, capsys, figure, *sets):
        argv = ["figure", figure] + self.ARGS
        for expression in sets:
            argv += ["--set", expression]
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_feature_override_changes_ablation(self, capsys):
        default = self._table(capsys, "ablation-point")
        overridden = self._table(capsys, "ablation-point",
                                 "features.evr_reorder=false")
        assert "near" in default
        assert overridden != default

    def test_cost_override_changes_balance(self, capsys):
        def raster_row(text):
            [row] = [line for line in text.splitlines()
                     if line.split()[:2] == ["tib", "raster"]]
            return row

        default = self._table(capsys, "balance")
        overridden = self._table(capsys, "balance",
                                 "cost.tile_schedule_cycles=500")
        assert raster_row(overridden) != raster_row(default)


class TestObservabilityFlags:
    SMALL = ["--frames", "3", "--width", "64", "--height", "48"]

    def test_quiet_suppresses_info_keeps_result(self, tmp_path, capsys):
        output = str(tmp_path / "frames")
        assert main(["render", "hop", "--output", output, "-q",
                     "--mode", "baseline"] + self.SMALL) == 0
        assert capsys.readouterr().out == ""  # per-frame notes are info
        assert len(os.listdir(output)) == 3

    def test_verbose_adds_detail(self, capsys):
        assert main(["run", "hop", "--modes", "baseline", "-v"]
                    + self.SMALL) == 0
        # The suite runner names each cell it simulates on the
        # ``repro.harness`` logger, which -v shows on stderr.
        assert "simulating hop:baseline" in capsys.readouterr().err

    def test_run_trace_and_metrics_export(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.json")
        metrics_path = str(tmp_path / "metrics.jsonl")
        assert main(["run", "hop", "--modes", "baseline", "evr",
                     "--trace", trace_path, "--metrics", metrics_path]
                    + self.SMALL) == 0
        assert get_tracer() is NULL_TRACER  # tracer uninstalled after

        with open(trace_path) as handle:
            trace = json.load(handle)
        cats = {e.get("cat") for e in trace["traceEvents"]}
        assert {"frame", "phase", "tile"} <= cats

        with open(metrics_path) as handle:
            records = [json.loads(line) for line in handle]
        kinds = [r["record"] for r in records]
        assert kinds.count("frame") == 6  # 3 frames x 2 modes
        assert kinds.count("run") == 2
        assert kinds[-1] == "registry"
        run = next(r for r in records
                   if r["record"] == "run" and r["mode"] == "evr")
        assert "poison_rate" in run["fvp_confusion"]
        assert "skip_rate" in run["re"]

    def test_run_metrics_csv(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        assert main(["run", "hop", "--modes", "baseline",
                     "--metrics", path] + self.SMALL) == 0
        with open(path) as handle:
            header = handle.readline()
        assert "fvp_confusion.poison_rate" in header

    def test_run_results_identical_with_observability(self, capsys):
        argv = ["run", "hop", "--modes", "baseline", "evr"] + self.SMALL
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--trace", os.devnull]) == 0
        traced = capsys.readouterr().out
        # The headline table (last 5 lines) is unchanged by tracing.
        assert traced.splitlines()[-5:] == plain.splitlines()[-5:]

    def test_figure_metrics_export(self, tmp_path, capsys):
        path = str(tmp_path / "figure.jsonl")
        assert main(["figure", "fig9", "--benchmarks", "hop",
                     "--metrics", path] + self.SMALL) == 0
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        kinds = [r["record"] for r in records]
        assert "suite-run" in kinds and "suite-summary" in kinds
        summary = next(r for r in records
                       if r["record"] == "suite-summary")
        assert summary["cache_hits"] + summary["cache_misses"] >= 1

    def test_scheduler_closed_when_command_raises(self, monkeypatch):
        closes = []

        class _SpyScheduler(SerialScheduler):
            def close(self):
                closes.append(True)
                super().close()

        class _ExplodingGPU:
            def __init__(self, *args, **kwargs):
                pass

            @classmethod
            def from_spec(cls, spec, mode, scheduler=None, config=None):
                return cls()

            def render_stream(self, stream):
                raise RuntimeError("boom")

        # `repro run` computes its cells through the suite runner, which
        # builds the scheduler and, in its one simulate path, the GPU.
        monkeypatch.setattr(repro.harness.runner, "make_scheduler",
                            lambda jobs, profiler=None: _SpyScheduler())
        monkeypatch.setattr(repro.harness.runner, "GPU", _ExplodingGPU)
        with pytest.raises(RuntimeError):
            main(["run", "hop"] + self.SMALL)
        assert closes  # the with-block released the scheduler anyway
        assert get_tracer() is NULL_TRACER


class TestResilienceFlags:
    SMALL = ["--frames", "2", "--width", "64", "--height", "48"]

    def test_parser_accepts_resilience_flags(self):
        args = build_parser().parse_args(
            ["figure", "fig9", "--inject-faults", "crash:0.2,hang:0.1",
             "--fault-seed", "7", "--retries", "5", "--job-timeout", "30",
             "--strict"]
        )
        assert args.inject_faults == "crash:0.2,hang:0.1"
        assert args.fault_seed == 7
        assert args.retries == 5
        assert args.job_timeout == 30.0
        assert args.strict

    def test_resilience_defaults_disarmed(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        args = build_parser().parse_args(["run", "cde"])
        resilience = spec_from_args(args).spec.resilience
        assert not resilience.armed
        assert resilience.retry_policy() is None
        assert resilience.fault_plan() is None

    def test_env_spec_arms_the_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "raise:0.5")
        args = build_parser().parse_args(["run", "cde"])
        resilience = spec_from_args(args).spec.resilience
        policy = resilience.retry_policy()
        plan = resilience.fault_plan()
        assert policy is not None and policy.max_attempts == 4
        assert plan.rates == {"raise": 0.5}

    def test_retries_alone_arm_policy_without_plan(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        args = build_parser().parse_args(["run", "cde", "--retries", "2"])
        resilience = spec_from_args(args).spec.resilience
        assert resilience.retry_policy().max_attempts == 2
        assert resilience.fault_plan() is None

    def test_run_with_retries_armed_matches_plain_run(self, monkeypatch,
                                                      tmp_path, capsys):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        argv = ["run", "hop", "--modes", "baseline", "evr"] + self.SMALL

        def table(out):
            return [line for line in out.splitlines()
                    if not line.startswith("run cache:")]

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "plain"))
        assert main(argv) == 0
        plain = capsys.readouterr().out
        # Its own cache, so the armed run simulates every cell.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "armed"))
        assert main(argv + ["--retries", "3"]) == 0
        armed = capsys.readouterr().out
        assert "run cache: 0 hits, 2 misses" in armed
        assert table(armed) == table(plain)  # the wrapper is transparent

    def test_figure_with_faults_injected_completes(self, monkeypatch,
                                                   tmp_path, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["figure", "fig9", "--benchmarks", "hop",
                     "--inject-faults", "raise:0.4", "--retries", "6"]
                    + self.SMALL) == 0
        assert "hop" in capsys.readouterr().out

    def test_strict_fails_on_permanent_failures(self, monkeypatch,
                                                tmp_path, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["figure", "fig9", "--benchmarks", "hop",
                "--inject-faults", "raise:1.0", "--retries", "1"] + self.SMALL
        assert main(argv) == 0  # graceful degradation by default
        out = capsys.readouterr().out
        assert "FAILED" in out and "nan" in out
        assert main(argv + ["--strict"]) == 1

    def test_run_reports_failed_cells(self, capsys):
        argv = ["run", "hop", "--modes", "baseline", "evr",
                "--inject-faults", "raise:1.0", "--retries", "1"] + self.SMALL
        assert main(argv) == 0  # graceful degradation by default
        out = capsys.readouterr().out
        assert "FAILED hop:baseline" in out and "FAILED hop:evr" in out
        rows = [line.split() for line in out.splitlines()
                if line.split()[:1] in (["baseline"], ["evr"])]
        assert len(rows) == 2
        assert all(cell == "nan" for row in rows for cell in row[1:])
        assert main(argv + ["--strict"]) == 1

    def test_rerun_recomputes_only_the_missing_cell(self, monkeypatch,
                                                    tmp_path, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["figure", "fig9", "--benchmarks", "hop", "--retries",
                "2"] + self.SMALL
        assert main(argv) == 0
        first = capsys.readouterr().out
        entries = sorted(name for name in os.listdir(tmp_path)
                         if name.endswith(".pkl"))
        assert len(entries) > 1
        # A sweep killed before its last cell settled: one entry gone.
        os.remove(os.path.join(tmp_path, entries[0]))
        assert main(argv) == 0
        rerun = capsys.readouterr().out
        assert (f"run cache: {len(entries) - 1} hits, 1 misses"
                in rerun)
        assert rerun.split("run cache:")[0] == first.split("run cache:")[0]


class TestEventBusCli:
    """`--live` / `--events` through the CLI: ordered streams, plain-line
    fallback, and the headline acceptance check — a fully observed
    ProcessPool run is bit-identical to a bare run."""

    SMALL = ["--frames", "2", "--width", "64", "--height", "48"]

    def test_parser_accepts_bus_flags(self):
        args = build_parser().parse_args(
            ["run", "cde", "--live", "--events", "e.jsonl",
             "--ledger", "off"])
        assert args.live and args.events == "e.jsonl"
        assert args.ledger == "off"
        spec = spec_from_args(args).spec
        assert spec.obs.live and spec.obs.events == "e.jsonl"
        assert spec.obs.wants_bus()

    def test_bus_flags_do_not_change_spec_hash(self):
        bare = spec_from_args(build_parser().parse_args(
            ["run", "cde"])).spec
        observed = spec_from_args(build_parser().parse_args(
            ["run", "cde", "--live", "--events", "e.jsonl"])).spec
        assert bare.spec_hash() == observed.spec_hash()

    def test_live_plain_fallback_lines(self, capsys):
        assert main(["run", "hop", "--modes", "evr", "--live",
                     "--ledger", "off"] + self.SMALL) == 0
        captured = capsys.readouterr()
        # Progress goes to stderr (plain lines when not a TTY); the
        # result table stays alone on stdout.
        assert "start  hop:evr" in captured.err
        assert "done   hop:evr" in captured.err
        assert "frag/s" in captured.err and "cache-ops/s" in captured.err
        assert "geom cyc" in captured.out

    def test_events_stream_is_ordered_and_complete(self, tmp_path,
                                                   capsys):
        path = str(tmp_path / "events.jsonl")
        assert main(["run", "hop", "--modes", "evr", "--events", path,
                     "--ledger", "off"] + self.SMALL) == 0
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        kinds = {r["kind"] for r in records}
        assert {"run-started", "phase-completed", "tile-job-finished",
                "run-finished"} <= kinds

    def test_serial_retries_publish_each_cell_once(self, tmp_path,
                                                   capsys):
        # Fault seed 6 corrupts the first two attempts of cell 1:0 and
        # the first of 1:1; only the kept attempt of each cell may
        # reach the event log.
        path = str(tmp_path / "events.jsonl")
        assert main(["figure", "fig9", "--benchmarks", "hop",
                     "--retries", "6", "--inject-faults", "corrupt:0.5",
                     "--fault-seed", "6", "--events", path,
                     "--ledger", "off"] + self.SMALL) == 0
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        faults = [r for r in records if r["kind"] == "fault-injected"]
        assert len(faults) == 3
        for kind in ("run-started", "run-finished"):
            cells = [(r["benchmark"], r["mode"]) for r in records
                     if r["kind"] == kind]
            assert len(cells) == 3 and len(set(cells)) == 3, kind

    def test_pool_figure_bit_identical_with_full_observability(
            self, tmp_path, monkeypatch, capsys):
        argv = ["figure", "fig9", "--benchmarks", "hop", "--jobs", "2"] \
            + self.SMALL
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "bare"))
        assert main(argv + ["--ledger", "off"]) == 0
        bare = capsys.readouterr().out
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "observed"))
        events = str(tmp_path / "e.jsonl")
        metrics = str(tmp_path / "m.jsonl")
        assert main(argv + ["--live", "--events", events,
                            "--metrics", metrics,
                            "--ledger", str(tmp_path / "ledger")]) == 0
        observed = capsys.readouterr().out
        # The figure table is the tail of the quiet output in both runs.
        assert bare.splitlines()[:4] == observed.splitlines()[:4]
        # Worker events crossed the result channel in order.
        with open(events) as handle:
            records = [json.loads(line) for line in handle]
        assert [r["seq"] for r in records] == \
            sorted(r["seq"] for r in records)
        assert any(r["kind"] == "tile-job-finished" and r["worker"]
                   for r in records)
        # And the run was ledgered with measured phase timings.
        from repro.obs.ledger import RunLedger
        entries = RunLedger(str(tmp_path / "ledger")).entries()
        assert len(entries) == 3
        assert any(entry["phases"].get("raster", 0) > 0
                   for entry in entries)

    def test_profile_records_ledger_entry(self, tmp_path, capsys):
        ledger_dir = str(tmp_path / "ledger")
        assert main(["profile", "hop", "--mode", "evr", "--frames", "2",
                     "--width", "64", "--height", "48",
                     "--ledger", ledger_dir, "-q"]) == 0
        from repro.obs.ledger import RunLedger
        entries = RunLedger(ledger_dir).entries()
        assert len(entries) == 1
        assert (entries[0]["benchmark"], entries[0]["mode"]) == ("hop",
                                                                 "evr")

    def test_bench_records_ledger_entry(self, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        ledger_dir = str(tmp_path / "ledger")
        assert main(["bench", "--preset", "tiny", "--repeat", "1",
                     "--backends", "numpy",
                     "--ledger", ledger_dir, "-q"]) == 0
        from repro.obs.ledger import RunLedger
        entries = RunLedger(ledger_dir).entries()
        assert len(entries) == 1 and entries[0]["kind"] == "bench"
