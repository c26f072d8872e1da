"""Tests for the unified experiment spec (:mod:`repro.spec`).

Covers the properties the rest of the system builds on: serialization
round-trips preserve equality, the canonical hash is stable across
processes and sensitive only to result-affecting fields, resolution
layers compose with correct precedence and provenance, and the CLI's
spec-file path is bit-identical to the equivalent flag path.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.cli import main
from repro.errors import ConfigError, SpecError
from repro.obs.log import reset_warn_once
from repro.spec import (
    PRESETS,
    FeatureOverrides,
    ResilienceSpec,
    RunSpec,
    WorkloadSpec,
    dumps_toml,
    parse_set,
    resolve_spec,
    spec_from_dict,
)
from repro.techniques import BASELINE, EVR

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


class TestRoundTrip:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_toml_round_trip_every_preset(self, preset, tmp_path):
        spec = RunSpec.preset(preset)
        path = str(tmp_path / f"{preset}.toml")
        loaded = RunSpec.from_file(spec.to_file(path))
        assert loaded == spec
        assert loaded.spec_hash() == spec.spec_hash()

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_json_round_trip_every_preset(self, preset, tmp_path):
        spec = RunSpec.preset(preset)
        path = str(tmp_path / f"{preset}.json")
        assert RunSpec.from_file(spec.to_file(path)) == spec

    def test_round_trip_with_non_defaults(self, tmp_path):
        spec = resolve_spec(sets=[
            "features.evr_reorder=false",
            "workload.benchmarks=hop,cde",
            "resilience.retries=3",
            "resilience.job_timeout=12.5",
            "obs.trace=t.json",
            "scheduler.jobs=4",
        ], env={}).spec
        path = str(tmp_path / "custom.toml")
        assert RunSpec.from_file(spec.to_file(path)) == spec

    def test_toml_emitter_parses_with_tomllib(self):
        import tomllib

        text = RunSpec.preset("paper").to_toml()
        data = tomllib.loads(text)
        assert data["gpu"]["screen_width"] == 1196
        assert spec_from_dict(data) == RunSpec.preset("paper")

    def test_float_fields_survive_toml(self, tmp_path):
        # repr(1.0) must emit "1.0" (a TOML float), not "1".
        text = dumps_toml(RunSpec().to_dict())
        assert "voltage_v = 1.0" in text


class TestSpecHash:
    def test_stable_in_fresh_subprocess(self, tmp_path):
        spec = RunSpec.preset("paper")
        path = str(tmp_path / "paper.toml")
        spec.to_file(path)
        script = textwrap.dedent(f"""
            from repro.spec import RunSpec
            print(RunSpec.from_file({path!r}).spec_hash())
        """)
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": SRC},
        ).stdout.strip()
        assert output == spec.spec_hash()

    def test_changed_field_changes_hash(self):
        base = RunSpec()
        changed = resolve_spec(sets=["gpu.frames=11"], env={}).spec
        assert changed.gpu.frames == 11
        assert changed.spec_hash() != base.spec_hash()

    def test_feature_override_changes_hash(self):
        base = RunSpec()
        changed = resolve_spec(sets=["features.evr_reorder=false"],
                               env={}).spec
        assert changed.spec_hash() != base.spec_hash()

    def test_cost_and_energy_change_hash(self):
        base = RunSpec()
        assert resolve_spec(sets=["cost.geometry_scale=9.0"],
                            env={}).spec.spec_hash() != base.spec_hash()
        assert resolve_spec(sets=["energy.alu_op_pj=99.0"],
                            env={}).spec.spec_hash() != base.spec_hash()

    def test_execution_policy_does_not_change_hash(self):
        """Scheduler, resilience, obs and workload are bit-transparent
        execution policy: the engine guarantees identical results under
        any of them, so they must never split the cache."""
        base = RunSpec()
        policy = resolve_spec(sets=[
            "scheduler.jobs=8",
            "resilience.retries=5",
            "resilience.job_timeout=3.0",
            "obs.verbose=true",
            "obs.trace=t.json",
            "workload.benchmarks=hop",
            "workload.modes=evr",
        ], env={}).spec
        assert policy.spec_hash() == base.spec_hash()

    def test_int_float_normalization(self, tmp_path):
        # TOML `job_timeout = 30` (int) and CLI 30.0 must hash alike.
        path = tmp_path / "t.toml"
        path.write_text("[resilience]\njob_timeout = 30\n")
        from_file = RunSpec.from_file(str(path))
        assert from_file.resilience.job_timeout == 30.0
        assert isinstance(from_file.resilience.job_timeout, float)


class TestValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError, match="unknown spec key"):
            spec_from_dict({"gpu": {"screen_widht": 64}})

    def test_unknown_section_rejected(self):
        with pytest.raises(SpecError, match="unknown spec key"):
            spec_from_dict({"gpus": {}})

    def test_type_mismatch_rejected(self):
        with pytest.raises(SpecError, match="expected an integer"):
            spec_from_dict({"gpu": {"frames": "ten"}})
        with pytest.raises(SpecError, match="expected an integer"):
            spec_from_dict({"gpu": {"frames": True}})  # bool is not int

    def test_invalid_mode_rejected(self):
        with pytest.raises(SpecError, match="unknown mode"):
            WorkloadSpec(modes=("warp-speed",))

    def test_invalid_resilience_rejected(self):
        with pytest.raises(SpecError):
            ResilienceSpec(retries=0)
        with pytest.raises(SpecError):
            ResilienceSpec(job_timeout=-1.0)
        with pytest.raises(SpecError, match="inject_faults"):
            ResilienceSpec(inject_faults="explode:2.0")

    def test_gpu_validation_still_applies(self):
        # GPUConfig's own __post_init__ fires through the spec layer.
        with pytest.raises(ConfigError):
            spec_from_dict({"gpu": {"screen_width": -5}})

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read spec file"):
            RunSpec.from_file(str(tmp_path / "missing.toml"))

    def test_invalid_toml_rejected(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("gpu = [unclosed\n")
        with pytest.raises(SpecError, match="invalid TOML"):
            RunSpec.from_file(str(path))


class TestFeatureOverrides:
    def test_apply_overrides_mode_features(self):
        overrides = FeatureOverrides(evr_reorder=False)
        features = overrides.apply(EVR.feature_set)
        assert features.evr_hardware and not features.evr_reorder

    def test_empty_overrides_are_identity(self):
        features = EVR.feature_set
        assert FeatureOverrides().apply(features) is features

    def test_features_for(self):
        spec = resolve_spec(sets=["features.evr_reorder=false"], env={}).spec
        assert not spec.features_for(EVR).evr_reorder
        assert spec.features_for(BASELINE).early_z

    def test_invalid_override_rejected(self):
        with pytest.raises(SpecError):
            FeatureOverrides(fvp_history=0)
        with pytest.raises(SpecError):
            FeatureOverrides(prediction_point="everywhere")


@pytest.fixture
def propagating_logs():
    """Let ``repro.*`` records reach caplog even if an earlier CLI test
    called ``setup_logging`` (which turns propagation off)."""
    import logging

    logger = logging.getLogger("repro")
    saved = logger.propagate
    logger.propagate = True
    yield
    logger.propagate = saved


class TestResolution:
    def test_precedence_preset_file_cli_set(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text("[gpu]\nframes = 7\nscreen_width = 320\n")
        resolved = resolve_spec(
            preset="paper",
            file=str(path),
            cli={"gpu": {"frames": 9}},
            sets=["gpu.screen_height=240"],
            env={},
        )
        spec = resolved.spec
        assert spec.gpu.frames == 9            # cli beats file
        assert spec.gpu.screen_width == 320    # file beats preset
        assert spec.gpu.screen_height == 240   # --set beats everything
        assert resolved.source_of("gpu.frames") == "cli"
        assert resolved.source_of("gpu.screen_width") == f"file:{path}"
        assert resolved.source_of("gpu.screen_height") == "cli:--set"
        assert resolved.source_of("gpu.tile_width") == "default"

    def test_preset_provenance(self):
        resolved = resolve_spec(preset="paper", env={})
        assert resolved.source_of("gpu.screen_width") == "preset:paper"
        assert resolved.source_of("cost") == "default"

    def test_unknown_preset_rejected(self):
        with pytest.raises(SpecError, match="unknown preset"):
            resolve_spec(preset="gigantic", env={})

    def test_env_layer_applies(self):
        resolved = resolve_spec(env={"REPRO_JOBS": "4",
                                     "REPRO_FAULTS": "raise:0.5"})
        assert resolved.spec.scheduler.jobs == 4
        assert resolved.spec.resilience.inject_faults == "raise:0.5"
        assert resolved.source_of("scheduler.jobs") == "env:REPRO_JOBS"
        assert (resolved.source_of("resilience.inject_faults")
                == "env:REPRO_FAULTS")

    def test_cli_beats_env(self):
        resolved = resolve_spec(env={"REPRO_JOBS": "4"},
                                cli={"scheduler": {"jobs": 2}})
        assert resolved.spec.scheduler.jobs == 2
        assert resolved.source_of("scheduler.jobs") == "cli"

    def test_malformed_env_warns_once_and_falls_back(self, caplog,
                                                     propagating_logs):
        reset_warn_once()
        with caplog.at_level("WARNING", logger="repro.spec"):
            first = resolve_spec(env={"REPRO_JOBS": "many"})
            second = resolve_spec(env={"REPRO_JOBS": "many"})
        assert first.spec.scheduler.jobs == 1   # fell back to serial
        assert second.spec.scheduler.jobs == 1
        warnings = [r for r in caplog.records if "REPRO_JOBS" in r.message]
        assert len(warnings) == 1               # one-shot
        assert "'many'" in warnings[0].message  # names the bad value

    def test_malformed_env_faults_warns(self, caplog, propagating_logs):
        reset_warn_once()
        with caplog.at_level("WARNING", logger="repro.spec"):
            resolved = resolve_spec(env={"REPRO_FAULTS": "explode:2.0"})
        assert resolved.spec.resilience.inject_faults == ""
        assert any("REPRO_FAULTS" in r.message for r in caplog.records)

    def test_malformed_env_jobs_warns_in_default_jobs(self, caplog,
                                                      monkeypatch,
                                                      propagating_logs):
        # Satellite: config.default_jobs (the legacy path) also names
        # the bad value instead of swallowing it silently.
        from repro.config import default_jobs

        reset_warn_once()
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with caplog.at_level("WARNING", logger="repro.config"):
            assert default_jobs() == 1
            assert default_jobs() == 1
        warnings = [r for r in caplog.records if "REPRO_JOBS" in r.message]
        assert len(warnings) == 1
        assert "'lots'" in warnings[0].message


class TestParseSet:
    def test_scalars(self):
        assert parse_set("a.b=true") == ("a.b", True)
        assert parse_set("a.b=false") == ("a.b", False)
        assert parse_set("a.b=3") == ("a.b", 3)
        assert parse_set("a.b=2.5") == ("a.b", 2.5)
        assert parse_set("a.b=near") == ("a.b", "near")
        assert parse_set("a.b='true'") == ("a.b", "true")

    def test_lists(self):
        assert parse_set("w.modes=baseline,evr") == (
            "w.modes", ["baseline", "evr"]
        )

    def test_malformed_rejected(self):
        with pytest.raises(SpecError, match="malformed --set"):
            parse_set("no-equals-sign")
        with pytest.raises(SpecError, match="malformed --set"):
            parse_set("=5")

    def test_set_through_scalar_rejected(self):
        with pytest.raises(SpecError, match="not a table"):
            resolve_spec(sets=["gpu.frames.deeper=1"], env={})


class TestResilienceSpecSemantics:
    def test_armed_matrix(self):
        assert not ResilienceSpec().armed
        assert ResilienceSpec(retries=2).armed
        assert ResilienceSpec(job_timeout=1.0).armed
        assert ResilienceSpec(inject_faults="raise:0.1").armed

    def test_hang_scales_with_timeout(self):
        spec = ResilienceSpec(inject_faults="hang:1.0", job_timeout=2.0)
        assert spec.fault_plan().hang_seconds == 4.0
        untimed = ResilienceSpec(inject_faults="hang:1.0")
        assert untimed.fault_plan().hang_seconds == 30.0

    def test_default_attempts_once_armed(self):
        assert ResilienceSpec(job_timeout=1.0).retry_policy().max_attempts == 4


class TestCliIntegration:
    SMALL = ["--frames", "3", "--width", "64", "--height", "48"]

    def test_spec_file_run_matches_flag_run(self, tmp_path, capsys):
        """Acceptance: a spec-file-driven run is bit-identical to the
        equivalent CLI-flag run."""
        # Both quiet: the flag run prints its cache line otherwise.
        assert main(["run", "hop", "--modes", "baseline", "evr", "-q"]
                    + self.SMALL) == 0
        flag_out = capsys.readouterr().out

        path = str(tmp_path / "run.toml")
        resolve_spec(cli={
            "gpu": {"frames": 3, "screen_width": 64, "screen_height": 48},
            "workload": {"benchmarks": ["hop"],
                         "modes": ["baseline", "evr"]},
        }, env={}).spec.to_file(path)
        cache_dir = str(tmp_path / "cache")
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        try:
            assert main(["run", "--spec", path, "-q"]) == 0
            spec_out = capsys.readouterr().out
            # Second identical invocation must be served from the disk
            # cache (hash determinism within and across processes).
            assert main(["run", "--spec", path]) == 0
            second_out = capsys.readouterr().out
        finally:
            del os.environ["REPRO_CACHE_DIR"]
        assert spec_out == flag_out
        assert "run cache: 2 hits, 0 misses" in second_out
        assert second_out.splitlines()[-5:] == flag_out.splitlines()[-5:]

    def test_spec_show_prints_provenance(self, tmp_path, capsys):
        path = str(tmp_path / "s.toml")
        RunSpec.preset("tiny").to_file(path)
        assert main(["spec", "show", "--spec", path,
                     "--set", "gpu.frames=2"]) == 0
        out = capsys.readouterr().out
        assert "spec_hash:" in out
        assert f"file:{path}" in out      # file-layer provenance
        assert "cli:--set" in out         # --set provenance
        assert "default" in out           # untouched fields

    def test_spec_diff_between_presets(self, capsys):
        assert main(["spec", "diff", "paper", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "gpu.screen_width" in out
        assert "1196" in out and "64" in out

    def test_spec_dump_round_trips(self, tmp_path, capsys):
        out_path = str(tmp_path / "dumped.toml")
        assert main(["spec", "dump", "--preset", "paper",
                     "--output", out_path]) == 0
        assert RunSpec.from_file(out_path) == RunSpec.preset("paper")

    def test_bad_spec_is_a_clean_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text("[gpu]\nscreen_widht = 64\n")
        assert main(["run", "hop", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown spec key" in err

    def test_set_override_flows_to_features(self, capsys):
        # --set rendering_elimination on the baseline changes the run.
        assert main(["run", "hop", "--modes", "baseline"]
                    + self.SMALL) == 0
        plain = capsys.readouterr().out
        assert main(["run", "hop", "--modes", "baseline", "--set",
                     "features.rendering_elimination=true"]
                    + self.SMALL) == 0
        with_re = capsys.readouterr().out
        assert plain != with_re


class TestRunnerSpecIdentity:
    def test_spec_supplies_execution_policy(self):
        from repro.harness.runner import SuiteRunner

        spec = resolve_spec(sets=["scheduler.jobs=3",
                                  "resilience.retries=2",
                                  "resilience.strict=true"], env={}).spec
        runner = SuiteRunner(spec=spec)
        assert runner.jobs == 3
        assert runner.retry_policy.max_attempts == 2
        assert runner.spec.resilience.strict
        assert runner.resilient
        runner.close()
