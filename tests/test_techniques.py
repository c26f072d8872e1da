"""Tests for the pluggable technique registry (:mod:`repro.techniques`).

Covers the registry contract (registration, aliasing, resolution,
diagnostics), pickling of technique-bearing payloads through the process
pool, the compatibility guarantees the refactor must uphold (spec-hash
and paper-mode image/metric pins) and FeatureOverrides/PipelineFeatures
field parity.
"""

import hashlib
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro import GPU, GPUConfig, RunSpec
from repro.errors import ConfigError, SpecError
from repro.pipeline import PipelineFeatures
from repro.scenes import benchmark_stream
from repro.techniques import (
    Technique,
    default_modes,
    get_technique,
    metric_extras,
    resolve_features,
    resolve_technique,
    technique_names,
)
from repro.techniques import registry as registry_module


# ---------------------------------------------------------------------------
# Registry contract
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_catalog_registered(self):
        names = technique_names()
        # The four paper modes plus oracle must keep their exact names
        # (cache keys and check labels depend on them), and the catalog
        # must expose at least 7 techniques for `repro modes`.
        for name in ("baseline", "re", "evr", "evr-reorder-only", "oracle"):
            assert name in names
        assert len(names) >= 7

    def test_registration_order_is_paper_first(self):
        kinds = [t.kind for t in default_modes()]
        assert kinds[:5] == ["paper"] * 5

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            registry_module.register(Technique(
                name="baseline", summary="dup",
                feature_set=PipelineFeatures(),
            ))

    def test_duplicate_alias_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            registry_module.register(Technique(
                name="fresh-name", summary="alias clash",
                feature_set=PipelineFeatures(),
                aliases=("vrpipe",),
            ))

    def test_contract_validation(self):
        with pytest.raises(ConfigError, match="no error tolerance"):
            Technique(name="x", summary="s",
                      feature_set=PipelineFeatures(),
                      pixel_exact=True, error_tolerance=0.5)
        with pytest.raises(ConfigError, match="error_tolerance > 0"):
            Technique(name="x", summary="s",
                      feature_set=PipelineFeatures(),
                      pixel_exact=False)
        with pytest.raises(ConfigError, match="kind"):
            Technique(name="x", summary="s",
                      feature_set=PipelineFeatures(), kind="bogus")
        with pytest.raises(ConfigError, match="lowercase"):
            Technique(name="Upper", summary="s",
                      feature_set=PipelineFeatures())

    def test_alias_resolution_case_insensitive(self):
        assert get_technique("vrpipe") is get_technique("vrpipe-et")
        assert get_technique("VR-Pipe") is get_technique("vrpipe-et")
        assert get_technique("EVR") is get_technique("evr")

    def test_unknown_mode_message(self):
        with pytest.raises(ConfigError) as excinfo:
            get_technique("evrr")
        message = str(excinfo.value)
        assert "unknown mode 'evrr'" in message
        assert "registered:" in message
        assert "did you mean 'evr'?" in message

    def test_resolve_technique_accepts_all_designators(self):
        evr = get_technique("evr")
        assert resolve_technique(evr) is evr
        assert resolve_technique("evr") is evr
        with pytest.raises(ConfigError):
            resolve_technique(42)

        class _Designator:
            value = "evr"

        with pytest.raises(ConfigError):
            resolve_technique(_Designator())

    def test_resolve_features_passthrough(self):
        features = PipelineFeatures(hierarchical_z=True)
        assert resolve_features(features) is features
        assert resolve_features("baseline") == PipelineFeatures()

    def test_techniques_pickle_roundtrip(self):
        for technique in default_modes():
            clone = pickle.loads(pickle.dumps(technique))
            assert clone == technique
            assert clone.feature_set == technique.feature_set

    def test_metric_extras_unknown_name_empty(self):
        assert metric_extras("baseline", object()) == {}


# ---------------------------------------------------------------------------
# Techniques survive the process pool (scheduler payloads)
# ---------------------------------------------------------------------------

class TestProcessPoolIntegration:
    @pytest.mark.parametrize("mode", ["dsr", "fhv", "vrpipe-et"])
    def test_parallel_matches_serial(self, mode):
        """Technique-bearing TileJobs (dsr_rate, history) must pickle
        through the pool and render bit-identically to serial."""
        from repro.engine import ProcessPoolScheduler

        config = GPUConfig.tiny(frames=3)
        stream = benchmark_stream("tib", config)
        serial = GPU(config, mode).render_stream(stream)
        with ProcessPoolScheduler(2) as pool:
            parallel = GPU(config, mode,
                           scheduler=pool).render_stream(stream)
        for expected, actual in zip(serial.frames, parallel.frames):
            assert np.array_equal(expected.image, actual.image)
        assert (serial.total_stats(warmup=0).fragments_shaded
                == parallel.total_stats(warmup=0).fragments_shaded)


# ---------------------------------------------------------------------------
# Compatibility pins: the refactor must not move any identity
# ---------------------------------------------------------------------------

#: spec_hash() of each preset, pinned from before the registry refactor.
#: Technique names enter the hash only through workload.modes, so these
#: must never move unless a result-affecting field is added.
_SPEC_HASH_PINS = {
    "default": ("625e77d14c3fd4565fcfb2bdf0f2b3ae"
                "36285bb41c4673a7393bc7d61311af11"),
    "paper": ("433abf0e955961e2197d53db6bf38960"
              "a290d9e6f82d7d79a92a99aa91fd4906"),
    "scaled": ("15dad2f263c6caf1979500571ef5a9c8"
               "0e65a60435846e68eb41ed4503f65bb4"),
    "tiny": ("b0938c70230d4ce8e9018f5db13eefc2"
             "340a8a750fd2a360e9ec733ac804c16b"),
}

#: Image digest of cde @ 64x48, 4 frames — identical for every paper
#: mode (pinned from before the refactor).
_PAPER_IMAGE_DIGEST = (
    "177e80dc12fad6564619f2e7ca79997ac8fbedcf41a0ce1fe80aa17fc51f89b2"
)


def _image_digest(result) -> str:
    digest = hashlib.sha256()
    for frame in result.frames:
        digest.update(np.ascontiguousarray(frame.image).tobytes())
    return digest.hexdigest()


class TestCompatibilityPins:
    @pytest.mark.parametrize("preset", sorted(_SPEC_HASH_PINS))
    def test_spec_hash_unchanged(self, preset):
        assert RunSpec.preset(preset).spec_hash() == _SPEC_HASH_PINS[preset]

    def test_spec_hash_stable_across_processes(self):
        """The hash must be process-independent (no id()/set-order
        leakage) — the disk cache keys on it."""
        script = (
            "import sys; sys.path.insert(0, 'src'); "
            "from repro import RunSpec; "
            "print(RunSpec.preset('default').spec_hash())"
        )
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            cwd=os.path.join(os.path.dirname(__file__), ".."),
        ).stdout.strip()
        assert output == _SPEC_HASH_PINS["default"]

    def test_paper_modes_render_pinned_images(self):
        config = GPUConfig(screen_width=64, screen_height=48, frames=4)
        stream = benchmark_stream("cde", config)
        pins = {
            "baseline": (20089, 0),
            "re": (9964, 25),
            "evr": (9964, 25),
            "evr-reorder-only": (20089, 0),
            "oracle": (20089, 0),
        }
        for name, (shaded, skipped) in pins.items():
            result = GPU(config, name).render_stream(stream)
            assert _image_digest(result) == _PAPER_IMAGE_DIGEST, name
            stats = result.total_stats(warmup=0)
            assert stats.fragments_shaded == shaded, name
            assert stats.tiles_skipped == skipped, name

    def test_alias_and_canonical_share_spec_hash(self):
        from repro.spec import spec_from_dict
        canonical = spec_from_dict({"workload": {"modes": ["vrpipe-et"]}})
        aliased = spec_from_dict({"workload": {"modes": ["vrpipe"]}})
        assert canonical.spec_hash() == aliased.spec_hash()

    def test_unknown_spec_mode_suggests(self):
        from repro.spec import spec_from_dict
        with pytest.raises(SpecError, match="unknown mode"):
            spec_from_dict({"workload": {"modes": ["dsrr"]}})


# ---------------------------------------------------------------------------
# FeatureOverrides stays in lockstep with PipelineFeatures
# ---------------------------------------------------------------------------

class TestFeatureOverridesParity:
    def test_field_parity(self):
        import dataclasses

        from repro.spec import FeatureOverrides

        feature_fields = {f.name for f in
                          dataclasses.fields(PipelineFeatures)}
        override_fields = {f.name for f in
                           dataclasses.fields(FeatureOverrides)}
        missing = feature_fields - override_fields
        assert not missing, (
            f"FeatureOverrides is missing {sorted(missing)} — every "
            f"PipelineFeatures flag must be --set-able"
        )

    def test_rival_flags_overridable(self):
        from repro.spec import spec_from_dict
        spec = spec_from_dict({
            "features": {"vrpipe_threshold": 0.5, "dsr": True},
        })
        features = spec.features.apply(resolve_features("baseline"))
        assert features.vrpipe_threshold == 0.5
        assert features.dsr is True

    def test_vrpipe_threshold_validated(self):
        from repro.spec import FeatureOverrides
        with pytest.raises(SpecError):
            FeatureOverrides(vrpipe_threshold=-0.1)
