"""The unified experiment spec: one declarative, hashable ``RunSpec``.

The paper's evaluation is a grid of (benchmark x configuration) cells —
Table II hardware parameters crossed with the BASELINE/RE/EVR/ORACLE
feature sets.  Historically each layer of this repository assembled its
cell parameters ad hoc: argparse namespaces in the CLI, env vars
(``REPRO_JOBS``, ``REPRO_FAULTS``), per-subsystem helper functions, and
a hand-rolled cache-key tuple that could silently drift from what
actually varied.  This module replaces all of that with a single frozen,
serializable dataclass tree:

``RunSpec``
    ├── ``gpu``         — :class:`repro.config.GPUConfig` (Table II)
    ├── ``workload``    — benchmarks + pipeline modes to run
    ├── ``features``    — per-field overrides on each mode's feature set
    ├── ``cost``        — :class:`repro.timing.CostParameters`
    ├── ``energy``      — :class:`repro.energy.EnergyParameters`
    ├── ``scheduler``   — worker fan-out (``--jobs``)
    ├── ``resilience``  — retries, timeouts, fault plan, strict
    └── ``obs``         — trace/metrics/events paths, live progress,
                          ledger directory, verbosity

Three properties make it the backbone every layer shares:

* **Layered resolution** (:func:`resolve_spec`): built-in presets →
  spec file (TOML/JSON) → environment → CLI flags → dotted-path
  ``--set key=value`` overrides, with per-field provenance recording
  which layer supplied every value (``repro spec show``).
* **Round-trip serialization**: :meth:`RunSpec.to_file` /
  :meth:`RunSpec.from_file` preserve equality, so a resolved spec can be
  dumped, versioned, and replayed bit-identically.
* **Canonical hashing**: :meth:`RunSpec.spec_hash` digests the
  *result-affecting* sections (``gpu``, ``features``, ``cost``,
  ``energy``) over a normalized JSON form.  Execution policy —
  scheduler fan-out, retries, fault injection, observability — is
  deliberately excluded: the engine guarantees those never change a
  result, so they must never split the cache.  The disk cache keys
  entries by this hash plus the code version.

Validation is eager: unknown keys, type mismatches and inconsistent
values raise :class:`repro.errors.SpecError` at resolution time, before
any simulation starts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import typing
from dataclasses import dataclass, field, fields, replace
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from . import kernels as _kernels
from .config import GPUConfig
from .energy import EnergyParameters
from .errors import ConfigError, SpecError
from .obs.log import verbosity_from_flags, warn_once
from .pipeline.features import PipelineFeatures
from .resilience.faults import FaultPlan
from .resilience.policy import RetryPolicy
from .techniques import (
    Technique,
    get_technique,
    resolve_features,
    unknown_mode_message,
)
from .timing import CostParameters

#: Environment variables folded into the spec's ``env`` layer, mapped to
#: the dotted spec path they set.
ENV_VARS: Dict[str, str] = {
    "REPRO_JOBS": "scheduler.jobs",
    "REPRO_BACKEND": "scheduler.backend",
    "REPRO_FAULTS": "resilience.inject_faults",
}


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadSpec:
    """Which (benchmark, mode) cells a run covers.

    ``benchmarks`` empty means "the command's default" — the full suite
    for figures/reports; an error for ``run``, which needs at least one.
    Benchmark aliases are validated lazily against the scene registry by
    the consumer (the registry is a heavyweight import); mode values are
    validated eagerly here against the technique registry
    (:mod:`repro.techniques`) and canonicalized, so an alias
    (``vrpipe``) and its canonical name (``vrpipe-et``) hash — and
    cache — identically.
    """

    benchmarks: Tuple[str, ...] = ()
    modes: Tuple[str, ...] = ("baseline", "re", "evr")

    def __post_init__(self) -> None:
        canonical: List[str] = []
        for mode in self.modes:
            try:
                canonical.append(get_technique(mode).name)
            except ConfigError:
                raise SpecError(
                    f"workload.modes: {unknown_mode_message(mode)}"
                ) from None
        object.__setattr__(self, "modes", tuple(canonical))
        if not self.modes:
            raise SpecError("workload.modes must name at least one mode")
        for benchmark in self.benchmarks:
            if not benchmark or not isinstance(benchmark, str):
                raise SpecError(
                    f"workload.benchmarks: invalid alias {benchmark!r}"
                )

    def pipeline_modes(self) -> Tuple[Technique, ...]:
        return tuple(get_technique(mode) for mode in self.modes)


@dataclass(frozen=True)
class FeatureOverrides:
    """Optional per-field overrides applied on top of each pipeline
    mode's feature set (``None`` = inherit the mode's value).

    ``--set features.evr_reorder=false`` turns Algorithm-1 reordering
    off in every mode that had it on; cross-flag consistency (e.g.
    ``evr_signature_filter`` requiring ``rendering_elimination``) is
    enforced by :class:`~repro.pipeline.PipelineFeatures` when the
    overrides are applied to a concrete mode.
    """

    early_z: Optional[bool] = None
    rendering_elimination: Optional[bool] = None
    evr_hardware: Optional[bool] = None
    evr_reorder: Optional[bool] = None
    evr_signature_filter: Optional[bool] = None
    oracle_z: Optional[bool] = None
    oracle_redundancy: Optional[bool] = None
    fvp_history: Optional[int] = None
    prediction_point: Optional[str] = None
    subtile_fvp: Optional[bool] = None
    z_prepass: Optional[bool] = None
    hierarchical_z: Optional[bool] = None
    dsr: Optional[bool] = None
    fhv: Optional[bool] = None
    vrpipe_early_termination: Optional[bool] = None
    vrpipe_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if self.fvp_history is not None and self.fvp_history < 1:
            raise SpecError("features.fvp_history must be >= 1")
        if self.vrpipe_threshold is not None and self.vrpipe_threshold < 0.0:
            raise SpecError("features.vrpipe_threshold must be >= 0")
        if self.prediction_point is not None and self.prediction_point not in (
            "near", "centroid", "far"
        ):
            raise SpecError(
                f"features.prediction_point: unknown point "
                f"{self.prediction_point!r} (near, centroid or far)"
            )

    @property
    def overrides(self) -> Dict[str, object]:
        """The non-``None`` fields as a plain dict."""
        return {
            spec_field.name: getattr(self, spec_field.name)
            for spec_field in fields(self)
            if getattr(self, spec_field.name) is not None
        }

    def apply(self, features: PipelineFeatures) -> PipelineFeatures:
        """``features`` with every set override substituted in."""
        overrides = self.overrides
        if not overrides:
            return features
        return replace(features, **overrides)


@dataclass(frozen=True)
class SchedulerSpec:
    """Execution policy: ``--jobs`` / ``REPRO_JOBS`` and ``--backend`` /
    ``REPRO_BACKEND``.

    ``jobs``: 1 (the default) is serial, N >= 2 a process pool of N
    workers, negative one worker per CPU core —
    :func:`repro.engine.make_scheduler` semantics.

    ``backend`` selects the kernel implementation for the fragment hot
    path (:mod:`repro.kernels`) and the memory-system implementation
    used to replay recorded traces (:mod:`repro.memsys` — "numpy" gets
    the batched model, everything else the scalar reference).  Backends
    are bit-identical by contract, which is why this section sits
    outside the spec hash: results computed with either backend share
    cache entries.
    """

    jobs: int = 1
    backend: str = _kernels.DEFAULT_BACKEND

    def __post_init__(self) -> None:
        try:
            normalized = _kernels.normalize_backend(self.backend)
        except ValueError as error:
            raise SpecError(str(error)) from None
        if normalized != self.backend:
            object.__setattr__(self, "backend", normalized)


@dataclass(frozen=True)
class ResilienceSpec:
    """The fault-tolerance bundle (see :mod:`repro.resilience`).

    ``retries``/``job_timeout`` as ``None`` with an empty
    ``inject_faults`` leaves the historical fail-fast path armed —
    exactly the disarmed default the resilient scheduler wraps.
    """

    retries: Optional[int] = None
    job_timeout: Optional[float] = None
    inject_faults: str = ""
    fault_seed: int = 0
    strict: bool = False

    def __post_init__(self) -> None:
        if self.retries is not None and self.retries < 1:
            raise SpecError("resilience.retries must be >= 1")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise SpecError("resilience.job_timeout must be positive")
        if self.inject_faults:
            try:
                FaultPlan.parse(self.inject_faults)
            except ValueError as error:
                raise SpecError(
                    f"resilience.inject_faults: {error}"
                ) from error

    @property
    def armed(self) -> bool:
        """Whether any resilience mechanism was requested."""
        return (bool(self.inject_faults) or self.retries is not None
                or self.job_timeout is not None)

    def retry_policy(self) -> Optional[RetryPolicy]:
        """The scheduler policy, or ``None`` when disarmed (fail-fast)."""
        if not self.armed:
            return None
        return RetryPolicy(
            max_attempts=self.retries if self.retries is not None else 4,
            timeout_seconds=self.job_timeout,
        )

    def fault_plan(self) -> Optional[FaultPlan]:
        """The deterministic fault plan, or ``None`` when none was set."""
        if not self.inject_faults:
            return None
        # An injected hang must outlast the timeout (so the timeout path
        # actually fires) but must never wedge an untimed run for long.
        hang_seconds = 2.0 * self.job_timeout if self.job_timeout else 30.0
        return FaultPlan.parse(self.inject_faults, seed=self.fault_seed,
                               hang_seconds=hang_seconds)


@dataclass(frozen=True)
class ObsSpec:
    """Observability options — never result-affecting by contract.

    ``events`` streams the structured event bus to a JSONL file and
    ``live`` renders it as terminal progress (both install an
    :class:`~repro.obs.events.EventBus` for the invocation).  ``ledger``
    overrides the run-ledger directory (default ``.repro_ledger/`` /
    ``REPRO_LEDGER_DIR``); ``"off"`` disables ledger recording.
    """

    trace: str = ""
    metrics: str = ""
    events: str = ""
    live: bool = False
    ledger: str = ""
    verbose: bool = False
    quiet: bool = False

    def __post_init__(self) -> None:
        if self.verbose and self.quiet:
            raise SpecError("obs.verbose and obs.quiet are exclusive")

    def verbosity(self) -> int:
        return verbosity_from_flags(self.verbose, self.quiet)

    def wants_bus(self) -> bool:
        """Whether this invocation should install a live event bus."""
        return bool(self.events or self.live)


def _default_gpu() -> GPUConfig:
    """The CLI's historical default: scaled screen, 10 frames."""
    return GPUConfig(screen_width=192, screen_height=160, frames=10)


@dataclass(frozen=True)
class RunSpec:
    """Everything that defines one experiment invocation."""

    gpu: GPUConfig = field(default_factory=_default_gpu)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    features: FeatureOverrides = field(default_factory=FeatureOverrides)
    cost: CostParameters = field(default_factory=CostParameters)
    energy: EnergyParameters = field(default_factory=EnergyParameters)
    scheduler: SchedulerSpec = field(default_factory=SchedulerSpec)
    resilience: ResilienceSpec = field(default_factory=ResilienceSpec)
    obs: ObsSpec = field(default_factory=ObsSpec)

    #: Sections whose values can change a simulated result.  Scheduler,
    #: resilience and obs are execution policy: the engine guarantees
    #: bit-identical results under any of them, so they are excluded
    #: from the identity hash (and hence from cache keys) by design.
    RESULT_SECTIONS = ("gpu", "features", "cost", "energy")

    # -- construction -------------------------------------------------------

    @classmethod
    def preset(cls, name: str) -> "RunSpec":
        """One of the built-in presets (``default``, ``paper``,
        ``scaled``, ``tiny``), fully resolved."""
        return resolve_spec(preset=name, env={}).spec

    @classmethod
    def from_file(cls, path: str) -> "RunSpec":
        """Load a spec from a TOML (default) or JSON file."""
        return spec_from_dict(_load_spec_file(path))

    @classmethod
    def from_config(cls, config: GPUConfig, **sections: Any) -> "RunSpec":
        """A spec wrapping an already-built :class:`GPUConfig` (the
        bridge for callers that predate the spec layer)."""
        return cls(gpu=config, **sections)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The spec as a nested plain dict (``None`` fields omitted)."""
        return _plain(self)

    def to_file(self, path: str) -> str:
        """Write the spec to ``path`` (TOML, or JSON for ``.json``);
        returns ``path`` so ``RunSpec.from_file(spec.to_file(p))``
        round-trips in one expression."""
        data = self.to_dict()
        if path.endswith(".json"):
            text = json.dumps(data, indent=2, sort_keys=True) + "\n"
        else:
            text = dumps_toml(data)
        with open(path, "w") as handle:
            handle.write(text)
        return path

    def to_toml(self) -> str:
        return dumps_toml(self.to_dict())

    # -- identity -----------------------------------------------------------

    def identity(self) -> Dict[str, Any]:
        """The result-affecting subset, as a normalized plain dict."""
        data = self.to_dict()
        return {section: data[section] for section in self.RESULT_SECTIONS}

    def spec_hash(self) -> str:
        """Canonical content hash of the result-affecting sections.

        Computed over sorted-key compact JSON of :meth:`identity`, so it
        is stable across processes, platforms and field ordering — the
        key the disk cache builds on.
        """
        canonical = json.dumps(self.identity(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    # -- derived ------------------------------------------------------------

    def features_for(self, mode: Union[Technique, PipelineFeatures, str]
                     ) -> PipelineFeatures:
        """The concrete feature set for ``mode`` (any technique
        designator the registry resolves, or a raw feature set) under
        this spec's overrides."""
        return self.features.apply(resolve_features(mode))

    def diff(self, other: "RunSpec") -> List[Tuple[str, Any, Any]]:
        """Field-wise differences: ``(dotted_path, self_value,
        other_value)`` rows, sorted by path."""
        mine = dict(flatten_spec(self))
        theirs = dict(flatten_spec(other))
        rows = []
        for path in sorted(set(mine) | set(theirs)):
            a = mine.get(path, None)
            b = theirs.get(path, None)
            if a != b:
                rows.append((path, a, b))
        return rows


# ---------------------------------------------------------------------------
# Plain-dict conversion (dataclass tree <-> nested dicts)
# ---------------------------------------------------------------------------

def _plain(value: Any) -> Any:
    """Dataclass tree -> nested plain dict/list (``None`` leaves omitted,
    so the result is TOML-representable)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            spec_field.name: _plain(getattr(value, spec_field.name))
            for spec_field in fields(value)
            if getattr(value, spec_field.name) is not None
        }
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    return value


def _type_name(annotation: Any) -> str:
    return getattr(annotation, "__name__", str(annotation))


def _coerce(value: Any, annotation: Any, path: str) -> Any:
    """Coerce a parsed TOML/JSON/CLI value to ``annotation``.

    Normalization matters for hashing: ``job_timeout = 30`` in a file
    must equal ``30.0`` from the CLI, so float fields always coerce.
    Bools are *not* accepted where ints are expected (TOML and Python
    agree they are distinct; ``True`` silently meaning 1 hides typos).
    """
    origin = typing.get_origin(annotation)
    if origin is Union:
        args = [a for a in typing.get_args(annotation) if a is not type(None)]
        if value is None:
            return None
        return _coerce(value, args[0], path)
    if origin in (tuple, Tuple):
        args = typing.get_args(annotation)
        if isinstance(value, str) and args and args[0] is str:
            value = [part.strip() for part in value.split(",") if part.strip()]
        if not isinstance(value, (list, tuple)):
            raise SpecError(f"{path}: expected a list, got {value!r}")
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_coerce(item, args[0], f"{path}[{i}]")
                         for i, item in enumerate(value))
        if len(args) != len(value):
            raise SpecError(
                f"{path}: expected {len(args)} elements, got {len(value)}"
            )
        return tuple(_coerce(item, arg, f"{path}[{i}]")
                     for i, (item, arg) in enumerate(zip(value, args)))
    if dataclasses.is_dataclass(annotation):
        if not isinstance(value, Mapping):
            raise SpecError(f"{path}: expected a table, got {value!r}")
        return _dataclass_from_dict(annotation, value, path)
    if annotation is bool:
        if not isinstance(value, bool):
            raise SpecError(f"{path}: expected a boolean, got {value!r}")
        return value
    if annotation is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(f"{path}: expected an integer, got {value!r}")
        return value
    if annotation is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(f"{path}: expected a number, got {value!r}")
        return float(value)
    if annotation is str:
        if not isinstance(value, str):
            raise SpecError(f"{path}: expected a string, got {value!r}")
        return value
    raise SpecError(
        f"{path}: unsupported spec field type {_type_name(annotation)}"
    )  # pragma: no cover - every field annotation above is handled


def _dataclass_from_dict(cls: type, data: Mapping[str, Any],
                         path: str = "") -> Any:
    """Build dataclass ``cls`` from ``data`` with eager validation."""
    hints = typing.get_type_hints(cls)
    known = {spec_field.name for spec_field in fields(cls)}
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        dotted = f"{path}.{key}" if path else key
        if key not in known:
            raise SpecError(
                f"unknown spec key {dotted!r} "
                f"(known: {', '.join(sorted(known))})"
            )
        kwargs[key] = _coerce(value, hints[key], dotted)
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as error:
        raise SpecError(f"{path or cls.__name__}: {error}") from error


def spec_from_dict(data: Mapping[str, Any]) -> RunSpec:
    """A validated :class:`RunSpec` from a nested plain dict."""
    if not isinstance(data, Mapping):
        raise SpecError(f"spec root must be a table, got {data!r}")
    return _dataclass_from_dict(RunSpec, data)


def flatten_spec(spec: RunSpec) -> List[Tuple[str, Any]]:
    """Every leaf of the spec as ``(dotted_path, value)`` rows, in
    declaration order — what ``repro spec show`` prints."""
    rows: List[Tuple[str, Any]] = []

    def _walk(value: Any, path: str) -> None:
        if isinstance(value, Mapping):
            for key, item in value.items():
                _walk(item, f"{path}.{key}" if path else key)
        elif (isinstance(value, list) and value
              and isinstance(value[0], Mapping)):
            for index, item in enumerate(value):
                _walk(item, f"{path}[{index}]")
        else:
            rows.append((path, value))

    _walk(spec.to_dict(), "")
    return rows


# ---------------------------------------------------------------------------
# TOML (emit only; parsing uses the stdlib tomllib)
# ---------------------------------------------------------------------------

def _toml_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = repr(value)
        # TOML floats need a decimal point or exponent.
        if "." not in text and "e" not in text and "inf" not in text:
            text += ".0"
        return text
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, list):
        return "[" + ", ".join(_toml_scalar(item) for item in value) + "]"
    raise SpecError(f"cannot serialize {value!r} to TOML")


def _dumps_table(data: Mapping[str, Any], path: str,
                 lines: List[str]) -> None:
    scalars = {k: v for k, v in data.items()
               if not isinstance(v, Mapping)
               and not (isinstance(v, list) and v
                        and isinstance(v[0], Mapping))}
    tables = {k: v for k, v in data.items() if isinstance(v, Mapping)}
    array_tables = {k: v for k, v in data.items()
                    if isinstance(v, list) and v
                    and isinstance(v[0], Mapping)}
    if path and (scalars or not (tables or array_tables)):
        lines.append(f"[{path}]")
    for key, value in scalars.items():
        lines.append(f"{key} = {_toml_scalar(value)}")
    if scalars and (tables or array_tables):
        lines.append("")
    for key, value in array_tables.items():
        dotted = f"{path}.{key}" if path else key
        for item in value:
            lines.append(f"[[{dotted}]]")
            for item_key, item_value in item.items():
                lines.append(f"{item_key} = {_toml_scalar(item_value)}")
            lines.append("")
    for key, value in tables.items():
        dotted = f"{path}.{key}" if path else key
        _dumps_table(value, dotted, lines)
        lines.append("")


def dumps_toml(data: Mapping[str, Any]) -> str:
    """Serialize a nested plain dict as TOML (round-trips through the
    stdlib ``tomllib`` parser)."""
    lines: List[str] = []
    _dumps_table(data, "", lines)
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"


def _load_spec_file(path: str) -> Dict[str, Any]:
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as error:
        raise SpecError(f"cannot read spec file {path!r}: {error}") from error
    if path.endswith(".json"):
        try:
            data = json.loads(blob)
        except ValueError as error:
            raise SpecError(f"{path}: invalid JSON: {error}") from error
    else:
        import tomllib

        try:
            data = tomllib.loads(blob.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise SpecError(f"{path}: invalid TOML: {error}") from error
    if not isinstance(data, dict):
        raise SpecError(f"{path}: spec root must be a table")
    return data


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

#: Built-in presets: overlay dicts applied on top of the defaults.
#: ``paper`` is the faithful Table II run; ``scaled`` matches
#: ``GPUConfig.default()`` (the harness/test configuration); ``tiny``
#: matches ``GPUConfig.tiny()`` (fast smoke runs).
PRESETS: Dict[str, Dict[str, Any]] = {
    "default": {},
    "paper": {"gpu": {"screen_width": 1196, "screen_height": 768,
                      "frames": 60}},
    "scaled": {"gpu": {"screen_width": 192, "screen_height": 160,
                       "frames": 16}},
    "tiny": {"gpu": {"screen_width": 64, "screen_height": 48, "frames": 4}},
}


def preset_names() -> Tuple[str, ...]:
    return tuple(sorted(PRESETS))


# ---------------------------------------------------------------------------
# Layered resolution with provenance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResolvedSpec:
    """A resolved spec plus where every field came from."""

    spec: RunSpec
    provenance: Dict[str, str]
    layers: Tuple[str, ...]

    def source_of(self, path: str) -> str:
        """The layer that supplied ``path`` (longest-prefix match;
        ``default`` when no layer touched it)."""
        probe = path
        while probe:
            if probe in self.provenance:
                return self.provenance[probe]
            # Strip one trailing component ("gpu.caches[0].name" ->
            # "gpu.caches[0]" -> "gpu.caches" -> "gpu").
            for separator in (".", "["):
                index = probe.rfind(separator)
                if index >= 0:
                    probe = probe[:index]
                    break
            else:
                break
        return "default"


def _mark(provenance: Dict[str, str], path: str, value: Any,
          source: str) -> None:
    """Record ``source`` for every leaf under ``path``."""
    if isinstance(value, Mapping):
        if not value:
            provenance[path] = source
        for key, item in value.items():
            _mark(provenance, f"{path}.{key}" if path else key, item, source)
    elif isinstance(value, (list, tuple)) and value and isinstance(
            value[0], Mapping):
        for index, item in enumerate(value):
            _mark(provenance, f"{path}[{index}]", item, source)
    else:
        provenance[path] = source


def _overlay(base: Dict[str, Any], layer: Mapping[str, Any],
             provenance: Dict[str, str], source: str,
             path: str = "") -> None:
    for key, value in layer.items():
        dotted = f"{path}.{key}" if path else key
        if isinstance(value, Mapping) and isinstance(base.get(key), Mapping):
            _overlay(base[key], value, provenance, source, dotted)
        else:
            base[key] = json.loads(json.dumps(value)) if isinstance(
                value, (Mapping, list)) else value
            _mark(provenance, dotted, value, source)


def _set_path(base: Dict[str, Any], path: str, value: Any,
              provenance: Dict[str, str], source: str) -> None:
    parts = path.split(".")
    node = base
    for part in parts[:-1]:
        child = node.get(part)
        if child is None:
            child = node[part] = {}
        if not isinstance(child, Mapping):
            raise SpecError(
                f"--set {path}: {part!r} is a value, not a table"
            )
        node = child
    node[parts[-1]] = value
    _mark(provenance, path, value, source)


def parse_set_value(text: str) -> Any:
    """Parse the value half of a ``--set key=value`` expression.

    ``true``/``false`` -> bool, then int, then float, then a (possibly
    quoted) string; a comma turns the value into a list of scalars
    (``--set workload.modes=baseline,evr``).
    """
    text = text.strip()
    if "," in text:
        return [parse_set_value(part) for part in text.split(",")
                if part.strip()]
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


def parse_set(expression: str) -> Tuple[str, Any]:
    """Split a ``--set key=value`` expression into (dotted path, value)."""
    key, separator, text = expression.partition("=")
    key = key.strip()
    if not separator or not key:
        raise SpecError(
            f"malformed --set {expression!r} (expected key.path=value)"
        )
    return key, parse_set_value(text)


def _env_layers(env: Mapping[str, str]
                ) -> List[Tuple[str, Dict[str, Any]]]:
    """(source, overlay) pairs for the recognized environment variables,
    with one-shot warnings (never errors) for malformed values."""
    layers: List[Tuple[str, Dict[str, Any]]] = []
    jobs_text = env.get("REPRO_JOBS", "")
    if jobs_text:
        try:
            jobs = int(jobs_text)
        except ValueError:
            warn_once(
                "spec", f"REPRO_JOBS={jobs_text}",
                f"ignoring malformed REPRO_JOBS={jobs_text!r} "
                f"(expected an integer); running serial",
            )
        else:
            layers.append(("env:REPRO_JOBS",
                           {"scheduler": {"jobs": jobs}}))
    backend_text = env.get("REPRO_BACKEND", "")
    if backend_text:
        try:
            backend = _kernels.normalize_backend(backend_text)
        except ValueError as error:
            warn_once(
                "spec", f"REPRO_BACKEND={backend_text}",
                f"ignoring malformed REPRO_BACKEND={backend_text!r} "
                f"({error}); using the default backend",
            )
        else:
            layers.append(("env:REPRO_BACKEND",
                           {"scheduler": {"backend": backend}}))
    faults_text = env.get("REPRO_FAULTS", "")
    if faults_text:
        try:
            FaultPlan.parse(faults_text)
        except ValueError as error:
            warn_once(
                "spec", f"REPRO_FAULTS={faults_text}",
                f"ignoring malformed REPRO_FAULTS={faults_text!r} "
                f"({error}); no faults injected",
            )
        else:
            layers.append(("env:REPRO_FAULTS",
                           {"resilience": {"inject_faults": faults_text}}))
    return layers


def resolve_spec(
    preset: Optional[str] = None,
    file: Optional[str] = None,
    cli: Optional[Mapping[str, Any]] = None,
    sets: Sequence[str] = (),
    env: Optional[Mapping[str, str]] = None,
) -> ResolvedSpec:
    """Resolve the spec layers into one validated :class:`RunSpec`.

    Precedence (later wins): built-in defaults -> ``preset`` -> spec
    ``file`` -> environment (``REPRO_JOBS``, ``REPRO_BACKEND``,
    ``REPRO_FAULTS``) -> ``cli``
    overlay -> dotted-path ``sets`` overrides.  Every leaf remembers the
    layer that supplied it (:meth:`ResolvedSpec.source_of`).
    """
    environment = os.environ if env is None else env
    data = _plain(RunSpec())
    provenance: Dict[str, str] = {}
    layers: List[str] = ["default"]
    if preset is not None:
        if preset not in PRESETS:
            raise SpecError(
                f"unknown preset {preset!r} "
                f"(available: {', '.join(preset_names())})"
            )
        _overlay(data, PRESETS[preset], provenance, f"preset:{preset}")
        layers.append(f"preset:{preset}")
    if file:
        _overlay(data, _load_spec_file(file), provenance, f"file:{file}")
        layers.append(f"file:{file}")
    for source, overlay in _env_layers(environment):
        _overlay(data, overlay, provenance, source)
        layers.append(source)
    if cli:
        _overlay(data, cli, provenance, "cli")
        layers.append("cli")
    for expression in sets:
        path, value = parse_set(expression)
        _set_path(data, path, value, provenance, "cli:--set")
        if "cli:--set" not in layers:
            layers.append("cli:--set")
    return ResolvedSpec(spec=spec_from_dict(data), provenance=provenance,
                        layers=tuple(layers))


# ---------------------------------------------------------------------------
# CLI bridge
# ---------------------------------------------------------------------------

def cli_layer_from_args(args: Any) -> Dict[str, Any]:
    """The CLI overlay dict from a parsed argparse namespace.

    Only values the user explicitly supplied are included (argparse
    defaults are ``None``/``False``), so spec-file and preset values are
    never masked by untouched flags.
    """
    layer: Dict[str, Any] = {}

    def put(section: str, key: str, value: Any) -> None:
        if value is not None:
            layer.setdefault(section, {})[key] = value

    put("gpu", "frames", getattr(args, "frames", None))
    put("gpu", "screen_width", getattr(args, "width", None))
    put("gpu", "screen_height", getattr(args, "height", None))

    benchmark = getattr(args, "benchmark", None)
    benchmarks = getattr(args, "benchmarks", None)
    if benchmark is not None:
        put("workload", "benchmarks", [benchmark])
    elif benchmarks:
        put("workload", "benchmarks", list(benchmarks))
    put("workload", "modes", getattr(args, "modes", None))

    put("scheduler", "jobs", getattr(args, "jobs", None))
    put("scheduler", "backend", getattr(args, "backend", None))

    put("resilience", "retries", getattr(args, "retries", None))
    put("resilience", "job_timeout", getattr(args, "job_timeout", None))
    put("resilience", "inject_faults", getattr(args, "inject_faults", None))
    put("resilience", "fault_seed", getattr(args, "fault_seed", None))
    if getattr(args, "strict", False):
        put("resilience", "strict", True)

    put("obs", "trace", getattr(args, "trace", None))
    put("obs", "metrics", getattr(args, "metrics", None))
    put("obs", "events", getattr(args, "events", None))
    put("obs", "ledger", getattr(args, "ledger", None))
    if getattr(args, "live", False):
        put("obs", "live", True)
    if getattr(args, "verbose", False):
        put("obs", "verbose", True)
    if getattr(args, "quiet", False):
        put("obs", "quiet", True)
    return layer


def spec_from_args(args: Any) -> ResolvedSpec:
    """Resolve the full layer stack for one CLI invocation."""
    return resolve_spec(
        preset=getattr(args, "preset", None),
        file=getattr(args, "spec", None),
        cli=cli_layer_from_args(args),
        sets=getattr(args, "set_overrides", None) or (),
    )
