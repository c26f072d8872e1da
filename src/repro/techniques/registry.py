"""The technique registry: the mode axis as data.

A :class:`Technique` is a frozen descriptor (name, aliases, feature
construction, validation contract, distilled-metric contributions); every
layer that sweeps modes — the spec, the validator, the corpus gate, the
harness and the CLI — resolves mode names through this registry.  A mode
is a :class:`Technique` or a registered name (or alias); nothing else.

Design constraints the descriptor honors:

* **The name is the identity.**  ``technique.name`` is the string that
  appears in cache keys, run-ledger entries and check labels, so those
  stay byte-identical however a mode was designated.
* **Picklable.**  Descriptors ride inside scheduler payloads
  (``SuiteRunner`` fan-out) and must cross process boundaries; they
  therefore carry no callables.  Per-technique metric extractors live in
  a module-level table keyed by name (:func:`register_metric_extractor`)
  and are looked up parent-side only.
* **Hashable.**  ``(benchmark, technique)`` is a memo/cache key in the
  harness, so the descriptor (and its ``PipelineFeatures``) stays a
  frozen dataclass.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..errors import ConfigError
from ..pipeline.features import PipelineFeatures

__all__ = [
    "Technique",
    "register",
    "register_metric_extractor",
    "get_technique",
    "resolve_technique",
    "resolve_features",
    "default_modes",
    "technique_names",
    "metric_extras",
]


@dataclass(frozen=True)
class Technique:
    """One registered pipeline technique.

    Attributes:
        name: canonical registry name — the string that appears in
            ``workload.modes``, cache keys, ledger entries and check
            labels.
        summary: one-line description for ``repro modes``.
        feature_set: the :class:`PipelineFeatures` combination the
            technique stands for.
        aliases: alternative names accepted anywhere a mode name is
            (CLI, specs); resolution is case-insensitive.
        kind: ``"paper"`` (the reference set), ``"alternative"``
            (Section IV-A/VIII culling mechanisms) or ``"rival"``
            (successor techniques from the lineage).
        pixel_exact: validation contract — ``True`` means the technique
            must reproduce baseline images bit-exactly; ``False`` means
            it is an approximation bounded by ``error_tolerance``.
        error_tolerance: for approximate techniques, the maximum
            per-frame mean absolute color error (per channel, in the
            0..1 float color scale) ``repro validate`` accepts against
            baseline.
        citation: where the technique comes from.
    """

    name: str
    summary: str
    feature_set: PipelineFeatures
    aliases: Tuple[str, ...] = ()
    kind: str = "paper"
    pixel_exact: bool = True
    error_tolerance: float = 0.0
    citation: str = ""

    def __post_init__(self) -> None:
        if not self.name or self.name != self.name.strip().lower():
            raise ConfigError(
                f"technique name must be non-empty lowercase: {self.name!r}"
            )
        if self.kind not in ("paper", "alternative", "rival"):
            raise ConfigError(f"unknown technique kind {self.kind!r}")
        if self.pixel_exact and self.error_tolerance:
            raise ConfigError(
                f"{self.name}: pixel-exact techniques take no error tolerance"
            )
        if not self.pixel_exact and self.error_tolerance <= 0.0:
            raise ConfigError(
                f"{self.name}: approximate techniques need error_tolerance > 0"
            )

    @property
    def paper(self) -> bool:
        return self.kind == "paper"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: Registration order defines the default validation/corpus matrix order.
_REGISTRY: Dict[str, Technique] = {}
_ALIASES: Dict[str, str] = {}
#: name -> RunResult -> {metric: value}; kept out of Technique for pickling.
_EXTRACTORS: Dict[str, Callable[[object], Dict[str, float]]] = {}


def register(technique: Technique) -> Technique:
    """Add a technique to the registry; duplicate names/aliases reject."""
    claimed = (technique.name,) + tuple(a.lower() for a in technique.aliases)
    for name in claimed:
        if name in _REGISTRY or name in _ALIASES:
            raise ConfigError(
                f"technique name {name!r} is already registered"
            )
    if len(set(claimed)) != len(claimed):
        raise ConfigError(
            f"technique {technique.name!r} repeats a name in its aliases"
        )
    _REGISTRY[technique.name] = technique
    for alias in technique.aliases:
        _ALIASES[alias.lower()] = technique.name
    return technique


def register_metric_extractor(
    name: str, extractor: Callable[[object], Dict[str, float]]
) -> None:
    """Attach a distilled-metric extractor (``RunResult -> dict``) to a
    registered technique.  Extractors feed ``RunMetrics.extra``."""
    get_technique(name)  # must exist
    _EXTRACTORS[get_technique(name).name] = extractor


def metric_extras(name: str, result: object) -> Dict[str, float]:
    """Distilled per-technique metrics for one run (empty if none)."""
    extractor = _EXTRACTORS.get(name)
    return dict(extractor(result)) if extractor is not None else {}


def get_technique(name: str) -> Technique:
    """Resolve a mode name or alias; unknown names raise with the
    registered names and the closest match."""
    key = str(name).strip().lower()
    key = _ALIASES.get(key, key)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ConfigError(unknown_mode_message(name)) from None


def unknown_mode_message(name: str) -> str:
    """The diagnostic for an unregistered mode name (shared with
    ``repro.spec`` so CLI and spec errors read identically)."""
    known = sorted(_REGISTRY) + sorted(_ALIASES)
    close = difflib.get_close_matches(str(name).strip().lower(), known, n=1)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    return (
        f"unknown mode {name!r} (registered: "
        f"{', '.join(sorted(_REGISTRY))}){hint}"
    )


def resolve_technique(mode: object) -> Technique:
    """Coerce a :class:`Technique` or a registered name (or alias) to a
    :class:`Technique`; anything else raises :class:`ConfigError`."""
    if isinstance(mode, Technique):
        return mode
    if isinstance(mode, str):
        return get_technique(mode)
    raise ConfigError(f"cannot resolve {mode!r} to a registered technique")


def resolve_features(mode: object) -> PipelineFeatures:
    """Coerce a mode (or a raw :class:`PipelineFeatures`) to the feature
    flags to run."""
    if isinstance(mode, PipelineFeatures):
        return mode
    return resolve_technique(mode).feature_set


def default_modes() -> Tuple[Technique, ...]:
    """Every registered technique, in registration order — the default
    modes × backends matrix for ``repro validate`` and the corpus gate."""
    return tuple(_REGISTRY.values())


def technique_names(include_aliases: bool = False) -> Tuple[str, ...]:
    """Registered canonical names (optionally plus aliases)."""
    names: List[str] = list(_REGISTRY)
    if include_aliases:
        names.extend(sorted(_ALIASES))
    return tuple(names)
