"""Deterministic, seedable fault injection for the execution engine.

A :class:`FaultPlan` decides, for every (job, attempt) pair, whether that
execution should misbehave and how.  Decisions are pure functions of
``(seed, kind, key, attempt)`` — the same plan on the same run produces
the same faults every time, which is what lets CI exercise every failure
path reproducibly and lets a killed-and-resumed run be compared against
an uninterrupted one.

Five fault kinds, mirroring how real suite runs die:

========  ==============================================================
raise     the job raises :class:`~repro.errors.InjectedFaultError`
corrupt   the job completes but returns a
          :class:`~repro.engine.job.CorruptedResult` sentinel in place
          of its real output
hang      the job sleeps for ``hang_seconds`` before completing
          normally (long enough to trip a per-job timeout when one is
          armed; merely slow otherwise — an injected hang can never
          wedge a run forever)
crash     the job kills its worker process with ``os._exit`` (the pool
          breaks); in-process execution converts this to a ``raise``
          so the parent can never kill itself
pixel     a rendered image acquires a deterministic single-pixel diff
          (:func:`corrupt_pixel`).  Render-level corruption recognized
          only by the corpus differential gate; the job envelope
          ignores it, because the retry machinery has no pixels to
          damage
========  ==============================================================

Plans are parsed from ``--inject-faults``/``REPRO_FAULTS`` specs such as
``"crash:0.2,hang:0.1"`` (kind:rate pairs, rates in [0, 1]).  The retry
machinery re-draws per attempt, so a job that crashed on attempt 1 will
usually succeed on attempt 2 — exactly the transient-fault model the
resilient scheduler is built to absorb.

This module only *decides*.  Job-level faults are applied by the job
envelope (:class:`~repro.engine.job.Job`) in the process that executes
the attempt — an injected crash must kill the worker, not the scheduler.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Mapping, Optional, Tuple

#: Recognized fault kinds, in the (fixed) order they are drawn.
#: ``pixel`` is appended so pre-existing plans keep their draw order.
FAULT_KINDS = ("raise", "corrupt", "hang", "crash", "pixel")


def stable_unit(text: str) -> float:
    """A deterministic pseudo-random float in ``[0, 1)`` drawn from
    ``text`` — the same text yields the same draw on every platform,
    process and Python version (unlike ``hash``)."""
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def corrupt_pixel(image, key: str, seed: int = 0):
    """A copy of ``image`` with one deterministically chosen pixel
    nudged off its rendered value.

    The pixel coordinate derives from :func:`stable_unit` over
    ``(seed, key)``, so the same (plan, family, mode, backend) always
    damages the same pixel — which is what lets a quarantined repro
    trace reproduce the violation standalone, and lets the shrinker's
    predicate stay deterministic while frames are cut away.
    """
    height, width = image.shape[:2]
    y = min(height - 1, int(stable_unit(f"{seed}|pixel-y|{key}") * height))
    x = min(width - 1, int(stable_unit(f"{seed}|pixel-x|{key}") * width))
    corrupted = image.copy()
    # An additive nudge can never be a no-op (flipping 0.5 would be).
    corrupted[y, x, 0] += 0.125
    return corrupted


class FaultPlan:
    """Deterministic fault schedule: kind -> injection rate.

    Args:
        rates: mapping of fault kind (see :data:`FAULT_KINDS`) to the
            per-attempt injection probability in ``[0, 1]``.
        seed: decorrelates otherwise-identical plans.
        hang_seconds: how long an injected hang sleeps.
    """

    def __init__(self, rates: Mapping[str, float], seed: int = 0,
                 hang_seconds: float = 30.0):
        for kind, rate in rates.items():
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r} "
                    f"(expected one of {', '.join(FAULT_KINDS)})"
                )
            if not 0.0 <= float(rate) <= 1.0:
                raise ValueError(
                    f"fault rate for {kind!r} must be in [0, 1], "
                    f"got {rate!r}"
                )
        if hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")
        self.rates: Dict[str, float] = {
            kind: float(rates[kind]) for kind in FAULT_KINDS if kind in rates
        }
        self.seed = seed
        self.hang_seconds = float(hang_seconds)

    # -- construction -------------------------------------------------------

    @classmethod
    def parse(cls, spec: str, seed: int = 0,
              hang_seconds: float = 30.0) -> Optional["FaultPlan"]:
        """Parse a ``"crash:0.2,hang:0.1"`` style spec; ``""`` -> None."""
        spec = (spec or "").strip()
        if not spec:
            return None
        rates: Dict[str, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            kind, colon, rate_text = part.partition(":")
            if not colon:
                raise ValueError(
                    f"malformed fault spec {part!r} (expected kind:rate)"
                )
            try:
                rates[kind.strip()] = float(rate_text)
            except ValueError:
                raise ValueError(
                    f"malformed fault rate in {part!r}"
                ) from None
        return cls(rates, seed=seed, hang_seconds=hang_seconds)

    def describe(self) -> str:
        """The plan as a round-trippable spec string."""
        return ",".join(f"{kind}:{rate:g}"
                        for kind, rate in self.rates.items())

    # -- decisions -----------------------------------------------------------

    def decide(self, key: str, attempt: int) -> Optional[str]:
        """The fault kind to inject for this (job, attempt), or None.

        Kinds are drawn independently in :data:`FAULT_KINDS` order; the
        first hit wins, so rates compose like independent hazards.
        """
        for kind, rate in self.rates.items():
            if rate <= 0.0:
                continue
            draw = stable_unit(f"{self.seed}|{kind}|{key}|{attempt}")
            if draw < rate:
                return kind
        return None

    def __repr__(self) -> str:
        return (f"FaultPlan({self.describe()!r}, seed={self.seed}, "
                f"hang_seconds={self.hang_seconds})")


class ScriptedFaultPlan(FaultPlan):
    """A plan whose decisions are an explicit ``(key, attempt) -> kind``
    table — the deterministic building block the fault-path tests use to
    stage exact failure sequences."""

    def __init__(self, script: Mapping[Tuple[str, int], str],
                 hang_seconds: float = 30.0):
        super().__init__({}, seed=0, hang_seconds=hang_seconds)
        for kind in script.values():
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        self.script = dict(script)

    def decide(self, key: str, attempt: int) -> Optional[str]:
        return self.script.get((key, attempt))

    def __repr__(self) -> str:
        return f"ScriptedFaultPlan({len(self.script)} entries)"
