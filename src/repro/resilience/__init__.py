"""Fault-tolerant execution: fault injection, retries, checkpoint/resume.

This package layers recovery on top of :mod:`repro.engine` without
changing any simulated result:

* :mod:`repro.resilience.faults` — a deterministic, seedable
  fault-injection harness (:class:`FaultPlan`) able to make any job
  raise, hang, corrupt its output or kill its worker, driven by
  ``--inject-faults`` / ``REPRO_FAULTS`` so CI can exercise every
  failure path reproducibly.
* :mod:`repro.resilience.policy` — :class:`RetryPolicy` and the
  deterministic backoff/jitter arithmetic.
* :mod:`repro.resilience.scheduler` — :class:`ResilientScheduler`, a
  wrapper adding per-job timeouts, bounded retries, broken-pool
  rebuilds and serial-fallback degradation to any scheduler.
* :mod:`repro.resilience.journal` — :class:`RunJournal`, the
  crash-durable checkpoint file behind ``--resume``.

The typed failure taxonomy lives in :mod:`repro.errors`
(:class:`~repro.errors.ResilienceError` and friends); counters and trace
events go through :mod:`repro.obs`.
"""

from ..engine.job import CRASH_EXIT_CODE, CorruptedResult
from .faults import (
    FAULT_KINDS,
    FaultPlan,
    ScriptedFaultPlan,
    corrupt_pixel,
    stable_unit,
)
from .journal import RunJournal
from .policy import RetryPolicy, backoff_delay
from .scheduler import JobFailure, ResilientScheduler

__all__ = [
    "CRASH_EXIT_CODE",
    "CorruptedResult",
    "FAULT_KINDS",
    "FaultPlan",
    "JobFailure",
    "ResilientScheduler",
    "RetryPolicy",
    "RunJournal",
    "ScriptedFaultPlan",
    "backoff_delay",
    "corrupt_pixel",
    "stable_unit",
]
