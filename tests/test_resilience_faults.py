"""Tests for the fault-injection harness and retry policy arithmetic.

Everything in :mod:`repro.resilience.faults` / ``.policy`` promises
determinism — the same plan, seed, key and attempt must produce the same
decision (and the same backoff delay) on every run.  These tests pin
that promise, the spec parser, and the fault semantics themselves.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.engine.job import Job
from repro.errors import InjectedFaultError
from repro.resilience import (
    CRASH_EXIT_CODE,
    CorruptedResult,
    FAULT_KINDS,
    FaultPlan,
    RetryPolicy,
    ScriptedFaultPlan,
    backoff_delay,
    corrupt_pixel,
    stable_unit,
)


class TestStableUnit:
    def test_deterministic_and_in_range(self):
        for text in ("", "a", "0|raise|1:3|2", "x" * 1000):
            draw = stable_unit(text)
            assert draw == stable_unit(text)
            assert 0.0 <= draw < 1.0

    def test_distinct_inputs_distinct_draws(self):
        draws = {stable_unit(f"key-{i}") for i in range(100)}
        assert len(draws) == 100


class TestFaultPlanParse:
    def test_empty_spec_is_none(self):
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse("   ") is None
        assert FaultPlan.parse(None) is None

    def test_parse_roundtrip(self):
        plan = FaultPlan.parse("crash:0.2,hang:0.1", seed=7)
        assert plan.rates == {"hang": 0.1, "crash": 0.2}
        assert plan.seed == 7
        reparsed = FaultPlan.parse(plan.describe())
        assert reparsed.rates == plan.rates

    def test_parse_tolerates_spacing_and_blanks(self):
        plan = FaultPlan.parse(" raise:0.5 , ,corrupt:1 ")
        assert plan.rates == {"raise": 0.5, "corrupt": 1.0}

    @pytest.mark.parametrize("spec", ["nonsense:0.5", "raise", "raise:two",
                                      "raise:-0.1", "raise:1.5"])
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_rejects_nonpositive_hang(self):
        with pytest.raises(ValueError):
            FaultPlan({"hang": 0.5}, hang_seconds=0.0)


class TestFaultPlanDecide:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan({"raise": 0.3, "crash": 0.3}, seed=11)
        twin = FaultPlan({"raise": 0.3, "crash": 0.3}, seed=11)
        decisions = [plan.decide(f"1:{i}", attempt)
                     for i in range(50) for attempt in (1, 2)]
        assert decisions == [twin.decide(f"1:{i}", attempt)
                             for i in range(50) for attempt in (1, 2)]
        assert any(kind is not None for kind in decisions)
        assert any(kind is None for kind in decisions)

    def test_seed_decorrelates(self):
        a = FaultPlan({"raise": 0.5}, seed=0)
        b = FaultPlan({"raise": 0.5}, seed=1)
        decisions_a = [a.decide(f"1:{i}", 1) for i in range(64)]
        decisions_b = [b.decide(f"1:{i}", 1) for i in range(64)]
        assert decisions_a != decisions_b

    def test_rate_extremes(self):
        always = FaultPlan({"raise": 1.0})
        never = FaultPlan({"raise": 0.0})
        assert all(always.decide(f"1:{i}", 1) == "raise" for i in range(16))
        assert all(never.decide(f"1:{i}", 1) is None for i in range(16))

    def test_redraws_per_attempt(self):
        plan = FaultPlan({"raise": 0.5}, seed=3)
        outcomes = {plan.decide("1:0", attempt) for attempt in range(1, 20)}
        assert outcomes == {None, "raise"}  # transient, not sticky

    def test_scripted_plan_is_exact(self):
        plan = ScriptedFaultPlan({("1:0", 1): "raise", ("1:2", 2): "crash"})
        assert plan.decide("1:0", 1) == "raise"
        assert plan.decide("1:0", 2) is None
        assert plan.decide("1:2", 2) == "crash"
        assert plan.decide("1:1", 1) is None

    def test_scripted_plan_validates_kinds(self):
        with pytest.raises(ValueError):
            ScriptedFaultPlan({("1:0", 1): "meltdown"})

    def test_fault_kinds_cover_all_paths(self):
        # "pixel" is appended (never inserted) so pre-existing plans
        # keep their draw order.
        assert FAULT_KINDS == ("raise", "corrupt", "hang", "crash",
                               "pixel")


class TestJobFaults:
    """Faults as the job envelope applies them, in the process that runs
    the attempt (:class:`repro.engine.job.Job`)."""

    def test_no_plan_is_passthrough(self):
        assert Job(lambda x: x + 1, key="1:0", attempt=1)(41).result == 42

    def test_raise_fault(self):
        plan = ScriptedFaultPlan({("1:0", 1): "raise"})
        job = Job(lambda x: x, plan=plan, key="1:0", attempt=1)
        with pytest.raises(InjectedFaultError):
            job(0)
        # A different attempt of the same job is clean.
        retry = Job(lambda x: x, plan=plan, key="1:0", attempt=2)
        assert retry(5).result == 5

    def test_corrupt_fault_returns_sentinel(self):
        plan = ScriptedFaultPlan({("1:0", 1): "corrupt"})
        value = Job(lambda x: x, plan=plan, key="1:0", attempt=1)(9).result
        assert isinstance(value, CorruptedResult)
        assert (value.key, value.attempt) == ("1:0", 1)

    def test_hang_fault_completes_normally(self):
        plan = ScriptedFaultPlan({("1:0", 1): "hang"}, hang_seconds=0.01)
        job = Job(lambda x: x * 2, plan=plan, key="1:0", attempt=1)
        assert job(4).result == 8  # merely slow, never wedged

    def test_crash_fault_converted_in_process(self):
        # In the parent process an injected crash must become an
        # ordinary exception — the harness must never kill itself.
        plan = ScriptedFaultPlan({("1:0", 1): "crash"})
        job = Job(lambda x: x, plan=plan, key="1:0", attempt=1)
        with pytest.raises(InjectedFaultError, match="converted in-process"):
            job(0)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_crash_fault_exits_the_worker(self):
        # Anywhere but the parent, an injected crash kills the process
        # with the documented exit code.
        plan = ScriptedFaultPlan({("1:0", 1): "crash"})
        job = Job(lambda x: x, plan=plan, key="1:0", attempt=1)
        worker = multiprocessing.get_context("fork").Process(
            target=job, args=(0,))
        worker.start()
        worker.join(timeout=60)
        assert worker.exitcode == CRASH_EXIT_CODE == 70

    def test_pixel_fault_ignored_by_job_execution(self):
        # Render-level corruption means nothing to the retry machinery:
        # a job under a pixel-only plan must run untouched.
        plan = ScriptedFaultPlan({("1:0", 1): "pixel"})
        job = Job(lambda x: x * 2, plan=plan, key="1:0", attempt=1)
        assert job(4).result == 8


class TestCorruptPixel:
    def test_deterministic_and_single_pixel(self):
        image = np.zeros((8, 12, 4), dtype=np.float64)
        first = corrupt_pixel(image, "corpus/fam/evr/numpy", seed=3)
        second = corrupt_pixel(image, "corpus/fam/evr/numpy", seed=3)
        np.testing.assert_array_equal(first, second)
        assert np.count_nonzero(first != image) == 1
        # The input is never mutated.
        assert not image.any()

    def test_key_and_seed_select_different_pixels(self):
        image = np.zeros((32, 32, 4), dtype=np.float64)
        a = corrupt_pixel(image, "corpus/fam/evr/numpy", seed=0)
        b = corrupt_pixel(image, "corpus/fam/re/numpy", seed=0)
        c = corrupt_pixel(image, "corpus/fam/evr/numpy", seed=1)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_never_a_noop(self):
        # The additive nudge must change the pixel whatever its value.
        image = np.full((4, 4, 4), 0.5, dtype=np.float64)
        corrupted = corrupt_pixel(image, "k", seed=0)
        assert np.count_nonzero(corrupted != image) == 1


class TestRetryPolicy:
    def test_defaults_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 4
        assert policy.timeout_seconds is None

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"timeout_seconds": 0.0},
        {"timeout_seconds": -1.0},
        {"backoff_base": -0.1},
        {"backoff_factor": 0.5},
        {"jitter": 1.5},
        {"max_pool_rebuilds": -1},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestBackoffDelay:
    POLICY = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                         backoff_max=0.5, jitter=0.0)

    def test_exponential_with_cap(self):
        delays = [backoff_delay(self.POLICY, attempt, "k")
                  for attempt in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_max=0.5, jitter=0.25)
        for attempt in (1, 2, 3):
            raw = backoff_delay(self.POLICY, attempt, "k")
            jittered = backoff_delay(policy, attempt, "k")
            assert jittered == backoff_delay(policy, attempt, "k")
            # Jitter only ever shaves: delays land in [0.75*raw, raw].
            assert raw * 0.75 <= jittered <= raw
            expected = raw * (1.0 - 0.25 * stable_unit(f"backoff|k|{attempt}"))
            assert jittered == expected

    def test_jitter_desynchronizes_keys(self):
        policy = RetryPolicy(jitter=0.25)
        assert (backoff_delay(policy, 1, "a")
                != backoff_delay(policy, 1, "b"))

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            backoff_delay(self.POLICY, 0, "k")
