"""Shared infrastructure for the figure-regeneration bench targets.

All bench targets share one memoizing :class:`SuiteRunner`, built from
one :class:`~repro.spec.RunSpec`, so that the ~90 (benchmark, mode)
simulations are executed once per session even though several figures
consume the same runs; the ablation and analysis targets build their
GPUs from the same spec.

Environment knobs:

* ``REPRO_BENCH_FRAMES`` — frames per run (default 10; the paper uses
  60, which also works but takes proportionally longer).
* ``REPRO_BENCH_SUBSET`` — comma-separated benchmark aliases to restrict
  the suite (default: all 20).
* ``REPRO_BENCH_WIDTH`` / ``REPRO_BENCH_HEIGHT`` — screen size (default
  192x160; use 1196x768 for the paper's full resolution).
* ``REPRO_JOBS`` — worker processes for the suite fan-out (default 1 =
  serial; results are bit-identical either way).
* ``REPRO_CACHE_DIR`` — persistent run-cache directory; set
  ``REPRO_BENCH_CACHE=0`` to disable disk caching entirely.

Rendered tables are printed to the terminal (bypassing capture) and
saved under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from typing import List, Optional

import pytest

from repro import GPUConfig, RunSpec, SchedulerSpec
from repro.config import default_jobs
from repro.engine import default_cache_dir
from repro.harness.runner import SuiteRunner

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def bench_spec() -> RunSpec:
    frames = int(os.environ.get("REPRO_BENCH_FRAMES", "10"))
    width = int(os.environ.get("REPRO_BENCH_WIDTH", "192"))
    height = int(os.environ.get("REPRO_BENCH_HEIGHT", "160"))
    config = GPUConfig(screen_width=width, screen_height=height,
                       frames=frames)
    return RunSpec.from_config(
        config, scheduler=SchedulerSpec(jobs=default_jobs()))


def bench_subset() -> Optional[List[str]]:
    subset = os.environ.get("REPRO_BENCH_SUBSET", "")
    if not subset:
        return None
    return [alias.strip() for alias in subset.split(",") if alias.strip()]


@pytest.fixture(scope="session")
def suite_runner():
    cache_dir = (
        None if os.environ.get("REPRO_BENCH_CACHE", "1") == "0"
        else default_cache_dir()
    )
    with SuiteRunner(bench_spec(), cache_dir=cache_dir) as runner:
        yield runner
        print(f"\n{runner.cache_summary()}")


@pytest.fixture(scope="session")
def subset() -> Optional[List[str]]:
    return bench_subset()


def publish(capsys, result) -> None:
    """Print a figure's table (bypassing capture) and save it."""
    text = result.render()
    with capsys.disabled():
        print()
        print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    filename = result.experiment.lower().replace(" ", "_") + ".txt"
    with open(os.path.join(RESULTS_DIR, filename), "w") as handle:
        handle.write(text + "\n")
