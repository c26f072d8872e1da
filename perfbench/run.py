"""The repository benchmark: end-to-end and per-layer metrics, oracle-checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scaled-evr --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` measures untraced and reports every end-to-end metric;
``--trace 1`` spends half the time untraced and half under the layer
probe (``evrbench/layers.py``) and reports every per-layer metric.  Every
output is checked against the scalar ``python`` backend.  Lines starting
with ``#`` are for people; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Workloads are defined in ``evrbench/workloads.py``, metrics in
``evrbench/catalog.py``, and ``manifest.json`` records both with the
machine the committed references were made on.

Other roles: ``--role setup`` is one set-up-time probe process (the
benchmark starts these itself), and ``--role reference`` computes and
stores the committed reference for each seed of a comma-separated
``--seed`` list.

The run writes only under ``.perfbench_work/`` in the checkout: scratch
space for the sweep's disk caches, removed after each run, and the
references computed for seeds that have no committed one, kept for
later runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and check that the
    program really comes from there."""
    sys.path[:0] = [SRC, BENCH_DIR]
    try:
        import repro
    except ImportError as error:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {error}")
    if not os.path.realpath(repro.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("measure", "setup", "reference"),
                        default="measure")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seed.split(",")]
    _import_program()
    from evrbench import bench, oracle
    from evrbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.role == "setup":
        release = bench.prepare(workload, seeds[0], WORK_DIR)
        print(f"READY {time.monotonic()!r}", flush=True)
        release()
        return 0
    if args.role == "reference":
        for seed in seeds:
            oracle.store_reference(workload, seed, oracle.REFERENCE_DIR)
            print(f"stored {workload.name} seed {seed}", flush=True)
        return 0

    import numpy

    def log(line: str) -> None:
        print(f"# {line}", flush=True)

    log(f"workload {workload.name} ({workload.kind}; {workload.loop}) "
        f"seed {seeds[0]}, {args.seconds:g} s, trace {args.trace}")
    log(f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
        f"{os.cpu_count()} CPUs")
    outcome = bench.measure(workload, seeds[0], args.seconds,
                            bool(args.trace), WORK_DIR, log)
    print(bench.result_line(*outcome, trace=bool(args.trace), log=log),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
