#!/usr/bin/env python3
"""Trace capture and replay — the paper's methodology, reproduced.

The paper's toolchain intercepts an application's GLES commands into a
trace file that feeds the simulator.  This example does the equivalent:
capture a benchmark's frame stream to JSON, replay it, verify the replay
renders bit-identical images, and run the cross-mode validator on the
replayed trace.

Usage::

    python examples/trace_capture.py [benchmark] [trace.json]
"""

import os
import sys

import numpy as np

from repro import GPU, GPUConfig
from repro.commands import load_trace, save_trace
from repro.scenes import benchmark_stream
from repro.techniques import EVR
from repro.validate import validate_stream


def main() -> None:
    alias = sys.argv[1] if len(sys.argv) > 1 else "tib"
    trace_path = sys.argv[2] if len(sys.argv) > 2 else f"{alias}_trace.json"

    config = GPUConfig.default(frames=6)
    stream = benchmark_stream(alias, config)

    save_trace(stream, trace_path)
    size_kb = os.path.getsize(trace_path) / 1024
    print(f"captured {len(stream)} frames of '{alias}' to {trace_path} "
          f"({size_kb:.0f} KiB)")

    replayed = load_trace(trace_path)
    direct = GPU(config, EVR).render_stream(stream)
    from_trace = GPU(config, EVR).render_stream(replayed)
    for expected, actual in zip(direct.frames, from_trace.frames):
        assert np.array_equal(expected.image, actual.image)
    print("replay is bit-identical to direct rendering")

    report = validate_stream(replayed, config)
    print()
    print(report.render())
    sys.exit(0 if report.passed else 1)


if __name__ == "__main__":
    main()
