#!/usr/bin/env python3
"""Quickstart: render one benchmark under Baseline, RE and EVR.

Runs the *cde* (Castle Defense) benchmark — the suite's most redundant
workload — on a scaled-down Mali-450-class GPU and prints the headline
metrics the paper reports: execution cycles (split Geometry/Raster),
energy, redundant-tile rate and shaded fragments per pixel.

Usage::

    python examples/quickstart.py [benchmark] [frames]
"""

import sys

from repro import GPU, GPUConfig
from repro.harness import format_table
from repro.scenes import benchmark_info, benchmark_stream
from repro.techniques import BASELINE, RE, EVR


def main() -> None:
    alias = sys.argv[1] if len(sys.argv) > 1 else "cde"
    frames = int(sys.argv[2]) if len(sys.argv) > 2 else 10

    config = GPUConfig.default(frames=frames)
    info = benchmark_info(alias)
    print(f"Benchmark: {info.title} ({info.genre}, {info.scene_type})")
    print(f"  {info.description}")
    print(f"Config: {config.describe()['screen']} screen, "
          f"{config.num_tiles} tiles, {frames} frames\n")

    stream = benchmark_stream(alias, config)
    rows = []
    baseline_cycles = None
    baseline_energy = None
    for mode in (BASELINE, RE, EVR):
        result = GPU(config, mode).render_stream(stream)
        cycles = result.total_cycles()
        energy = result.total_energy().total
        if baseline_cycles is None:
            baseline_cycles = cycles.total
            baseline_energy = energy
        rows.append([
            mode.name,
            cycles.geometry,
            cycles.raster,
            cycles.total / baseline_cycles,
            energy / baseline_energy,
            result.redundant_tile_rate(),
            result.shaded_fragments_per_pixel(),
        ])

    print(format_table(
        ["mode", "geom cycles", "raster cycles", "time (norm)",
         "energy (norm)", "tiles skipped", "frags/px"],
        rows,
        title=f"{alias}: Baseline vs RE vs EVR (steady state)",
    ))

    evr_row = rows[-1]
    print(f"\nEVR: {(1 - evr_row[3]) * 100:.1f}% faster and "
          f"{(1 - evr_row[4]) * 100:.1f}% less energy than the baseline "
          f"(paper averages: 39% / 43% across the full suite).")


if __name__ == "__main__":
    main()
