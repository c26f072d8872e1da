"""Analysis bench target: EVR vs Z-prepass vs Hierarchical-Z.

Reproduces the paper's qualitative claims about the alternatives it
declines (Sections IV-A and VIII): Z-prepass reaches oracle-level
fragment culling but pays geometry resubmission that offsets most of the
benefit, Hierarchical-Z is powerless against back-to-front submission,
and EVR's reordering both beats them on net cycles and makes HiZ
effective when combined.
"""

from repro.harness import culling_alternatives
from repro.scenes import benchmark_names

from conftest import publish


def test_culling_alternatives(benchmark, suite_runner, subset, capsys):
    benchmarks_3d = [
        alias for alias in (subset or ("tib", "ata"))
        if alias in benchmark_names("3D")
    ] or ["tib", "ata"]
    result = benchmark.pedantic(
        lambda: culling_alternatives(suite_runner, benchmarks_3d),
        rounds=1, iterations=1,
    )
    publish(capsys, result)
    for alias in benchmarks_3d:
        rows = {row[1]: row for row in result.rows if row[0] == alias}
        # Z-prepass culls like the oracle...
        assert rows["z-prepass"][2] == rows["oracle"][2]
        # ...but pays more cycles than EVR's reordering.
        assert rows["z-prepass"][3] > rows["evr-reorder-only"][3]
        # EVR reordering beats the baseline.
        assert rows["evr-reorder-only"][3] < 1.0
        # HiZ composes with reordering.
        assert rows["evr-hiz"][4] >= rows["hiz"][4]
