"""Ablation A4 bench target: FVP granularity (per-tile vs 2x2 sub-tile).

Finding (see the harness docstring): quadrant FVPs refine Z_far locally,
but the all-overlapped-quadrants requirement and NWOZ-terminated
quadrants blocking depth prediction roughly cancel the gain on this
suite — supporting the paper's single 4-byte FVP per tile.
"""

from repro.harness import ablation_subtile

from conftest import publish


def test_ablation_subtile(benchmark, suite_runner, capsys):
    result = benchmark.pedantic(
        lambda: ablation_subtile(suite_runner),
        rounds=1, iterations=1,
    )
    publish(capsys, result)
    by_granularity = {}
    for _, label, pred_rate, skip_rate, _ in result.rows:
        by_granularity.setdefault(label, []).append((pred_rate, skip_rate))
    # Both designs must produce comparable detection (within 20% rel.).
    for (tile_pred, tile_skip), (sub_pred, sub_skip) in zip(
        by_granularity["tile"], by_granularity["2x2-subtile"]
    ):
        assert abs(tile_skip - sub_skip) <= 0.2
