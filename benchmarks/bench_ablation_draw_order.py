"""Ablation A3 bench target: draw-order sensitivity.

Demonstrates Section IV-A's motivation: the baseline's Early Depth Test
is at the mercy of submission order (front-to-back is free, back-to-
front shades everything), while EVR's Algorithm-1 reordering makes
shaded work (nearly) order-independent without any application sorting.
"""

from repro.harness import ablation_draw_order

from conftest import publish


def test_ablation_draw_order(benchmark, suite_runner, capsys):
    result = benchmark.pedantic(
        lambda: ablation_draw_order(suite_runner),
        rounds=1, iterations=1,
    )
    publish(capsys, result)
    # Reordering must shrink the order-induced spread substantially.
    assert result.summary["evr_spread"] <= result.summary["baseline_spread"]
    assert result.summary["evr_spread"] <= 0.25 * max(
        result.summary["baseline_spread"], 1e-9
    )
