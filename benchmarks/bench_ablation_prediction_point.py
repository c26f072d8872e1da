"""Ablation A1 bench target: conservatism of the predicted depth.

The paper compares the primitive's closest vertex (Z_near) against the
FVP — conservative by construction.  This ablation swaps in the centroid
and the farthest vertex: more predicted occlusion, but visible
primitives get mispredicted, costing signature poisons (re-rendered
tiles) instead of image errors thanks to the taint repair.
"""

from repro.harness import ablation_prediction_point

from conftest import publish


def test_ablation_prediction_point(benchmark, suite_runner, capsys):
    result = benchmark.pedantic(
        lambda: ablation_prediction_point(suite_runner),
        rounds=1, iterations=1,
    )
    publish(capsys, result)
    by_point = {}
    for _, point, pred_rate, _, poisons, _ in result.rows:
        entry = by_point.setdefault(point, [0.0, 0])
        entry[0] += pred_rate
        entry[1] += poisons
    # More aggressive points predict at least as much occlusion...
    assert by_point["far"][0] >= by_point["near"][0]
    assert by_point["centroid"][0] >= by_point["near"][0]
    # ...at the price of at least as many poisoned tiles.
    assert by_point["far"][1] >= by_point["near"][1]
