"""Ablation A2 bench target: FVP history depth.

The paper predicts from the previous frame's FVP alone.  Requiring a
primitive to be behind the FVPs of the last k frames is more
conservative: fewer mispredictions (poisons), fewer detections.
"""

from repro.harness import ablation_history

from conftest import publish


def test_ablation_history(benchmark, suite_runner, capsys):
    result = benchmark.pedantic(
        lambda: ablation_history(suite_runner),
        rounds=1, iterations=1,
    )
    publish(capsys, result)
    by_depth = {}
    for _, depth, pred_rate, _, poisons in result.rows:
        entry = by_depth.setdefault(depth, [0.0, 0])
        entry[0] += pred_rate
        entry[1] += poisons
    # Deeper history can only shrink the predicted-occluded set.
    assert by_depth[3][0] <= by_depth[1][0] + 1e-9
    assert by_depth[2][0] <= by_depth[1][0] + 1e-9
