"""Tests for the Rendering Elimination controller and the oracle
comparator."""

import numpy as np
import pytest

from repro.core import OracleTileComparator, RenderingElimination


class TestRenderingElimination:
    def test_baseline_updates_always(self):
        re = RenderingElimination(num_tiles=2, filter_occluded=False)
        assert re.on_primitive_binned(0, 123, predicted_occluded=True)
        assert re.stats.signature_updates == 1
        assert re.stats.signature_skips == 0

    def test_filter_skips_occluded(self):
        re = RenderingElimination(num_tiles=2, filter_occluded=True)
        assert not re.on_primitive_binned(0, 123, predicted_occluded=True)
        assert re.on_primitive_binned(0, 456, predicted_occluded=False)
        assert re.stats.signature_skips == 1
        assert re.stats.signature_updates == 1

    def test_skip_detection_cycle(self):
        re = RenderingElimination(num_tiles=1)
        re.on_primitive_binned(0, 111, False)
        assert not re.should_skip_tile(0)  # first frame: no reference
        re.end_frame()
        re.on_primitive_binned(0, 111, False)
        assert re.should_skip_tile(0)
        re.end_frame()
        re.on_primitive_binned(0, 222, False)
        assert not re.should_skip_tile(0)

    def test_filtered_primitive_invisible_to_signature(self):
        """A changing-but-occluded primitive does not break matching."""
        re = RenderingElimination(num_tiles=1, filter_occluded=True)
        re.on_primitive_binned(0, 1, predicted_occluded=True)
        re.on_primitive_binned(0, 99, predicted_occluded=False)
        re.end_frame()
        re.on_primitive_binned(0, 2, predicted_occluded=True)  # changed CRC
        re.on_primitive_binned(0, 99, predicted_occluded=False)
        assert re.should_skip_tile(0)

    def test_detection_rate_counts(self):
        re = RenderingElimination(num_tiles=1)
        re.on_primitive_binned(0, 1, False)
        re.should_skip_tile(0)       # miss (no previous)
        re.end_frame()
        re.on_primitive_binned(0, 1, False)
        re.should_skip_tile(0)       # hit
        assert re.stats.tiles_checked == 2
        assert re.stats.tiles_matched == 1


class TestOracleTileComparator:
    def _tile(self, value):
        return np.full((2, 2, 4), value, dtype=np.float64)

    def test_first_frame_never_equal(self):
        comparator = OracleTileComparator()
        assert not comparator.record_tile(0, self._tile(1.0))
        assert comparator.tiles_checked == 0

    def test_identical_tiles_detected(self):
        comparator = OracleTileComparator()
        comparator.record_tile(0, self._tile(1.0))
        comparator.end_frame()
        assert comparator.record_tile(0, self._tile(1.0))
        assert comparator.equal_rate == 1.0

    def test_changed_tiles_not_equal(self):
        comparator = OracleTileComparator()
        comparator.record_tile(0, self._tile(1.0))
        comparator.end_frame()
        assert not comparator.record_tile(0, self._tile(2.0))
        assert comparator.equal_rate == 0.0

    def test_skipped_tile_colors_carry_forward(self):
        comparator = OracleTileComparator()
        comparator.record_tile(0, self._tile(1.0))
        comparator.end_frame()
        # Tile not recorded this frame (e.g. RE skipped it).
        comparator.end_frame()
        assert comparator.record_tile(0, self._tile(1.0))

    def test_record_copies(self):
        comparator = OracleTileComparator()
        colors = self._tile(1.0)
        comparator.record_tile(0, colors)
        colors[0, 0, 0] = 42.0
        comparator.end_frame()
        # The recorded tile kept the colours as they were.
        assert comparator.record_tile(0, self._tile(1.0))
