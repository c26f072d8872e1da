"""Tests for Algorithm 1 (display-list reordering), including the paper's
Figure 4 worked example and order-preservation properties."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core import place_in_display_list
from repro.core.reorder import display_list_order
from repro.hw import DisplayList, DisplayListEntry


def make_entry(tag, writes_z):
    """An entry tagged ``tag`` (its row and offset), with its WOZ class."""
    return DisplayListEntry(row=tag, offset=tag, layer=0), writes_z


def place(display_list, tagged, predicted_occluded, reorder=True):
    entry, writes_z = tagged
    place_in_display_list(
        display_list,
        entry,
        writes_z=writes_z,
        predicted_occluded=predicted_occluded,
        reorder_enabled=reorder,
    )


def tags(display_list):
    return [entry.offset for entry in display_list]


class TestAlgorithm1Cases:
    def test_visible_woz_goes_first(self):
        dl = DisplayList()
        place(dl, make_entry(1, True), predicted_occluded=False)
        assert tags(dl) == [1]
        assert not dl.second

    def test_occluded_woz_goes_second(self):
        dl = DisplayList()
        place(dl, make_entry(1, True), predicted_occluded=True)
        assert dl.second and not dl.first
        assert tags(dl) == [1]  # still rendered, just last

    def test_nwoz_promotes_second_list(self):
        dl = DisplayList()
        place(dl, make_entry(1, True), predicted_occluded=True)
        place(dl, make_entry(2, False), predicted_occluded=False)
        # The occluded WOZ must render before the NWOZ that followed it.
        assert tags(dl) == [1, 2]
        assert not dl.second

    def test_figure_4_example(self):
        """Figure 4: NWOZ batch, WOZ batch (mixed predictions), NWOZ
        batch, WOZ batch (mixed predictions)."""
        dl = DisplayList()
        # Batch 1: NWOZ primitives 1-2.
        place(dl, make_entry(1, False), False)
        place(dl, make_entry(2, False), False)
        # Batch 2: WOZ; 3 visible, 4 occluded.
        place(dl, make_entry(3, True), False)
        place(dl, make_entry(4, True), True)
        # Batch 3: NWOZ primitive 5 -> second list folds back first.
        place(dl, make_entry(5, False), False)
        # Batch 4: WOZ; 6 occluded, 7 visible.
        place(dl, make_entry(6, True), True)
        place(dl, make_entry(7, True), False)
        assert tags(dl) == [1, 2, 3, 4, 5, 7, 6]

    def test_reorder_disabled_is_submission_order(self):
        dl = DisplayList()
        place(dl, make_entry(1, True), True, reorder=False)
        place(dl, make_entry(2, False), False, reorder=False)
        place(dl, make_entry(3, True), True, reorder=False)
        assert tags(dl) == [1, 2, 3]
        assert not dl.second


class TestOrderProperties:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.booleans()),  # (writes_z, occluded)
            max_size=40,
        )
    )
    def test_multiset_preserved(self, specs):
        dl = DisplayList()
        for tag, (writes_z, occluded) in enumerate(specs):
            place(dl, make_entry(tag, writes_z), occluded and writes_z)
        assert sorted(tags(dl)) == list(range(len(specs)))

    @given(
        st.lists(
            st.tuples(st.booleans(), st.booleans()),
            max_size=40,
        )
    )
    def test_nwoz_order_and_woz_barriers_preserved(self, specs):
        """NWOZ primitives keep submission order, and every WOZ primitive
        submitted before an NWOZ is rendered before it (Algorithm 1's
        correctness condition for blending)."""
        dl = DisplayList()
        for tag, (writes_z, occluded) in enumerate(specs):
            place(dl, make_entry(tag, writes_z), occluded and writes_z)
        rendered = tags(dl)
        position = {tag: i for i, tag in enumerate(rendered)}
        nwoz_tags = [t for t, (wz, _) in enumerate(specs) if not wz]
        # NWOZ relative order preserved.
        assert [t for t in rendered if t in set(nwoz_tags)] == nwoz_tags
        # Every primitive submitted before an NWOZ renders before it.
        for nwoz_tag in nwoz_tags:
            for earlier in range(nwoz_tag):
                assert position[earlier] < position[nwoz_tag]


class TestFrameOrder:
    """``display_list_order`` is Algorithm 1 over a whole frame's pairs:
    the same first and second lists as placing them one by one."""

    @given(st.lists(
        st.tuples(st.integers(0, 3), st.booleans(), st.booleans()),
        max_size=60))                  # (tile, writes_z, predicted)
    def test_matches_placing_pair_by_pair(self, pairs):
        expected = {}
        for tag, (tile, writes_z, predicted) in enumerate(pairs):
            place(expected.setdefault(tile, DisplayList()),
                  make_entry(tag, writes_z), predicted and writes_z)
        # Arrival order: tile by tile, binning order within a tile.
        arrival = sorted(range(len(pairs)), key=lambda tag: pairs[tag][0])
        tiles = np.array([pairs[tag][0] for tag in arrival], dtype=np.int64)
        order, second = display_list_order(
            tiles, np.array([pairs[tag][1] for tag in arrival], dtype=bool),
            np.array([pairs[tag][2] for tag in arrival], dtype=bool))
        actual = {}
        for position, is_second in zip(order.tolist(), second.tolist()):
            tag = arrival[position]
            lists = actual.setdefault(pairs[tag][0], ([], []))
            lists[is_second].append(tag)
        assert actual == {
            tile: ([entry.offset for entry in dl.first],
                   [entry.offset for entry in dl.second])
            for tile, dl in expected.items()}
