"""Algorithm 1: FVP-based display-list reordering (Section IV-A).

Each tile's Display List is split in two.  WOZ primitives predicted
visible go to the first list; WOZ primitives predicted occluded go to the
second list, which the raster pipeline drains last — after the (predicted)
visible geometry has filled the Z-buffer, so the Early Depth Test rejects
their fragments.

NWOZ primitives must keep their submission order relative to *everything*
(painter's algorithm / blending are order dependent), so when an NWOZ
primitive arrives the second list is first folded back into the first.

Only WOZ primitives are ever reordered among themselves, and WOZ
visibility is resolved by the Z-buffer regardless of order, so the
transformation can never change the rendered image.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..hw.parameter_buffer import DisplayList, DisplayListEntry


def place_in_display_list(
    display_list: DisplayList,
    entry: DisplayListEntry,
    writes_z: bool,
    predicted_occluded: bool,
    reorder_enabled: bool = True,
) -> None:
    """Append ``entry`` to the tile's display list per Algorithm 1.

    With ``reorder_enabled=False`` this degenerates to the baseline
    single-list behaviour (everything appended to the first list in
    submission order).
    """
    if not reorder_enabled:
        display_list.append_first(entry)
        return
    if writes_z:
        if predicted_occluded:
            display_list.append_second(entry)
        else:
            display_list.append_first(entry)
        return
    # NWOZ primitive: restore global order before appending.
    if display_list.second:
        display_list.promote_second()
    display_list.append_first(entry)


def display_list_order(
    tiles: np.ndarray,
    writes_z: np.ndarray,
    predicted_occluded: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 1 for a whole frame's (primitive, tile) pairs at once.

    The pairs are grouped tile by tile and in binning order within a
    tile.  Each NWOZ pair folds the second list back into the first, so
    the tile's render order is a stable sort by the number of NWOZ pairs
    before the pair, then by class: 0 for a visible WOZ pair, 1 for an
    occluded WOZ pair, 2 for an NWOZ pair.  Returns that permutation of
    the pairs (still grouped by tile) and, in the permuted order, which
    pairs end in the second list: the occluded WOZ pairs after the
    tile's last NWOZ pair, a suffix of each tile's group.
    """
    count = len(tiles)
    nwoz = ~writes_z
    starts = np.flatnonzero(np.diff(tiles, prepend=-1))
    lengths = np.diff(np.append(starts, count))
    seen = np.cumsum(nwoz, dtype=np.int64)
    # NWOZ pairs before each pair in its own tile.
    before = seen - nwoz - np.repeat(seen[starts] - nwoz[starts], lengths)
    kind = np.where(nwoz, 2, predicted_occluded.astype(np.int64))
    order = np.argsort((np.repeat(np.arange(len(starts)), lengths)
                        * (count + 1) + before) * 3 + kind, kind="stable")
    last_segment = np.repeat(before[starts + lengths - 1]
                             + nwoz[starts + lengths - 1], lengths)
    second = (kind == 1) & (before == last_segment)
    return order, second[order]
