"""Tile jobs built from primitives, for the raster suites.

A :class:`~repro.engine.tile_job.TileJob` carries its display list as
columns.  The suites write a display list as :class:`Entry` records that
hold their primitive, and :func:`tile_job` turns them into a job the way
the raster pipeline slices the frame's columns.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Sequence

import numpy as np

from repro.engine.tile_job import TileJob
from repro.geom import ScreenTriangle
from repro.kernels.api import (
    RASTER_ATTRIBUTES,
    FrameGeometry,
    normalize_winding,
    primitive_table,
)


class Entry(NamedTuple):
    """One display-list entry with its primitive itself."""

    primitive: ScreenTriangle
    layer: int
    predicted_occluded: bool = False


def table_of(triangles: Sequence[ScreenTriangle]) -> FrameGeometry:
    """The primitive table of ``triangles``, each its own command (so
    each row keeps its own state)."""
    triangles = [dataclasses.replace(triangle, command_id=row)
                 for row, triangle in enumerate(triangles)]
    return primitive_table(triangles, [t.state for t in triangles])


def raster_columns(triangles: Sequence[ScreenTriangle]):
    """``prepare_tile``'s ``window`` and ``attributes`` for a display
    list of ``triangles``, winding-normalized as the raster pipeline
    hands them over."""
    table = table_of(triangles)
    return normalize_winding(table.window,
                             table.attributes[:, :, :RASTER_ATTRIBUTES])


def range_job(tiles: Sequence[int], lists: Sequence[Sequence[Entry]],
              dsr_rate=None, history=None, **fields) -> TileJob:
    """A job rendering tile ``tiles[i]``'s display list ``lists[i]``;
    ``fields`` are the job's other fields (config, features, backend,
    ...)."""
    entries = [entry for entries in lists for entry in entries]
    table = table_of([entry.primitive for entry in entries])
    window, attributes = normalize_winding(
        table.window, table.attributes[:, :, :RASTER_ATTRIBUTES])
    return TileJob(
        tiles=np.array(tiles, dtype=np.int64),
        bounds=np.concatenate(([0], np.cumsum([len(entries)
                                                for entries in lists]))
                              ).astype(np.int64),
        window=window,
        attributes=attributes,
        state=table.state,
        states=table.states,
        layer=np.array([entry.layer for entry in entries], dtype=np.int64),
        predicted=np.array([entry.predicted_occluded for entry in entries],
                           dtype=bool),
        dsr_rate=dsr_rate,
        history=history,
        **fields,
    )


def tile_job(entries: Sequence[Entry], tile: int, dsr_rate: float = 1.0,
             history=None, **fields) -> TileJob:
    """A one-tile job rendering ``entries`` in order into ``tile``."""
    return range_job([tile], [entries], dsr_rate=np.array([dsr_rate]),
                     history=None if history is None else history[None],
                     **fields)
