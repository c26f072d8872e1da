"""Small memory traces, for the memory-system suites.

Traffic reaches either memory model only as a trace, through
``replay_ops``.  These build the smallest traces that carry a given op:
vertex-range fetches and Parameter Buffer writes as a geometry trace,
display-list reads, a texture burst and a tile flush as a raster trace
of one tile.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.memsys.ops import GeometryTrace, RasterTrace, TextureBursts


def vertex_fetches(*ranges: Tuple[int, int],
                   vertex_bytes: int = 48) -> GeometryTrace:
    """The vertex-range fetches ``(start, count)``, in turn."""
    start, count = np.array(ranges, dtype=np.int64).reshape(-1, 2).T
    return GeometryTrace(start=start, count=count,
                         vertex_at=np.arange(len(ranges), dtype=np.int64),
                         vertex_bytes=vertex_bytes)


def parameter_writes(*writes: Tuple[int, int]) -> GeometryTrace:
    """The Parameter Buffer writes ``(offset, size)``, in turn."""
    offset, size = np.array(writes, dtype=np.int64).reshape(-1, 2).T
    return GeometryTrace(start=offset, count=size,
                         vertex_at=np.empty(0, dtype=np.int64),
                         vertex_bytes=48)


def raster_trace(reads: Sequence[Tuple[int, int]] = (), burst=None,
                 pointer_bytes: int = 8, record_bytes: int = 48,
                 flush_bytes: int = 1024) -> RasterTrace:
    """One tile whose entries read the ``(pointer, offset)`` pairs
    ``reads`` in turn, then flush ``flush_bytes``.  With ``burst``, a
    ``(texture_id, texture_size, u, v, samples)`` tuple, the first entry
    samples that texture at every ``(u, v)``."""
    pointer, offset = np.array(reads, dtype=np.int64).reshape(-1, 2).T
    bursts = [] if burst is None else [burst]
    texture_id, size, samples = (
        np.array([row[k] for row in bursts], dtype=np.int64)
        for k in (0, 1, 4))
    u, v = burst[2:4] if bursts else (np.empty(0), np.empty(0))
    return RasterTrace(
        pointer=pointer, offset=offset, pointer_bytes=pointer_bytes,
        record_bytes=record_bytes,
        bounds=np.array([0, len(reads)], dtype=np.int64),
        flush_bytes=flush_bytes,
        bursts=TextureBursts(
            entry=np.zeros(len(bursts), dtype=np.int64),
            texture_id=texture_id, texture_size=size, samples=samples,
            count=np.array([u.size] * len(bursts), dtype=np.int64),
            u=u, v=v))
