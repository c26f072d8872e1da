"""Per-frame time series: inspect how a run evolves frame by frame.

The paper reports run aggregates; for debugging and for studying EVR's
warm-up transient it is useful to see each frame's cycles, energy and
skip counts.  :func:`frame_series` extracts them from a
:class:`repro.pipeline.RunResult`; :func:`write_csv` dumps them for
external plotting.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, List, Union

from ..obs.metrics import frame_record
from ..pipeline import RunResult

_COLUMNS = [
    "frame",
    "geometry_cycles",
    "raster_cycles",
    "total_cycles",
    "energy_joules",
    "tiles_rendered",
    "tiles_skipped",
    "fragments_shaded",
    "early_z_kills",
    "predicted_occluded",
    "signature_poisons",
]


@dataclass(frozen=True)
class FrameRecord:
    """One frame's scalar metrics."""

    frame: int
    geometry_cycles: float
    raster_cycles: float
    energy_joules: float
    tiles_rendered: int
    tiles_skipped: int
    fragments_shaded: int
    early_z_kills: int
    predicted_occluded: int
    signature_poisons: int

    @property
    def total_cycles(self) -> float:
        return self.geometry_cycles + self.raster_cycles

    def as_row(self) -> List[object]:
        return [
            self.frame,
            self.geometry_cycles,
            self.raster_cycles,
            self.total_cycles,
            self.energy_joules,
            self.tiles_rendered,
            self.tiles_skipped,
            self.fragments_shaded,
            self.early_z_kills,
            self.predicted_occluded,
            self.signature_poisons,
        ]


def frame_series(result: RunResult) -> List[FrameRecord]:
    """Per-frame metrics for every frame of the run (no warm-up cut),
    taken from each frame's :func:`~repro.obs.metrics.frame_record`."""
    assert result.cost_model is not None
    assert result.energy_model is not None
    records: List[FrameRecord] = []
    for frame_result in result.frames:
        record = frame_record("", "", frame_result, result.cost_model,
                              result.energy_model, result.features)
        stats = record["stats"]
        records.append(
            FrameRecord(
                frame=record["frame"],
                geometry_cycles=record["geometry_cycles"],
                raster_cycles=record["raster_cycles"],
                energy_joules=record["energy_joules"],
                tiles_rendered=stats["tiles_rendered"],
                tiles_skipped=stats["tiles_skipped"],
                fragments_shaded=stats["fragments_shaded"],
                early_z_kills=stats["early_z_kills"],
                predicted_occluded=stats["predicted_occluded"],
                signature_poisons=stats["signature_poisons"],
            )
        )
    return records


def write_csv(records: List[FrameRecord],
              file: Union[str, IO[str]]) -> None:
    """Write the series as CSV (header + one row per frame)."""

    def _write(handle: IO[str]) -> None:
        writer = csv.writer(handle)
        writer.writerow(_COLUMNS)
        for record in records:
            writer.writerow(record.as_row())

    if isinstance(file, str):
        with open(file, "w", newline="") as handle:
            _write(handle)
    else:
        _write(file)
