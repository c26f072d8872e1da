"""Hardware structures of the TBR GPU, baseline and EVR-specific.

Baseline structures (Figure 1): the Parameter Buffer with per-tile
Display Lists, and Rendering Elimination's Signature Buffer.  EVR
additions (Figure 5): the Layer Generator Table and the FVP Table.

The per-tile on-chip buffers (Z-buffer, Color Buffer, and EVR's Layer
Buffer and ZR register) are a raster job's result arrays, one row per
tile, which the job clears and renders into
(:mod:`repro.engine.tile_job`); :func:`repro.core.evr.compute_fvp` reads
a tile's rows at end of tile.
"""

from .parameter_buffer import DisplayList, DisplayListEntry, ParameterBuffer
from .signature_buffer import SignatureBuffer, primitive_signature
from .lgt import LayerGeneratorTable
from .fvp_table import FVPEntry, FVPTable, FVPType

__all__ = [
    "ParameterBuffer",
    "DisplayList",
    "DisplayListEntry",
    "SignatureBuffer",
    "primitive_signature",
    "LayerGeneratorTable",
    "FVPTable",
    "FVPEntry",
    "FVPType",
]
