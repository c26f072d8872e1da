"""The Geometry Pipeline: vertex processing, assembly and binning.

Stages (Figure 1): vertices are fetched from memory and shaded (model-
view-projection transform), grouped into triangles, culled/clipped in
Primitive Assembly, and finally sorted into tiles by the Polygon List
Builder, which fills the Parameter Buffer and per-tile Display Lists.

All EVR hooks live in the Polygon List Builder (Figure 5): layer
assignment via the Layer Generator Table, visibility prediction via the
FVP Table, Algorithm-1 reordering into the two-part Display Lists, and
the (possibly filtered) Rendering Elimination signature updates.

Vertex shading and Primitive Assembly run behind the kernel-backend seam
(``assemble`` in :mod:`repro.kernels`); the Polygon List Builder is one
sequential loop shared by every backend.
"""

from __future__ import annotations

from typing import List, Optional

from ..commands import DrawCommand, Frame
from ..config import GPUConfig
from ..core.evr import VisibilityPredictor
from ..core.rendering_elimination import RenderingElimination
from ..core.reorder import place_in_display_list
from ..geom import ScreenTriangle
from ..geom.triangle import tile_span
from ..hw.lgt import LayerGeneratorTable
from ..hw.parameter_buffer import (
    LAYER_ID_BYTES,
    POINTER_BYTES,
    DisplayListEntry,
    ParameterBuffer,
)
from ..kernels import DEFAULT_BACKEND, resolve_backend
from ..math3d import Mat4, viewport
from ..memsys import MemorySystem
from ..obs.trace import get_tracer
from ..techniques.dsr import dsr_signature
from ..timing import FrameStats
from .features import PipelineFeatures

_VERTEX_BYTES = 48

# Display-list pointers live in their own Parameter Buffer region so the
# pointer stream and the attribute stream do not alias in the tile cache.
_POINTER_REGION_OFFSET = 32 * 1024 * 1024


class GeometryPipeline:
    """Runs the geometry half of the pipeline for one frame at a time.

    Vertex shading and Primitive Assembly go through the kernel
    backend's ``assemble`` (one call per draw command); the Polygon
    List Builder is shared by every backend and stays sequential, in
    primitive order, because each of its hooks updates per-tile state.
    """

    def __init__(
        self,
        config: GPUConfig,
        features: PipelineFeatures,
        memory: MemorySystem,
        parameter_buffer: ParameterBuffer,
        lgt: Optional[LayerGeneratorTable],
        predictor: Optional[VisibilityPredictor],
        rendering_elimination: Optional[RenderingElimination],
        dsr=None,
        backend: str = DEFAULT_BACKEND,
    ):
        self.config = config
        self.features = features
        self.memory = memory
        self.parameter_buffer = parameter_buffer
        self.lgt = lgt
        self.predictor = predictor
        self.re = rendering_elimination
        self.dsr = dsr
        self._kernels = resolve_backend(backend)
        self._viewport = viewport(config.screen_width, config.screen_height)
        self._pointer_cursor = 0
        self._vertex_base = 0

    # -- vertex processing and assembly ------------------------------------

    def process_frame(self, frame: Frame, stats: FrameStats) -> None:
        """Run the full Geometry Pipeline for ``frame``."""
        self._pointer_cursor = 0
        self._vertex_base = 0
        tracer = get_tracer()
        # ``projection @ view`` once per distinct matrix pair per frame:
        # ``projection @ view @ model`` associates left, so reusing the
        # product is exact.  Keyed by identity — the frame keeps every
        # matrix alive while the dict lives.
        view_projections = {}
        for command_id, command in enumerate(frame.commands):
            stats.commands_processed += 1
            with tracer.span("command", category="geometry",
                             label=command.label, frame=frame.index):
                projection = command.projection or frame.projection
                view = command.view or frame.view
                key = (id(projection), id(view))
                view_projection = view_projections.get(key)
                if view_projection is None:
                    view_projection = projection @ view
                    view_projections[key] = view_projection
                triangles = self._shade_and_assemble(
                    command_id, command, view_projection @ command.model,
                    stats,
                )
                self._bin_command(triangles, command_id, command, stats)

    def _shade_and_assemble(
        self,
        command_id: int,
        command: DrawCommand,
        mvp: Mat4,
        stats: FrameStats,
    ) -> List[ScreenTriangle]:
        """Vertex fetch + shade + primitive assembly for one command."""
        state = command.state
        command_vertex_base = self._vertex_base
        self._vertex_base += command.vertex_count

        # The whole command's vertex stream is one consecutive index
        # range and nothing else touches memory until binning, so the
        # per-vertex fetch loop collapses into a single ranged access —
        # the same address sequence, one call.
        count = command.triangle_count
        self.memory.fetch_vertex_range(
            command_vertex_base, 3 * count, _VERTEX_BYTES
        )
        vertex_instructions = state.shader.vertex_instructions
        stats.primitives_in += count
        stats.vertices_fetched += 3 * count
        stats.vertex_instructions += 3 * count * vertex_instructions
        # A software Z-prepass (Section IV-A) resubmits the opaque
        # geometry with a depth-only shader: the vertex fetch, transform
        # and assembly work is paid twice for WOZ commands.
        if self.features.z_prepass and state.writes_z:
            stats.primitives_in += count
            stats.vertices_fetched += 3 * count
            stats.vertex_instructions += (
                3 * count * max(4, vertex_instructions // 2)
            )

        survivors = self._kernels.assemble(command, command_id, mvp,
                                           self._viewport)
        stats.primitives_culled += count - len(survivors)
        stats.primitives_binned += len(survivors)
        return survivors

    def _prediction_depth(self, triangle: ScreenTriangle) -> float:
        """The primitive depth compared against ``Z_far`` (Section III-A).

        The paper uses the closest vertex (``Z_near``), the conservative
        choice; the ``prediction_point`` feature selects the centroid or
        farthest vertex for the conservatism ablation.
        """
        point = self.features.prediction_point
        if point == "near":
            return triangle.z_near
        if point == "centroid":
            return triangle.z_centroid
        return triangle.z_far

    # -- Polygon List Builder (binning + EVR hooks) -------------------------

    def _bin_command(
        self,
        triangles: List[ScreenTriangle],
        command_id: int,
        command: DrawCommand,
        stats: FrameStats,
    ) -> None:
        """Sort one command's assembled primitives, in order, into all
        tiles each one overlaps.

        Everything that is fixed per command or per primitive — the
        command's WOZ class, the pointer size, a primitive's bounding
        box, tile span and prediction depth — is computed once outside
        the per-tile loop; the counters advance once per primitive.
        """
        config = self.config
        features = self.features
        memory = self.memory
        parameter_buffer = self.parameter_buffer
        lgt = self.lgt
        predictor = self.predictor
        re = self.re
        dsr = self.dsr
        tile_w = config.tile_width
        tile_h = config.tile_height
        tiles_x = config.tiles_x
        tiles_y = config.tiles_y
        uses_layers = features.uses_layers
        evr_hardware = features.evr_hardware
        reorder = features.evr_reorder
        writes_z = command.state.writes_z
        prepass = features.z_prepass and writes_z
        attribute_bytes = parameter_buffer.attribute_bytes_per_primitive
        pointer_bytes = POINTER_BYTES + (LAYER_ID_BYTES if uses_layers else 0)
        assert lgt is not None or not uses_layers
        assert predictor is not None or not evr_hardware
        pointer = _POINTER_REGION_OFFSET + self._pointer_cursor

        for triangle in triangles:
            offset = parameter_buffer.store_primitive(triangle)
            memory.parameter_buffer_write(offset, attribute_bytes)
            stats.parameter_buffer_bytes += attribute_bytes

            crc = (
                RenderingElimination.primitive_crc(triangle)
                if re is not None
                else 0
            )
            # DSR tracks tile stability with a *coarse* signature so slow
            # sub-pixel motion still reads as stable (repro.techniques.dsr).
            dsr_crc = dsr_signature(triangle) if dsr is not None else 0

            if prepass:
                # The depth-only pass stores its own (position-only) records.
                prepass_offset = parameter_buffer.store_primitive(triangle)
                memory.parameter_buffer_write(prepass_offset, 48)
                stats.parameter_buffer_bytes += 48

            bbox = triangle.bounding_box()
            first_tx, first_ty, last_tx, last_ty = tile_span(
                bbox, tile_w, tile_h, tiles_x, tiles_y
            )
            tiles = [
                row + tile_x
                for row in range(first_ty * tiles_x, (last_ty + 1) * tiles_x,
                                 tiles_x)
                for tile_x in range(first_tx, last_tx + 1)
            ]
            if evr_hardware:
                depth = self._prediction_depth(triangle)
            predicted_occluded = False
            occluded = 0
            signature_updates = 0
            for tile in tiles:
                layer = 0
                if uses_layers:
                    layer = lgt.assign_layer(tile, command_id, writes_z)
                if evr_hardware:
                    predicted_occluded = predictor.predict(
                        tile, writes_z, depth, layer, bbox
                    )
                    if predicted_occluded:
                        occluded += 1

                # Positional arguments: this is the hottest call site.
                place_in_display_list(
                    parameter_buffer.display_list(tile),
                    DisplayListEntry(triangle, offset, layer,
                                     predicted_occluded, pointer),
                    writes_z, predicted_occluded, reorder,
                )
                memory.parameter_buffer_write(pointer, pointer_bytes)
                pointer += pointer_bytes

                if re is not None and re.on_primitive_binned(
                        tile, crc, predicted_occluded):
                    signature_updates += 1
                if dsr is not None:
                    dsr.on_primitive_binned(tile, dsr_crc)

            pairs = len(tiles)
            stats.primitive_tile_pairs += pairs
            stats.display_list_writes += pairs
            if prepass:
                stats.primitive_tile_pairs += pairs
                stats.display_list_writes += pairs
            if uses_layers:
                stats.lgt_accesses += pairs
                stats.layer_id_bytes += LAYER_ID_BYTES * pairs
                stats.parameter_buffer_bytes += LAYER_ID_BYTES * pairs
            if evr_hardware:
                stats.fvp_lookups += pairs
                stats.predictions_made += pairs
                stats.predicted_occluded += occluded
            if re is not None:
                stats.signature_updates += signature_updates
                stats.signature_skips += pairs - signature_updates
            if dsr is not None:
                stats.signature_updates += pairs
        self._pointer_cursor = pointer - _POINTER_REGION_OFFSET
