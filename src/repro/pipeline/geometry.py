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
(:mod:`repro.kernels`), one form per backend.  The numpy backend
assembles the whole frame at once and the Polygon List Builder bins the
frame's (primitive, tile) pairs in array passes; the scalar reference
assembles and bins one command at a time in a sequential loop, the
oracle the array form is tested against.  Either way the frame's vertex
fetches and Parameter Buffer writes reach the memory system as one
:class:`~repro.memsys.ops.GeometryTrace`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..commands import DrawCommand, Frame
from ..config import GPUConfig
from ..core.evr import VisibilityPredictor
from ..core.rendering_elimination import RenderingElimination
from ..core.reorder import display_list_order, place_in_display_list
from ..geom import ScreenTriangle
from ..geom.triangle import tile_span, tile_spans
from ..hw.lgt import LayerGeneratorTable
from ..hw.parameter_buffer import (
    LAYER_ID_BYTES,
    POINTER_BYTES,
    DisplayListEntry,
    ParameterBuffer,
)
from ..kernels import DEFAULT_BACKEND, resolve_backend
from ..kernels.api import FrameGeometry, primitive_table
from ..math3d import Mat4, mat4_array, mat4_products, viewport
from ..memsys import MemorySystem
from ..memsys.ops import GeometryTrace
from ..obs.trace import get_tracer
from ..techniques.dsr import dsr_signature, dsr_signatures
from ..timing import FrameStats
from .features import PipelineFeatures

_VERTEX_BYTES = 48

#: The depth-only pass of a Z-prepass stores position-only records.
_PREPASS_RECORD_BYTES = 48

# Display-list pointers live in their own Parameter Buffer region so the
# pointer stream and the attribute stream do not alias in the tile cache.
_POINTER_REGION_OFFSET = 32 * 1024 * 1024


class GeometryPipeline:
    """Runs the geometry half of the pipeline for one frame at a time.

    Vertex shading and Primitive Assembly go through the kernel
    backend: ``assemble_frame`` once per frame where the backend has it,
    else ``assemble`` once per draw command.  Each Polygon List Builder
    hook updates per-tile state, so every tile must see its primitives
    in submission order: the per-command loop visits them so, and the
    array builder sorts the frame's pairs into that order first.
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
        self._assemble_frame = getattr(self._kernels, "assemble_frame",
                                       None)
        self._viewport = viewport(config.screen_width, config.screen_height)
        self._pointer_cursor = 0
        self._vertex_base = 0

    # -- vertex processing and assembly ------------------------------------

    def process_frame(self, frame: Frame, stats: FrameStats) -> None:
        """Run the full Geometry Pipeline for ``frame``, starting from an
        empty Parameter Buffer and LGT.

        A backend with ``assemble_frame`` (numpy) assembles and bins the
        whole frame in array passes; the scalar reference assembles and
        bins each command in turn, recording each memory op as a row of
        the frame's trace, which it hands over after the last command.
        A frame that raises part-way hands over no memory traffic.
        """
        self.parameter_buffer.reset()
        if self.lgt is not None:
            self.lgt.reset()
        self._pointer_cursor = 0
        self._vertex_base = 0
        # ``projection @ view`` once per distinct matrix pair per frame:
        # ``projection @ view @ model`` associates left, so reusing the
        # product is exact.  Keyed by identity — the frame keeps every
        # matrix alive while the dict lives.
        view_projections = {}
        if self._assemble_frame is not None:
            mvps = mat4_products(
                mat4_array(self._view_projection(frame, command,
                                                 view_projections)
                           for command in frame.commands),
                mat4_array(command.model for command in frame.commands))
            # The scalar loop bins each command before it assembles the
            # next, so DSR's encoding error in an earlier command comes
            # before an assembly fault in a later one.
            self._bin_frame(frame, self._assemble_frame(
                frame.commands, mvps, self._viewport,
                dsr_signatures if self.dsr is not None else None), stats)
            return
        tracer = get_tracer()
        survivors: List[ScreenTriangle] = []
        # The frame's memory ops as (start, count) rows, in op order;
        # the rows at ``vertex_at`` are vertex-range fetches, the others
        # Parameter Buffer writes.
        ops: List[Tuple[int, int]] = []
        vertex_at: List[int] = []
        for command_id, command in enumerate(frame.commands):
            stats.commands_processed += 1
            with tracer.span("command", category="geometry",
                             label=command.label, frame=frame.index):
                # The whole command's vertex stream is one consecutive
                # index range and nothing else touches memory until
                # binning, so the per-vertex fetch loop collapses into a
                # single ranged access — the same address sequence, one
                # row.
                vertex_at.append(len(ops))
                ops.append(self._fetch_vertices(command, stats))
                triangles = self._shade_and_assemble(
                    command_id, command,
                    self._mvp(frame, command, view_projections), stats,
                )
                self._bin_command(triangles, len(survivors), command_id,
                                  command, stats, ops)
            survivors.extend(triangles)
        rows = np.array(ops, dtype=np.int64).reshape(-1, 2)
        self.memory.replay_ops(GeometryTrace(
            rows[:, 0], rows[:, 1], np.array(vertex_at, dtype=np.int64),
            _VERTEX_BYTES))
        self.parameter_buffer.close_display_lists(primitive_table(
            survivors, [command.state for command in frame.commands]))

    @staticmethod
    def _view_projection(frame: Frame, command: DrawCommand,
                         view_projections) -> Mat4:
        projection = command.projection or frame.projection
        view = command.view or frame.view
        key = (id(projection), id(view))
        view_projection = view_projections.get(key)
        if view_projection is None:
            view_projection = projection @ view
            view_projections[key] = view_projection
        return view_projection

    @classmethod
    def _mvp(cls, frame: Frame, command: DrawCommand,
             view_projections) -> Mat4:
        return cls._view_projection(frame, command,
                                    view_projections) @ command.model

    def _shade_and_assemble(
        self,
        command_id: int,
        command: DrawCommand,
        mvp: Mat4,
        stats: FrameStats,
    ) -> List[ScreenTriangle]:
        """Vertex shading + primitive assembly for one command."""
        survivors = self._kernels.assemble(command, command_id, mvp,
                                           self._viewport)
        stats.primitives_culled += command.triangle_count - len(survivors)
        stats.primitives_binned += len(survivors)
        return survivors

    def _fetch_vertices(self, command: DrawCommand, stats: FrameStats
                        ) -> Tuple[int, int]:
        """Count one command's vertex work; returns its vertex-range
        fetch as ``(start, count)`` (of ``_VERTEX_BYTES`` each)."""
        start = self._vertex_base
        self._vertex_base += command.vertex_count
        count = command.triangle_count
        vertex_instructions = command.state.shader.vertex_instructions
        stats.primitives_in += count
        stats.vertices_fetched += 3 * count
        stats.vertex_instructions += 3 * count * vertex_instructions
        # A software Z-prepass (Section IV-A) resubmits the opaque
        # geometry with a depth-only shader: the vertex fetch, transform
        # and assembly work is paid twice for WOZ commands.
        if self.features.z_prepass and command.state.writes_z:
            stats.primitives_in += count
            stats.vertices_fetched += 3 * count
            stats.vertex_instructions += (
                3 * count * max(4, vertex_instructions // 2)
            )
        return start, 3 * count

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

    def _bin_frame(self, frame: Frame, table: FrameGeometry,
                   stats: FrameStats) -> None:
        """The Polygon List Builder over a whole frame at once.

        The same work as :meth:`_bin_command` for each command in turn,
        as array passes over the frame's (primitive, tile) pairs.  The
        pairs are first put in *arrival order* — tile by tile, and in
        submission order within a tile, the order each tile's hooks see
        them in — and every hook then takes all of them in one call:
        the LGT's layers, the FVP prediction, the RE/DSR signatures and
        Algorithm 1's display-list order.  The memory traffic goes to
        the memory system as one :class:`~repro.memsys.ops.GeometryTrace`
        of columns, in the loop's exact op order.

        The display lists stay columns (:class:`DisplayLists`) beside
        the table.
        """
        config = self.config
        features = self.features
        parameter_buffer = self.parameter_buffer
        commands = frame.commands
        count = len(table.command)

        # -- per command: vertex fetch and the vertex-side counters -----
        vertex_ranges = [self._fetch_vertices(command, stats)
                         for command in commands]
        stats.commands_processed += len(commands)
        stats.primitives_culled += (
            sum(command.triangle_count for command in commands) - count)
        stats.primitives_binned += count
        command_woz = np.array([command.state.writes_z
                                for command in commands])
        owner = table.command
        writes_z = command_woz[owner]
        prepass = (writes_z if features.z_prepass
                   else np.zeros(count, dtype=bool))

        # -- Parameter Buffer records: one per primitive, a second one
        #    (position-only) for the depth-only pass ------------------
        records = 1 + prepass
        first_record = np.cumsum(records) - records
        record_offsets = parameter_buffer.store_primitives(
            int(records.sum()))
        offsets = record_offsets[first_record]
        attribute_bytes = parameter_buffer.attribute_bytes_per_primitive

        # -- pair expansion: row-major over each primitive's tile span --
        spans = tile_spans(table.bbox, config.tile_width,
                           config.tile_height, config.tiles_x,
                           config.tiles_y)
        width = np.maximum(spans[:, 2] - spans[:, 0] + 1, 0)
        # pairs per primitive (table row)
        row_pairs = width * np.maximum(spans[:, 3] - spans[:, 1] + 1, 0)
        pairs = int(row_pairs.sum())
        first_pair = np.cumsum(row_pairs) - row_pairs
        pair_row = np.repeat(np.arange(count), row_pairs)
        local = np.arange(pairs) - first_pair[pair_row]
        span_width = width[pair_row]
        pair_tile = ((spans[pair_row, 1] + local // span_width)
                     * config.tiles_x
                     + spans[pair_row, 0] + local % span_width)

        # -- memory traffic: per command its vertex range, then per
        #    primitive its record write(s) and one pointer per pair ----
        uses_layers = features.uses_layers
        pointer_bytes = POINTER_BYTES + (LAYER_ID_BYTES if uses_layers
                                         else 0)
        pointer_base = _POINTER_REGION_OFFSET + self._pointer_cursor
        row_ops = records + row_pairs
        row_op = np.cumsum(row_ops) - row_ops + owner + 1
        addresses = np.zeros(len(commands) + int(row_ops.sum()),
                             dtype=np.int64)
        sizes = np.zeros_like(addresses)
        addresses[row_op] = offsets
        sizes[row_op] = attribute_bytes
        addresses[row_op[prepass] + 1] = record_offsets[
            first_record[prepass] + 1]
        sizes[row_op[prepass] + 1] = _PREPASS_RECORD_BYTES
        pair_op = np.arange(pairs) + (row_op + records - first_pair)[pair_row]
        addresses[pair_op] = pointer_base + pointer_bytes * np.arange(pairs)
        sizes[pair_op] = pointer_bytes
        ops_before = np.concatenate(([0], np.cumsum(row_ops)))
        vertex_at = np.arange(len(commands)) + ops_before[
            np.searchsorted(owner, np.arange(len(commands)))]
        addresses[vertex_at], sizes[vertex_at] = np.array(
            vertex_ranges, dtype=np.int64).reshape(-1, 2).T
        self.memory.replay_ops(GeometryTrace(addresses, sizes, vertex_at,
                                             _VERTEX_BYTES))
        self._pointer_cursor += pairs * pointer_bytes

        # -- the EVR and RE hooks, in arrival order ---------------------
        arrival = np.argsort(pair_tile, kind="stable")
        tiles = pair_tile[arrival]
        rows = pair_row[arrival]
        pair_woz = writes_z[rows]
        layers = np.zeros(pairs, dtype=np.int64)
        if uses_layers:
            layers = self.lgt.assign_layers(tiles, owner[rows], pair_woz)
        predicted = np.zeros(pairs, dtype=bool)
        if features.evr_hardware:
            depth = {"near": table.z_near, "centroid": table.z_centroid,
                     "far": table.z_far}[features.prediction_point]
            predicted = self.predictor.predict_many(
                tiles, pair_woz, depth[rows], layers, table.bbox[rows])
        updates = 0
        if self.re is not None:
            crcs = self.re.primitive_crcs(table)
            updates = self.re.on_primitives_binned(tiles, crcs[rows],
                                                   predicted)
        if self.dsr is not None:
            self.dsr.on_primitives_binned(tiles, dsr_signatures(table)[rows])

        # -- Algorithm 1, then the display lists as columns -------------
        if features.evr_reorder:
            render, second = display_list_order(tiles, pair_woz, predicted)
        else:
            render = np.arange(pairs)
            second = np.zeros(pairs, dtype=bool)
        rendered = rows[render]
        parameter_buffer.fill_display_lists(
            table, tiles[render], second, rendered, offsets[rendered],
            layers[render], predicted[render],
            pointer_base + pointer_bytes * arrival[render])

        # -- counters ----------------------------------------------------
        prepass_pairs = int(row_pairs[prepass].sum())
        stats.parameter_buffer_bytes += (
            attribute_bytes * count
            + _PREPASS_RECORD_BYTES * int(prepass.sum()))
        stats.primitive_tile_pairs += pairs + prepass_pairs
        stats.display_list_writes += pairs + prepass_pairs
        if uses_layers:
            stats.lgt_accesses += pairs
            stats.layer_id_bytes += LAYER_ID_BYTES * pairs
            stats.parameter_buffer_bytes += LAYER_ID_BYTES * pairs
        if features.evr_hardware:
            stats.fvp_lookups += pairs
            stats.predictions_made += pairs
            stats.predicted_occluded += int(np.count_nonzero(predicted))
        if self.re is not None:
            stats.signature_updates += updates
            stats.signature_skips += pairs - updates
        if self.dsr is not None:
            stats.signature_updates += pairs

    def _bin_command(
        self,
        triangles: List[ScreenTriangle],
        first_row: int,
        command_id: int,
        command: DrawCommand,
        stats: FrameStats,
        ops: List[Tuple[int, int]],
    ) -> None:
        """Sort one command's assembled primitives, in order, into all
        tiles each one overlaps; ``triangles[i]`` is row ``first_row + i``
        of the frame's primitive table.  Each Parameter Buffer write is
        appended to ``ops`` as ``(offset, size)``.

        Everything that is fixed per command or per primitive — the
        command's WOZ class, the pointer size, a primitive's bounding
        box, tile span and prediction depth — is computed once outside
        the per-tile loop; the counters advance once per primitive.
        """
        config = self.config
        features = self.features
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

        for row, triangle in enumerate(triangles, first_row):
            offset = parameter_buffer.store_primitive(triangle)
            ops.append((offset, attribute_bytes))
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
                ops.append((prepass_offset, _PREPASS_RECORD_BYTES))
                stats.parameter_buffer_bytes += _PREPASS_RECORD_BYTES

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
                    DisplayListEntry(row, offset, layer,
                                     predicted_occluded, pointer),
                    writes_z, predicted_occluded, reorder,
                )
                ops.append((pointer, pointer_bytes))
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
