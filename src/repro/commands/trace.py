"""Frame-stream serialization: capture and replay command traces.

The paper's methodology intercepts an application's GLES commands and
stores them in a trace file that later feeds the simulator.  This module
provides the equivalent for this reproduction: any :class:`FrameStream`
can be captured to a self-contained JSON trace and replayed later (or on
another machine) bit-exactly, decoupling scene generation from
simulation.

The format is versioned JSON: human-inspectable, diff-able, and free of
pickle's code-execution hazards.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, List, Union

import numpy as np

from ..errors import CommandError
from ..math3d import Mat4
from .draw import DrawCommand
from .state import BlendMode, RenderState, ShaderProfile
from .stream import Frame, FrameStream

TRACE_FORMAT_VERSION = 1

#: A vertex's values in a trace: its position, then its attributes in
#: ``VertexAttributes.pack`` order.
_VERTEX_VALUES = 12


# -- encoding ---------------------------------------------------------------

def _encode_matrix(matrix: Mat4) -> List[float]:
    return list(matrix.m)


def _encode_state(state: RenderState) -> Dict[str, Any]:
    return {
        "depth_test": state.depth_test,
        "depth_write": state.depth_write,
        "blend": state.blend.value,
        "cull_backface": state.cull_backface,
        "shader": {
            "vertex_instructions": state.shader.vertex_instructions,
            "fragment_instructions": state.shader.fragment_instructions,
            "texture_fetches": state.shader.texture_fetches,
            "texture_id": state.shader.texture_id,
            "texture_size": state.shader.texture_size,
        },
    }


def _encode_command(command: DrawCommand) -> Dict[str, Any]:
    encoded: Dict[str, Any] = {
        "label": command.label,
        "model": _encode_matrix(command.model),
        "state": _encode_state(command.state),
        # Per triangle, per vertex: x, y, z, r, g, b, a, u, v, nx, ny, nz.
        "triangles": np.concatenate((command.positions, command.attributes),
                                    axis=2).tolist(),
    }
    if command.view is not None:
        encoded["view"] = _encode_matrix(command.view)
    if command.projection is not None:
        encoded["projection"] = _encode_matrix(command.projection)
    return encoded


def _encode_frame(frame: Frame) -> Dict[str, Any]:
    return {
        "index": frame.index,
        "view": _encode_matrix(frame.view),
        "projection": _encode_matrix(frame.projection),
        "commands": [_encode_command(c) for c in frame.commands],
    }


def save_trace(stream: FrameStream, file: Union[str, IO[str]]) -> None:
    """Capture every frame of ``stream`` into a JSON trace.

    Args:
        stream: the frame stream to capture (fully materialized).
        file: output path or writable text file object.
    """
    document = {
        "format": "repro-trace",
        "version": TRACE_FORMAT_VERSION,
        "frames": [_encode_frame(frame) for frame in stream],
    }
    if isinstance(file, str):
        with open(file, "w") as handle:
            json.dump(document, handle)
    else:
        json.dump(document, file)


# -- decoding ----------------------------------------------------------------

def _decode_matrix(values: List[float]) -> Mat4:
    return Mat4(tuple(float(v) for v in values))


def _decode_state(data: Dict[str, Any]) -> RenderState:
    shader = data["shader"]
    return RenderState(
        depth_test=data["depth_test"],
        depth_write=data["depth_write"],
        blend=BlendMode(data["blend"]),
        cull_backface=data["cull_backface"],
        shader=ShaderProfile(
            vertex_instructions=shader["vertex_instructions"],
            fragment_instructions=shader["fragment_instructions"],
            texture_fetches=shader["texture_fetches"],
            texture_id=shader["texture_id"],
            texture_size=shader["texture_size"],
        ),
    )


def _decode_command(data: Dict[str, Any]) -> DrawCommand:
    try:
        vertices = np.array(data["triangles"], dtype=np.float64)
    except (TypeError, ValueError):
        vertices = None
    if vertices is None or (vertices.size
                            and vertices.shape[1:] != (3, _VERTEX_VALUES)):
        raise CommandError(
            f"draw command {data.get('label', '')!r}: every triangle needs "
            f"3 vertices of {_VERTEX_VALUES} values")
    vertices = vertices.reshape(-1, 3, _VERTEX_VALUES)
    return DrawCommand(
        vertices[:, :, :3],
        vertices[:, :, 3:],
        model=_decode_matrix(data["model"]),
        state=_decode_state(data["state"]),
        label=data.get("label", ""),
        view=_decode_matrix(data["view"]) if "view" in data else None,
        projection=(
            _decode_matrix(data["projection"])
            if "projection" in data
            else None
        ),
    )


def _decode_frame(data: Dict[str, Any]) -> Frame:
    return Frame(
        [_decode_command(c) for c in data["commands"]],
        view=_decode_matrix(data["view"]),
        projection=_decode_matrix(data["projection"]),
        index=data["index"],
    )


def load_trace(file: Union[str, IO[str]]) -> FrameStream:
    """Load a trace captured with :func:`save_trace`.

    Raises:
        CommandError: on malformed or incompatible trace files.
    """
    if isinstance(file, str):
        with open(file) as handle:
            document = json.load(handle)
    else:
        document = json.load(file)
    if document.get("format") != "repro-trace":
        raise CommandError("not a repro trace file")
    if document.get("version") != TRACE_FORMAT_VERSION:
        raise CommandError(
            f"unsupported trace version {document.get('version')!r}; "
            f"this build reads version {TRACE_FORMAT_VERSION}"
        )
    frames = [_decode_frame(f) for f in document["frames"]]
    if not frames:
        raise CommandError("trace contains no frames")
    return FrameStream.from_frames(frames)
