"""GPU configuration mirroring Table II of the EVR paper.

The defaults model an ARM Mali-450-class tile-based-rendering GPU: 400 MHz,
16x16-pixel tiles, one vertex processor, four fragment processors, small
on-chip caches and a dual-channel LPDDR3-like memory interface.

The paper simulates a 1196x768 screen for 60 frames.  A pure-Python
functional simulation at that resolution is possible but slow, so
:func:`GPUConfig.paper` returns the faithful configuration while
:func:`GPUConfig.default` returns a scaled configuration (192x160, same tile
size) used by the test-suite and the benchmark harness.  Per-tile behaviour
is resolution independent, so the scaled configuration preserves the shape
of every result.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from .errors import ConfigError


def default_jobs(cli_value: Optional[int] = None) -> int:
    """Resolve the worker-process count for scheduler fan-out.

    Precedence: an explicit CLI ``--jobs`` value, then the ``REPRO_JOBS``
    environment variable, then 1 (serial — the historical behaviour).
    A malformed ``REPRO_JOBS`` is ignored rather than fatal, but is
    named in a one-shot warning so the fallback never passes silently.
    """
    if cli_value is not None:
        return cli_value
    env = os.environ.get("REPRO_JOBS", "")
    try:
        return int(env) if env else 1
    except ValueError:
        from .obs.log import warn_once

        warn_once(
            "config", f"REPRO_JOBS={env}",
            f"ignoring malformed REPRO_JOBS={env!r} "
            f"(expected an integer); running serial",
        )
        return 1


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one set-associative cache (Table II, "Caches")."""

    name: str
    size_bytes: int
    line_bytes: int = 64
    associativity: int = 2
    banks: int = 1
    latency_cycles: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0:
            raise ConfigError(f"cache {self.name}: sizes must be positive")
        if self.size_bytes % self.line_bytes:
            raise ConfigError(
                f"cache {self.name}: size {self.size_bytes} is not a "
                f"multiple of the line size {self.line_bytes}"
            )
        num_lines = self.size_bytes // self.line_bytes
        if self.associativity <= 0 or num_lines % self.associativity:
            raise ConfigError(
                f"cache {self.name}: {num_lines} lines cannot form "
                f"{self.associativity}-way sets"
            )

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity


@dataclass(frozen=True)
class QueueConfig:
    """Geometry of one inter-stage queue (Table II, "Queues")."""

    name: str
    entries: int
    entry_bytes: int

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.entry_bytes <= 0:
            raise ConfigError(f"queue {self.name}: sizes must be positive")


@dataclass(frozen=True)
class GPUConfig:
    """Full simulation configuration (Table II of the paper).

    Instances are immutable; use :meth:`scaled` or ``dataclasses.replace``
    to derive variants.
    """

    # Tech specs
    frequency_mhz: int = 400
    voltage_v: float = 1.0
    technology_nm: int = 32

    # Screen geometry
    screen_width: int = 1196
    screen_height: int = 768
    tile_width: int = 16
    tile_height: int = 16

    # Main memory
    dram_latency_min_cycles: int = 50
    dram_latency_max_cycles: int = 100
    dram_bandwidth_bytes_per_cycle: int = 4
    dram_channels: int = 2
    dram_size_bytes: int = 1 << 30

    # Queues
    queues: Tuple[QueueConfig, ...] = (
        QueueConfig("vertex0", 16, 136),
        QueueConfig("vertex1", 16, 136),
        QueueConfig("triangle", 16, 388),
        QueueConfig("tile", 16, 388),
        QueueConfig("fragment", 64, 233),
    )

    # Caches
    caches: Tuple[CacheConfig, ...] = (
        CacheConfig("vertex", 4 * 1024, 64, 2, 1, 1),
        CacheConfig("texture0", 8 * 1024, 64, 2, 1, 1),
        CacheConfig("texture1", 8 * 1024, 64, 2, 1, 1),
        CacheConfig("texture2", 8 * 1024, 64, 2, 1, 1),
        CacheConfig("texture3", 8 * 1024, 64, 2, 1, 1),
        CacheConfig("tile", 128 * 1024, 64, 8, 8, 1),
        CacheConfig("l2", 256 * 1024, 64, 8, 8, 2),
        CacheConfig("color_buffer", 1024, 64, 1, 1, 1),
        CacheConfig("depth_buffer", 1024, 64, 1, 1, 1),
    )

    # Non-programmable stage throughputs
    triangles_per_cycle: int = 1
    raster_attributes_per_cycle: int = 16
    early_z_inflight_quads: int = 32

    # Programmable stages
    vertex_processors: int = 1
    fragment_processors: int = 4

    # Additional EVR hardware (Table II, "Additional hardware")
    lgt_entry_bytes: int = 3
    fvp_entry_bytes: int = 4
    layer_buffer_bytes: int = 1024

    # Simulation controls (not in Table II)
    frames: int = 60
    clear_depth: float = 1.0
    clear_color: Tuple[float, float, float, float] = (0.0, 0.0, 0.0, 1.0)

    def __post_init__(self) -> None:
        if self.screen_width <= 0 or self.screen_height <= 0:
            raise ConfigError("screen dimensions must be positive")
        if self.tile_width <= 0 or self.tile_height <= 0:
            raise ConfigError("tile dimensions must be positive")
        if self.frequency_mhz <= 0:
            raise ConfigError("frequency must be positive")
        if self.frames <= 0:
            raise ConfigError("frame count must be positive")
        if self.fragment_processors <= 0 or self.vertex_processors <= 0:
            raise ConfigError("processor counts must be positive")
        if self.dram_latency_min_cycles > self.dram_latency_max_cycles:
            raise ConfigError("dram latency range is inverted")

    # -- derived geometry -------------------------------------------------

    @property
    def tiles_x(self) -> int:
        """Number of tile columns (partial right-edge tiles count)."""
        return -(-self.screen_width // self.tile_width)

    @property
    def tiles_y(self) -> int:
        """Number of tile rows (partial bottom-edge tiles count)."""
        return -(-self.screen_height // self.tile_height)

    @property
    def num_tiles(self) -> int:
        return self.tiles_x * self.tiles_y

    @property
    def num_pixels(self) -> int:
        return self.screen_width * self.screen_height

    def cache(self, name: str) -> CacheConfig:
        """Return the configuration for the cache called ``name``."""
        for cache in self.caches:
            if cache.name == name:
                return cache
        raise ConfigError(f"unknown cache {name!r}")

    def queue(self, name: str) -> QueueConfig:
        """Return the configuration for the queue called ``name``."""
        for queue in self.queues:
            if queue.name == name:
                return queue
        raise ConfigError(f"unknown queue {name!r}")

    # -- factories ---------------------------------------------------------

    @classmethod
    def paper(cls) -> "GPUConfig":
        """The exact Table II configuration (1196x768, 60 frames)."""
        return cls()

    @classmethod
    def default(cls, frames: int = 16) -> "GPUConfig":
        """Scaled configuration used by tests and the default harness.

        Keeps the 16x16 tile size (per-tile behaviour is what matters) but
        shrinks the screen to 192x160 -> 12x10 = 120 tiles, and simulates
        fewer frames.
        """
        return cls(screen_width=192, screen_height=160, frames=frames)

    @classmethod
    def tiny(cls, frames: int = 4) -> "GPUConfig":
        """Minimal configuration for fast unit tests (4x3 = 12 tiles)."""
        return cls(screen_width=64, screen_height=48, frames=frames)

    def scaled(self, **overrides: object) -> "GPUConfig":
        """Return a copy with ``overrides`` applied."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    def describe(self) -> Dict[str, object]:
        """A flat summary used by the Table II bench target."""
        return {
            "frequency": f"{self.frequency_mhz} MHz",
            "voltage": f"{self.voltage_v} V",
            "technology": f"{self.technology_nm} nm",
            "screen": f"{self.screen_width}x{self.screen_height}",
            "tile": f"{self.tile_width}x{self.tile_height}",
            "tiles": f"{self.tiles_x}x{self.tiles_y} = {self.num_tiles}",
            "dram_latency": (
                f"{self.dram_latency_min_cycles}-"
                f"{self.dram_latency_max_cycles} cycles"
            ),
            "dram_bandwidth": f"{self.dram_bandwidth_bytes_per_cycle} B/cycle",
            "vertex_processors": self.vertex_processors,
            "fragment_processors": self.fragment_processors,
            "frames": self.frames,
        }
