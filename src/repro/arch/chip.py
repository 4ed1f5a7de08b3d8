"""Chip-level architecture: the grid of processing tiles (paper Sec 3.2).

A ScaleDeep chip is a 2D grid with alternating columns of CompHeavy and
MemHeavy tiles: each *chip column* (the compiler's allocation unit)
contains ``rows`` MemHeavy tiles and ``rows`` groups of three CompHeavy
tiles (one each for FP, BP and WG).  MemHeavy columns flank the groups,
so a chip with C columns has (C + 1) * rows MemHeavy tiles — this fence-
post arrangement reproduces Fig 14's 288/102 (ConvLayer) and 144/54
(FcLayer) tile counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.arch.tiles import CompHeavyConfig, MemHeavyConfig
from repro.errors import ConfigError

#: CompHeavy tiles per MemHeavy tile in a column group: one each for the
#: forward, backpropagation, and weight-gradient steps (paper Sec 3.2.1).
COMP_TILES_PER_GROUP = 3

GB = 1e9
KB = 1024
MB = 1024 * 1024


class ChipKind(enum.Enum):
    """The two heterogeneous chip designs (paper Sec 3.2.5)."""

    CONV = "ConvLayer"
    FC = "FcLayer"


@dataclass(frozen=True)
class LinkBandwidths:
    """Per-link bandwidths within a chip, in bytes/second (Fig 14).

    ``external_memory`` is per memory channel; Fig 7c draws multiple
    memory chips along the top and bottom chip borders, counted by
    ``ext_channels``.
    """

    external_memory: float  # chip <-> one external memory channel
    comp_mem: float  # CompHeavy <-> MemHeavy tile link
    mem_mem: float  # MemHeavy <-> MemHeavy tile link
    ext_channels: int = 10  # memory chips per ScaleDeep chip (Fig 7c)

    @property
    def external_memory_total(self) -> float:
        """Aggregate external-memory bandwidth of the whole chip."""
        return self.external_memory * self.ext_channels

    def halved(self) -> "LinkBandwidths":
        return LinkBandwidths(
            self.external_memory / 2, self.comp_mem / 2, self.mem_mem / 2,
            self.ext_channels,
        )


@dataclass(frozen=True)
class ChipConfig:
    """A ScaleDeep chip: tile grid plus link bandwidths."""

    kind: ChipKind
    rows: int
    cols: int
    comp_tile: CompHeavyConfig
    mem_tile: MemHeavyConfig
    links: LinkBandwidths

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"chip grid must be non-empty: {self}")

    # ------------------------------------------------------------------
    # Tile inventory
    # ------------------------------------------------------------------
    @property
    def comp_tile_count(self) -> int:
        """Total CompHeavy tiles: 3 (FP/BP/WG) per row per column."""
        return COMP_TILES_PER_GROUP * self.rows * self.cols

    @property
    def mem_tile_count(self) -> int:
        """Total MemHeavy tiles: columns plus the fence-post column."""
        return (self.cols + 1) * self.rows

    @property
    def tile_count(self) -> int:
        return self.comp_tile_count + self.mem_tile_count

    # ------------------------------------------------------------------
    # Per-column resources (the compiler's allocation unit)
    # ------------------------------------------------------------------
    @property
    def comp_tiles_per_column(self) -> int:
        return COMP_TILES_PER_GROUP * self.rows

    @property
    def mem_tiles_per_column(self) -> int:
        return self.rows

    @property
    def mem_capacity_per_column(self) -> int:
        """Scratchpad bytes available in one chip column."""
        return self.rows * self.mem_tile.capacity_bytes

    # ------------------------------------------------------------------
    # Peak throughput
    # ------------------------------------------------------------------
    def peak_flops(self, frequency_hz: float) -> float:
        """Chip peak FLOP/s, counting both tile types (as Fig 14 does)."""
        return (
            self.comp_tile_count * self.comp_tile.peak_flops(frequency_hz)
            + self.mem_tile_count * self.mem_tile.peak_flops(frequency_hz)
        )

    def resized(self, rows: int, cols: int) -> "ChipConfig":
        """A copy with a different grid (used by the HP preset and DSE)."""
        return replace(self, rows=rows, cols=cols)
