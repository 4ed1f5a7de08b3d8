"""Network-state partitioning for the functional engine (STEP4).

Assigns every layer's output features to home MemHeavy tiles of an
engine machine: layer ``i`` of the network's topological order occupies
mem column ``i`` (column 0 holds the network input), and its features
split into contiguous blocks over the column's rows — the even
distribution the paper's STEP4 prescribes, with block (rather than
round-robin) order so that flattening for FC layers is a per-row
contiguous copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.dnn.network import Network
from repro.errors import MappingError


@dataclass
class TileAllocator:
    """Bump allocator for one MemHeavy tile's scratchpad words."""

    capacity_words: int
    cursor: int = 0
    blocks: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def alloc(self, name: str, words: int) -> int:
        """Reserve ``words`` under ``name``; returns the start address."""
        if name in self.blocks:
            raise MappingError(f"block {name!r} already allocated")
        if self.cursor + words > self.capacity_words:
            raise MappingError(
                f"tile out of scratchpad: need {words} words at "
                f"{self.cursor}/{self.capacity_words} for {name!r}"
            )
        start = self.cursor
        self.cursor += words
        self.blocks[name] = (start, words)
        return start

    def lookup(self, name: str) -> Tuple[int, int]:
        try:
            return self.blocks[name]
        except KeyError:
            raise MappingError(f"no block {name!r}") from None


@dataclass(frozen=True)
class FeatureHome:
    """Home placement of one block of a layer's output features."""

    layer: str
    row: int
    first_feature: int
    feature_count: int
    address: int  # word offset of the block within its home tile
    feature_words: int

    def feature_address(self, feature: int) -> int:
        if not (
            self.first_feature
            <= feature
            < self.first_feature + self.feature_count
        ):
            raise MappingError(
                f"feature {feature} not in block "
                f"[{self.first_feature}, "
                f"{self.first_feature + self.feature_count})"
            )
        return self.address + (feature - self.first_feature) * self.feature_words


@dataclass
class StatePartition:
    """Home blocks per layer plus per-tile allocators."""

    rows: int
    mem_columns: int
    column_of: Dict[str, int]
    homes: Dict[str, List[FeatureHome]]
    allocators: Dict[Tuple[int, int], TileAllocator]

    capacity_words: int = 0

    def allocator(self, col: int, row: int) -> TileAllocator:
        """Allocator for a tile, created on first use (code generation
        keeps allocating staging/weight blocks after partitioning)."""
        key = (col, row)
        if key not in self.allocators:
            self.allocators[key] = TileAllocator(self.capacity_words)
        return self.allocators[key]

    def blocks_of(self, layer: str) -> List[FeatureHome]:
        try:
            return self.homes[layer]
        except KeyError:
            raise MappingError(f"layer {layer!r} not partitioned") from None

    def rows_used(self, layer: str) -> List[int]:
        return [h.row for h in self.blocks_of(layer)]

    def tile_occupancy(self) -> Dict[Tuple[int, int], float]:
        """Fraction of each tile's scratchpad the compiler has claimed."""
        return {
            key: alloc.cursor / alloc.capacity_words
            for key, alloc in sorted(self.allocators.items())
        }

    def memory_map(self) -> str:
        """Human-readable per-tile allocation map — the concrete output
        of STEP4's state partitioning plus the code generator's staging,
        weight, and working regions."""
        lines = ["Memory map (tile -> blocks):"]
        for (col, row), alloc in sorted(self.allocators.items()):
            used = alloc.cursor
            lines.append(
                f"  tile c{col} r{row}: {used:,}/{alloc.capacity_words:,} "
                f"words ({100 * used / alloc.capacity_words:.1f}%)"
            )
            for name, (start, words) in sorted(
                alloc.blocks.items(), key=lambda kv: kv[1][0]
            ):
                lines.append(
                    f"    [{start:>8,} +{words:>8,}] {name}"
                )
        return "\n".join(lines)


def partition_graph(
    net: Network,
    rows: int,
    capacity_words: int,
    final_layer_single_row: bool = True,
) -> StatePartition:
    """Partition any network's state over an engine machine: layer i of
    the topological order owns mem column i, with its output features in
    contiguous blocks over the column's rows.

    ``final_layer_single_row`` places the whole output layer on one row
    so a global softmax can run where the full vector lives.
    """
    column_of: Dict[str, int] = {}
    homes: Dict[str, List[FeatureHome]] = {}
    allocators: Dict[Tuple[int, int], TileAllocator] = {}

    def allocator(col: int, row: int) -> TileAllocator:
        key = (col, row)
        if key not in allocators:
            allocators[key] = TileAllocator(capacity_words)
        return allocators[key]

    for index, node in enumerate(net):
        col = index  # input layer -> column 0, layer i -> column i
        column_of[node.name] = col
        count = node.output_shape.count
        words = node.output_shape.feature_size
        is_last = node is net.output
        if is_last and final_layer_single_row:
            block = count
        else:
            block = math.ceil(count / rows)
        layer_homes: List[FeatureHome] = []
        first = 0
        row = 0
        while first < count:
            size = min(block, count - first)
            addr = allocator(col, row).alloc(
                f"{node.name}/out", size * words
            )
            layer_homes.append(
                FeatureHome(node.name, row, first, size, addr, words)
            )
            first += size
            row += 1
        homes[node.name] = layer_homes

    mem_columns = len(net)
    return StatePartition(
        rows=rows,
        mem_columns=mem_columns,
        column_of=column_of,
        homes=homes,
        allocators=allocators,
        capacity_words=capacity_words,
    )
