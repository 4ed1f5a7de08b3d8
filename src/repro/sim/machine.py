"""Machine state for the functional engine: tiles and scratchpads.

The engine models one ScaleDeep chip as a grid of MemHeavy tiles (each a
word-addressed float32 scratchpad with a tracker file) and CompHeavy
tiles (each a scalar register file plus program counter).  Addresses in
engine programs are *word* offsets into a tile's scratchpad; sizes pack
2-D extents as ``(height << 16) | width`` so the published instruction
signatures of Fig 8 carry shapes in single operands.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.chip import ChipConfig
from repro.dnn.layers import PoolMode
from repro.errors import SimulationError
from repro.isa.instructions import (
    DMALOAD, DMASTORE, MATMUL, NDACCUM, NDACTBP, NDACTFN, NDCONV,
    NDSUBSAMP, NDUPSAMP, NUM_REGISTERS, PREFETCH, VECMUL, WUPDATE,
    Instruction, Opcode,
)
from repro.isa.program import Program
from repro.sim.tracker import TrackerFile

#: Packing of 2-D extents into one operand.
SHAPE_SHIFT = 16
SHAPE_MASK = (1 << SHAPE_SHIFT) - 1

#: Data-instruction operands with this bit set are register references:
#: the engine substitutes the scalar register's value at issue time —
#: how the paper's Fig 13 listings pass R-operands to NDCONV etc.
REG_OPERAND_FLAG = 1 << 30
REG_OPERAND_MASK = REG_OPERAND_FLAG - 1


def reg_operand(index: int) -> int:
    """Encode scalar register ``index`` as a data-instruction operand."""
    if not 0 <= index < 64:
        raise SimulationError(f"register index {index} out of range")
    return REG_OPERAND_FLAG | index


def is_reg_operand(value: int) -> bool:
    return bool(value & REG_OPERAND_FLAG)


def pack_shape(height: int, width: int) -> int:
    """Encode a (height, width) extent into one immediate."""
    if not (0 < height <= SHAPE_MASK and 0 < width <= SHAPE_MASK):
        raise SimulationError(f"extent {height}x{width} does not pack")
    return (height << SHAPE_SHIFT) | width


def unpack_shape(packed: int) -> Tuple[int, int]:
    """Decode a packed (height, width) extent."""
    return packed >> SHAPE_SHIFT, packed & SHAPE_MASK


def zeroed_words(count: int) -> np.ndarray:
    """``count`` float32 zeros in an anonymous memory mapping.

    The kernel zero-fills the mapping lazily, so a page becomes resident
    only when it is touched.  ``np.zeros`` asks calloc, which may serve
    a block this size from the heap and zero-fill it, making every
    untouched scratchpad word resident."""
    if count < 1:
        return np.zeros(count, dtype=np.float32)
    return np.frombuffer(mmap.mmap(-1, 4 * count), dtype=np.float32)


@dataclass
class MemTile:
    """A MemHeavy tile: scratchpad words, tracker file, DMA statistics."""

    tile_id: int
    words: np.ndarray
    trackers: TrackerFile
    sfu_count: int

    @classmethod
    def build(
        cls, tile_id: int, capacity_bytes: int, sfu_count: int,
        tracker_capacity: int = 32,
    ) -> "MemTile":
        return cls(
            tile_id=tile_id,
            words=zeroed_words(capacity_bytes // 4),
            trackers=TrackerFile(tracker_capacity),
            sfu_count=sfu_count,
        )

    @property
    def capacity_words(self) -> int:
        return len(self.words)

    def read(self, addr: int, count: int) -> np.ndarray:
        if addr < 0 or addr + count > len(self.words):
            raise SimulationError(
                f"tile {self.tile_id}: read [{addr}, {addr + count}) out of "
                f"bounds ({len(self.words)} words)"
            )
        return self.words[addr : addr + count]

    def write(self, addr: int, data: np.ndarray, accumulate: bool) -> None:
        count = data.size
        if addr < 0 or addr + count > len(self.words):
            raise SimulationError(
                f"tile {self.tile_id}: write [{addr}, {addr + count}) out "
                f"of bounds ({len(self.words)} words)"
            )
        # No copy of float32 data: the slice assignment copies it once,
        # and numpy's overlap check covers a source that aliases these
        # words (an NDACCUM within one tile).
        flat = data.reshape(-1).astype(np.float32, copy=False)
        if accumulate:
            self.words[addr : addr + count] += flat
        else:
            self.words[addr : addr + count] = flat


@dataclass
class CompTile:
    """A CompHeavy tile: registers, program, program counter, clock."""

    tile_id: str
    program: Program
    registers: np.ndarray = field(
        default_factory=lambda: np.zeros(NUM_REGISTERS, dtype=np.int64)
    )
    pc: int = 0
    cycles: int = 0
    halted: bool = False
    blocked: bool = False
    instructions_executed: int = 0
    stalled_cycles: int = 0  # cycles spent retrying blocked instructions
    blocked_retries: int = 0  # retries of the *current* instruction

    @property
    def busy_cycles(self) -> int:
        """Cycles spent executing (total minus tracker-blocked stalls)."""
        return self.cycles - self.stalled_cycles

    def reg(self, index: int) -> int:
        return int(self.registers[index])

    def set_reg(self, index: int, value: int) -> None:
        self.registers[index] = value


class Machine:
    """One-chip engine state: a mesh of MemTiles plus CompTiles.

    MemHeavy tiles form a ``(cols + 1) x rows`` mesh (the fencepost
    arrangement of Sec 3.2.1); ``mem_tile_id(col, row)`` flattens the
    coordinates.  Engine DMA may move data between any two tiles; timing
    charges Manhattan-distance hops over the point-to-point links.
    """

    def __init__(self, chip: ChipConfig, mem_columns: int, rows: int) -> None:
        if mem_columns < 1 or rows < 1:
            raise SimulationError("machine mesh must be non-empty")
        self.chip = chip
        self.mem_columns = mem_columns
        self.rows = rows
        self.mem_tiles: List[MemTile] = [
            MemTile.build(
                i, chip.mem_tile.capacity_bytes, chip.mem_tile.num_sfu,
                chip.mem_tile.tracker_count,
            )
            for i in range(mem_columns * rows)
        ]
        self.comp_tiles: Dict[str, CompTile] = {}

    # ------------------------------------------------------------------
    def mem_tile_id(self, col: int, row: int) -> int:
        if not (0 <= col < self.mem_columns and 0 <= row < self.rows):
            raise SimulationError(
                f"mem tile ({col}, {row}) outside "
                f"{self.mem_columns}x{self.rows} mesh"
            )
        return col * self.rows + row

    def mem_tile(self, tile_id: int) -> MemTile:
        try:
            return self.mem_tiles[tile_id]
        except IndexError:
            raise SimulationError(f"no mem tile {tile_id}") from None

    def hops(self, src_tile: int, dst_tile: int) -> int:
        """Manhattan distance between two mem tiles on the mesh."""
        sc, sr = divmod(src_tile, self.rows)
        dc, dr = divmod(dst_tile, self.rows)
        return abs(sc - dc) + abs(sr - dr)

    def reset_programs(self) -> None:
        """Rewind every CompHeavy tile for another run of its program
        (weights and scratchpad contents persist — this is how the SGD
        loop iterates images on the same machine)."""
        for tile in self.comp_tiles.values():
            tile.pc = 0
            tile.halted = False
            tile.blocked = False
            tile.blocked_retries = 0

    def load_program(self, program: Program) -> CompTile:
        program.validate()
        if program.tile in self.comp_tiles:
            raise SimulationError(
                f"comp tile {program.tile!r} already has a program"
            )
        tile = CompTile(tile_id=program.tile, program=program)
        self.comp_tiles[program.tile] = tile
        return tile

    # ------------------------------------------------------------------
    @property
    def total_cycles(self) -> int:
        """Makespan estimate: the slowest tile's cycle count."""
        if not self.comp_tiles:
            return 0
        return max(t.cycles for t in self.comp_tiles.values())

    @property
    def total_instructions(self) -> int:
        return sum(
            t.instructions_executed for t in self.comp_tiles.values()
        )

    @property
    def total_busy_cycles(self) -> int:
        """Sum of per-tile execution cycles, excluding tracker stalls.

        Unlike the makespan (``total_cycles``), this is invariant under
        superop fusion: fused execution compresses *stall* cycles but
        charges every covered instruction its decoded cost."""
        return sum(t.busy_cycles for t in self.comp_tiles.values())


#: (port, addr, word_count) — one gated access.
Access = Tuple[int, int, int]


#: Sampling codes for NDSUBSAMP's samp_type operand (and NDUPSAMP's
#: pooling modes), and the mode each code names.
SAMP_CODES = {PoolMode.MAX: 0, PoolMode.AVG: 1}
CODE_TO_SAMP = {v: k for k, v in SAMP_CODES.items()}

#: Extra NDUPSAMP mode: zero-insertion dilation (the error expansion
#: that turns a strided convolution's BP into a stride-1 full conv).
UPSAMP_ZERO_INSERT = 2

#: NDUPSAMP's samp_type codes: the pooling mode whose backward pass
#: spreads the error, or None for zero insertion.
UPSAMP_MODES = {**CODE_TO_SAMP, UPSAMP_ZERO_INSERT: None}


def check_stride(what: str, stride: int) -> None:
    """A stride below 1 raises :class:`SimulationError` naming ``what``
    (the opcode)."""
    if stride < 1:
        raise SimulationError(f"{what} stride={stride}: must be >= 1")


def check_kernel(what: str, kernel: int, h: int, w: int, pad: int) -> None:
    """A convolution kernel spans at most its padded ``h`` x ``w``
    plane; a larger one (which would give no output) raises
    :class:`SimulationError` naming ``what`` (the opcode) and the
    kernel."""
    limit = min(h, w) + 2 * pad
    if kernel > limit:
        raise SimulationError(
            f"{what} kernel={kernel}: must be at most {limit} to fit its "
            f"{h}x{w} plane padded by {pad}"
        )


def check_matmul(n: int, rows: int, cols: int) -> None:
    """A MATMUL's vector is as long as its matrix is wide; any other
    raises :class:`SimulationError` naming both shapes."""
    if n != cols:
        raise SimulationError(
            f"MATMUL shape mismatch: vector {n} vs matrix {rows}x{cols}"
        )


def check_code(op: Opcode, name: str, value: int, codes: dict, what: str):
    """The meaning of ``value``, code operand ``name`` of an ``op``; a
    code outside ``codes`` raises :class:`SimulationError` naming the
    opcode and operand."""
    if value not in codes:
        raise SimulationError(
            f"{op.value} {name}={value}: not {what} code {sorted(codes)}"
        )
    return codes[value]


def check_window(what: str, window: int, limit: int, why: str) -> None:
    """A pooling window spans 1 to ``limit`` words a side; any other
    raises :class:`SimulationError` naming ``what`` (the opcode and any
    mode operand) and the window."""
    if not 1 <= window <= limit:
        raise SimulationError(
            f"{what} window={window}: must be 1..{limit} {why}"
        )


def has_register_operand(operands: Tuple[int, ...]) -> bool:
    """Whether any operand carries the register flag (every negative
    immediate does too): bit 30 of the operands' OR is set exactly when
    it is set in one of them."""
    return bool(reduce(or_, operands, 0) & REG_OPERAND_FLAG)


_MAX = PoolMode.MAX


def instruction_accesses(
    instr: Instruction,
) -> Tuple[Tuple[Access, ...], Tuple[Access, ...]]:
    """The (reads, writes) a data instruction performs, as the engine
    gates them.  Scalar/control/track instructions access nothing.

    Register-indirect operands cannot be resolved statically: the
    engine asks again with the registers' values substituted when such
    an instruction issues, and programs using them (hand-written looped
    templates) bypass the calibration pass, which is why the production
    code generator unrolls loops — the static analysis then sees every
    address.

    A stride below 1, an NDCONV kernel larger than its padded plane, a
    MATMUL vector as long as its matrix is not wide, a sampling code
    outside NDSUBSAMP's or NDUPSAMP's modes, or a pooling window that
    does not fit its plane (NDSUBSAMP) or its stride (NDUPSAMP's max
    and avg modes), raises :class:`SimulationError` naming the opcode
    and operand: the access table, calibration and the engine's decoder
    refuse it alike.

    Operands are unpacked by position, in :data:`OPERAND_NAMES` order.
    The accesses are tuples of ``(port, addr, count)`` tuples of ints,
    which the cyclic collector need not track.
    """
    op = instr.opcode
    operands = instr.operands
    if has_register_operand(operands):
        raise SimulationError(
            f"{op.value} uses register-indirect operands; accesses are "
            "only known at execution time"
        )
    if op is NDCONV:
        (in_addr, in_port, in_size, kernel_addr, kernel_size, stride, pad,
         out_addr, out_port, _) = operands
        check_stride("NDCONV", stride)
        h = in_size >> SHAPE_SHIFT
        w = in_size & SHAPE_MASK
        k = kernel_size >> SHAPE_SHIFT
        check_kernel("NDCONV", k, h, w, pad)
        out_h = (h + 2 * pad - k) // stride + 1
        out_w = (w + 2 * pad - k) // stride + 1
        return (
            ((in_port, in_addr, h * w), (in_port, kernel_addr, k * k)),
            ((out_port, out_addr, out_h * out_w),),
        )
    if op is DMALOAD or op is DMASTORE:
        src_addr, src_port, dst_addr, dst_port, size, _ = operands
        return ((src_port, src_addr, size),), ((dst_port, dst_addr, size),)
    if op is NDACCUM:
        src_addr, port, size, dst_addr = operands
        return ((port, src_addr, size),), ((port, dst_addr, size),)
    if op is MATMUL:
        (in1_addr, in1_port, in1_size, in2_addr, in2_port, in2_size,
         out_addr, out_port, _) = operands
        rows, cols = unpack_shape(in2_size)
        n = in1_size & SHAPE_MASK
        check_matmul(n, rows, cols)
        return (
            ((in1_port, in1_addr, n), (in2_port, in2_addr, rows * cols)),
            ((out_port, out_addr, rows),),
        )
    if op is NDACTFN:
        _, in_addr, port, size, out_addr, out_port = operands
        return ((port, in_addr, size),), ((out_port, out_addr, size),)
    if op is NDACTBP:
        _, err_addr, port, size, out_addr, out_port = operands
        return (
            ((port, err_addr, size), (port, err_addr + size, size)),
            ((out_port, out_addr, size),),
        )
    if op is NDSUBSAMP:
        (samp, in_addr, port, in_size, window, stride, out_addr,
         out_port) = operands
        check_stride("NDSUBSAMP", stride)
        h, w = unpack_shape(in_size)
        check_window(
            "NDSUBSAMP", window, min(h, w), f"to fit its {h}x{w} plane"
        )
        check_code(op, "samp_type", samp, CODE_TO_SAMP, "a sampling")
        out_h = (h - window) // stride + 1
        out_w = (w - window) // stride + 1
        return (
            ((port, in_addr, h * w),), ((out_port, out_addr, out_h * out_w),)
        )
    if op is NDUPSAMP:
        (samp, in_addr, port, in_size, window, stride, out_addr,
         out_port) = operands
        check_stride("NDUPSAMP", stride)
        h, w = unpack_shape(in_size)
        mode = check_code(op, "samp_type", samp, UPSAMP_MODES, "an up-sampling")
        if mode is not None:
            check_window(
                f"NDUPSAMP samp_type={samp}", window, stride,
                f"(the stride) to spread {mode.value} windows",
            )
        reads = ((port, in_addr, h * w),)
        if samp == UPSAMP_ZERO_INSERT:
            out = ((h - 1) * stride + 1) * ((w - 1) * stride + 1)
        else:
            out = h * stride * w * stride
            if mode is _MAX:  # max routing reads the original
                reads += ((port, in_addr + h * w, out),)
        return reads, ((out_port, out_addr, out),)
    if op is VECMUL:
        in1_addr, in2_addr, port, size, out_addr = operands
        return (
            ((port, in1_addr, size), (port, in2_addr, size)),
            ((port, out_addr, size),),
        )
    if op is WUPDATE:
        weight_addr, grad_addr, port, size, _, _ = operands
        return ((port, grad_addr, size),), ((port, weight_addr, size),)
    if op is PREFETCH:
        _, dst_addr, dst_port, size = operands
        return (), ((dst_port, dst_addr, size),)
    return (), ()
