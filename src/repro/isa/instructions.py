"""The ScaleDeep instruction set (paper Fig 8, Sec 3.2.2).

The ISA contains 28 instructions in five groups:

* scalar control instructions (loads, ALU ops, branches) executed on the
  CompHeavy tile's in-order scalar PE;
* coarse-grained data instructions (NDCONV, MATMUL) executed on the
  2D-PE array;
* MemHeavy offload instructions (activation functions, sampling,
  accumulation, element-wise multiply) executed on a connected MemHeavy
  tile's SFUs;
* MemHeavy data-transfer instructions (DMA loads/stores, pass-buffers);
* data-flow tracking instructions (MEMTRACK and its DMA variant) that
  implement the synchronization scheme of Sec 3.2.4.

Operands are named per-opcode; :data:`OPERAND_NAMES` documents the
signature the assembler and the functional engine agree on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.errors import ProgramError

#: Number of scalar registers per CompHeavy tile.  The compiled listings
#: in the paper's Fig 13 use registers up to r47; 64 is the power of two
#: that accommodates them.
NUM_REGISTERS = 64


class InstrGroup(enum.Enum):
    """The five instruction groups of Sec 3.2.2."""

    SCALAR = "scalar-control"
    COARSE = "coarse-grained-data"
    OFFLOAD = "memheavy-offload"
    TRANSFER = "memheavy-data-transfer"
    TRACK = "data-flow-track"


class Opcode(enum.Enum):
    """All 28 ScaleDeep instructions."""

    # --- scalar control (12) ------------------------------------------
    LDRI = "LDRI"        # load immediate into register
    MOVR = "MOVR"        # copy register
    ADDR = "ADDR"        # add registers
    ADDRI = "ADDRI"      # add immediate
    SUBR = "SUBR"        # subtract registers
    SUBRI = "SUBRI"      # subtract immediate
    MULR = "MULR"        # multiply registers
    BEQZ = "BEQZ"        # branch if zero
    BNEZ = "BNEZ"        # branch if not zero
    BGTZ = "BGTZ"        # branch if greater than zero
    BRANCH = "BRANCH"    # unconditional relative branch
    HALT = "HALT"        # end of program

    # --- coarse-grained data (2) --------------------------------------
    NDCONV = "NDCONV"    # batch convolution on the 2D-PE array
    MATMUL = "MATMUL"    # matrix multiplication on the 2D-PE array

    # --- MemHeavy offload (7) -----------------------------------------
    NDACTFN = "NDACTFN"        # activation function over a region
    NDACTBP = "NDACTBP"        # activation derivative (BP masking)
    NDSUBSAMP = "NDSUBSAMP"    # down-sampling (max/avg pooling)
    NDUPSAMP = "NDUPSAMP"      # error up-sampling during BP
    NDACCUM = "NDACCUM"        # accumulate one region into another
    VECMUL = "VECMUL"          # vector element-wise multiply (FC WG)
    WUPDATE = "WUPDATE"        # apply scaled gradient to weights (SGD)

    # --- MemHeavy data transfer (5) -------------------------------------
    DMALOAD = "DMALOAD"        # pull data into a MemHeavy tile
    DMASTORE = "DMASTORE"      # push data out of a MemHeavy tile
    PASSBUFF_RD = "PASSBUFF_RD"  # stream a region through the read FIFO
    PASSBUFF_WR = "PASSBUFF_WR"  # stream a region through the write FIFO
    PREFETCH = "PREFETCH"      # early external-memory weight fetch

    # --- data-flow track (2) ------------------------------------------
    MEMTRACK = "MEMTRACK"          # arm a tracker on an address range
    DMA_MEMTRACK = "DMA_MEMTRACK"  # arm a tracker on a remote tile's range


#: Group membership for every opcode.
OPCODE_GROUPS: Mapping[Opcode, InstrGroup] = {
    **{op: InstrGroup.SCALAR for op in (
        Opcode.LDRI, Opcode.MOVR, Opcode.ADDR, Opcode.ADDRI, Opcode.SUBR,
        Opcode.SUBRI, Opcode.MULR, Opcode.BEQZ, Opcode.BNEZ, Opcode.BGTZ,
        Opcode.BRANCH, Opcode.HALT,
    )},
    **{op: InstrGroup.COARSE for op in (Opcode.NDCONV, Opcode.MATMUL)},
    **{op: InstrGroup.OFFLOAD for op in (
        Opcode.NDACTFN, Opcode.NDACTBP, Opcode.NDSUBSAMP, Opcode.NDUPSAMP,
        Opcode.NDACCUM, Opcode.VECMUL, Opcode.WUPDATE,
    )},
    **{op: InstrGroup.TRANSFER for op in (
        Opcode.DMALOAD, Opcode.DMASTORE, Opcode.PASSBUFF_RD,
        Opcode.PASSBUFF_WR, Opcode.PREFETCH,
    )},
    **{op: InstrGroup.TRACK for op in (Opcode.MEMTRACK, Opcode.DMA_MEMTRACK)},
}

#: Named operand signature per opcode.  ``r*`` operands are register
#: indices; others are immediates.  Port operands select which connected
#: MemHeavy tile (or external memory channel) an address refers to.
OPERAND_NAMES: Mapping[Opcode, Tuple[str, ...]] = {
    Opcode.LDRI: ("rd", "value"),
    Opcode.MOVR: ("rd", "rs"),
    Opcode.ADDR: ("rd", "rs1", "rs2"),
    Opcode.ADDRI: ("rd", "rs", "value"),
    Opcode.SUBR: ("rd", "rs1", "rs2"),
    Opcode.SUBRI: ("rd", "rs", "value"),
    Opcode.MULR: ("rd", "rs1", "rs2"),
    Opcode.BEQZ: ("rs", "offset"),
    Opcode.BNEZ: ("rs", "offset"),
    Opcode.BGTZ: ("rs", "offset"),
    Opcode.BRANCH: ("offset",),
    Opcode.HALT: (),
    Opcode.NDCONV: (
        "in_addr", "in_port", "in_size", "kernel_addr", "kernel_size",
        "stride", "pad", "out_addr", "out_port", "is_accum",
    ),
    Opcode.MATMUL: (
        "in1_addr", "in1_port", "in1_size", "in2_addr", "in2_port",
        "in2_size", "out_addr", "out_port", "is_accum",
    ),
    Opcode.NDACTFN: (
        "fn_type", "in_addr", "port", "size", "out_addr", "out_port",
    ),
    Opcode.NDACTBP: (
        "fn_type", "err_addr", "port", "size", "out_addr", "out_port",
    ),
    Opcode.NDSUBSAMP: (
        "samp_type", "in_addr", "port", "in_size", "window", "stride",
        "out_addr", "out_port",
    ),
    Opcode.NDUPSAMP: (
        "samp_type", "in_addr", "port", "in_size", "window", "stride",
        "out_addr", "out_port",
    ),
    Opcode.NDACCUM: ("src_addr", "port", "size", "dst_addr"),
    Opcode.VECMUL: ("in1_addr", "in2_addr", "port", "size", "out_addr"),
    Opcode.WUPDATE: ("weight_addr", "grad_addr", "port", "size", "lr_num",
                     "lr_denom"),
    Opcode.DMALOAD: (
        "src_addr", "src_port", "dst_addr", "dst_port", "size", "is_accum",
    ),
    Opcode.DMASTORE: (
        "src_addr", "src_port", "dst_addr", "dst_port", "size", "is_accum",
    ),
    Opcode.PASSBUFF_RD: ("addr", "port", "size"),
    Opcode.PASSBUFF_WR: ("addr", "port", "size"),
    Opcode.PREFETCH: ("src_addr", "dst_addr", "dst_port", "size"),
    Opcode.MEMTRACK: ("addr", "port", "size", "num_updates", "num_reads"),
    Opcode.DMA_MEMTRACK: (
        "addr", "port", "size", "num_updates", "num_reads", "target",
    ),
}

assert len(Opcode) == 28, "the paper's ISA has exactly 28 instructions"
assert set(OPERAND_NAMES) == set(Opcode)
assert set(OPCODE_GROUPS) == set(Opcode)

#: Every opcode also as a module name.  Hot paths import these and test
#: ``op is NDCONV`` against a global: reading ``Opcode.NDCONV`` goes
#: through the enum class on each use, several times slower.
(LDRI, MOVR, ADDR, ADDRI, SUBR, SUBRI, MULR, BEQZ, BNEZ, BGTZ, BRANCH,
 HALT, NDCONV, MATMUL, NDACTFN, NDACTBP, NDSUBSAMP, NDUPSAMP, NDACCUM,
 VECMUL, WUPDATE, DMALOAD, DMASTORE, PASSBUFF_RD, PASSBUFF_WR, PREFETCH,
 MEMTRACK, DMA_MEMTRACK) = Opcode
assert all(globals()[op.name] is op for op in Opcode)

#: Per opcode, the number of operands it takes.
_ARITY = {op: len(names) for op, names in OPERAND_NAMES.items()}


@dataclass(frozen=True, slots=True)
class Instruction:
    """One decoded ScaleDeep instruction: an immutable value, equal and
    hashable by its fields.  ``operands`` are in :data:`OPERAND_NAMES`
    order."""

    opcode: Opcode
    operands: Tuple[int, ...] = ()
    comment: str = ""

    def __post_init__(self) -> None:
        if len(self.operands) != _ARITY[self.opcode]:
            expected = OPERAND_NAMES[self.opcode]
            raise ProgramError(
                f"{self.opcode.value} expects {len(expected)} operands "
                f"{expected}, got {len(self.operands)}"
            )

    @property
    def group(self) -> InstrGroup:
        return OPCODE_GROUPS[self.opcode]

    def operand(self, name: str) -> int:
        """Fetch an operand by its signature name."""
        names = OPERAND_NAMES[self.opcode]
        try:
            return self.operands[names.index(name)]
        except ValueError:
            raise ProgramError(
                f"{self.opcode.value} has no operand {name!r}; "
                f"signature is {names}"
            ) from None

    def named_operands(self) -> Dict[str, int]:
        return dict(zip(OPERAND_NAMES[self.opcode], self.operands))

    def __str__(self) -> str:
        ops = ", ".join(
            f"{n}={v}" for n, v in zip(OPERAND_NAMES[self.opcode],
                                       self.operands)
        )
        text = f"{self.opcode.value} {ops}".rstrip()
        return f"{text}  ; {self.comment}" if self.comment else text


#: Per opcode, its operand names in signature order and as a set.
_SIGNATURES = {
    op: (names, frozenset(names)) for op, names in OPERAND_NAMES.items()
}


def make(opcode: Opcode, comment: str = "", **operands: int) -> Instruction:
    """Build an instruction from keyword operands, in signature order."""
    names, expected = _SIGNATURES[opcode]
    if operands.keys() != expected:
        missing = [n for n in names if n not in operands]
        extra = [n for n in operands if n not in expected]
        raise ProgramError(
            f"{opcode.value}: missing operands {missing}, "
            f"unexpected {extra}; signature is {names}"
        )
    return Instruction(
        opcode, tuple(map(int, map(operands.__getitem__, names))), comment
    )
