"""Program container and validation for ScaleDeep ISA code.

A :class:`Program` holds the instruction stream for one CompHeavy tile
(each tile runs a single thread of execution whose program lives in its
instruction memory, Sec 3.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import ProgramError
from repro.isa.instructions import (
    NUM_REGISTERS,
    OPCODE_GROUPS,
    Instruction,
    InstrGroup,
    Opcode,
    OPERAND_NAMES,
)

#: Branch instructions use PC-relative offsets, like the paper's listings.
BRANCH_OPCODES = frozenset({Opcode.BEQZ, Opcode.BNEZ, Opcode.BGTZ,
                            Opcode.BRANCH})

#: Operand names that denote register indices (for validation).
_REGISTER_OPERANDS = frozenset({"rd", "rs", "rs1", "rs2"})

#: What :meth:`Program.validate` checks per opcode: the positions of its
#: register operands and of its branch offset (None if it has none).
#: Only scalar opcodes name registers, and only branches carry offsets;
#: every other opcode is absent.
_CHECKED_OPERANDS = {
    op: (
        tuple(i for i, name in enumerate(names)
              if name in _REGISTER_OPERANDS),
        names.index("offset") if op in BRANCH_OPCODES else None,
    )
    for op, names in OPERAND_NAMES.items()
    if op in BRANCH_OPCODES or _REGISTER_OPERANDS.intersection(names)
}
assert all(
    OPCODE_GROUPS[op] is InstrGroup.SCALAR for op in _CHECKED_OPERANDS
)


@dataclass(frozen=True)
class SuperOp:
    """A fused run of data instructions inside one program.

    The fusion pass (:mod:`repro.compiler.passes.fuse`) proves that the
    half-open pc range ``[start, end)`` is a straight-line sequence of
    immediate-operand data instructions matching one of the known layer
    templates, and precomputes everything the engine would otherwise
    rediscover at decode time:

    * ``external_reads`` / ``external_writes``: the ``(port, addr,
      count)`` quads that touch tracker ranges shared with *other*
      instructions — these are still peeked and consumed one quad at a
      time so tracker counts advance exactly as in per-instruction
      execution.  Quads over ranges no tracker ever arms are dropped.
    * ``expire``: armed ``(port, addr, count)`` ranges accessed *only*
      from inside fused superops of this program — consuming them
      one-by-one is unobservable, so the superop force-expires them on
      completion (the per-instruction end state).
    * ``params``: kind-specific plain data driving the whole-plane
      numpy kernel (see the engine's superop decoder).

    Superops are advisory: an engine that does not understand a kind
    (or runs with fusion off) executes the covered instructions one at
    a time with identical results.
    """

    kind: str  # "load_run" | "conv_block" | "fc_block" | "pool_run"
    start: int  # first covered pc (inclusive)
    end: int  # one past the last covered pc
    external_reads: Tuple[Tuple[int, int, int], ...] = ()
    external_writes: Tuple[Tuple[int, int, int], ...] = ()
    expire: Tuple[Tuple[int, int, int], ...] = ()
    params: Tuple[Tuple[str, object], ...] = ()

    def param(self, name: str) -> object:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def __len__(self) -> int:
        return self.end - self.start


@dataclass
class Program:
    """An instruction stream bound to one CompHeavy tile."""

    tile: str  # tile identifier, e.g. "cluster0.chip1.col3.row2.fp"
    instructions: List[Instruction] = field(default_factory=list)
    #: Fused execution plan (optional, filled in by the fusion pass).
    #: Ordered, non-overlapping, and ignored by everything except the
    #: engine's fused fast path — disassembly and validation see only
    #: the instruction stream.
    superops: Tuple[SuperOp, ...] = ()

    def append(self, instr: Instruction) -> int:
        """Append an instruction; returns its PC."""
        self.instructions.append(instr)
        return len(self.instructions) - 1

    def extend(self, instrs: Sequence[Instruction]) -> None:
        self.instructions.extend(instrs)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, pc: int) -> Instruction:
        return self.instructions[pc]

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural well-formedness.

        Raises :class:`ProgramError` on: empty program, missing HALT,
        a branch target naming no instruction of the program, or
        register indices out of range.
        """
        if not self.instructions:
            raise ProgramError(f"program for {self.tile} is empty")
        if self.instructions[-1].opcode is not Opcode.HALT:
            raise ProgramError(
                f"program for {self.tile} must end with HALT, ends with "
                f"{self.instructions[-1].opcode.value}"
            )
        length = len(self.instructions)
        for pc, instr in enumerate(self.instructions):
            checked = _CHECKED_OPERANDS.get(instr.opcode)
            if checked is None:
                continue
            registers, offset = checked
            for i in registers:
                value = instr.operands[i]
                if not 0 <= value < NUM_REGISTERS:
                    raise ProgramError(
                        f"{self.tile} pc={pc}: register r{value} out of "
                        f"range in {instr}"
                    )
            if offset is not None:
                target = pc + 1 + instr.operands[offset]
                if not 0 <= target < length:
                    raise ProgramError(
                        f"{self.tile} pc={pc}: branch target {target} "
                        f"outside program of length {length}"
                    )

    # ------------------------------------------------------------------
    def counts_by_group(self) -> dict:
        """Instruction counts per group — useful for overhead accounting."""
        counts: dict = {}
        for instr in self.instructions:
            counts[instr.group] = counts.get(instr.group, 0) + 1
        return counts

    def disassemble(self) -> str:
        """Human-readable listing in the style of the paper's Fig 13."""
        lines = [f"--- Program for {self.tile} ---"]
        for pc, instr in enumerate(self.instructions):
            lines.append(f"{pc:>4}:  {instr}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Program({self.tile!r}, {len(self.instructions)} instrs)"
