"""Static access analysis and tracker calibration.

The MEMTRACK scheme works because "the data access sequence to each
location in memory can be ascertained at compile time" (Sec 3.2.4).
This module makes that claim executable.

:class:`AccessTable` enumerates a program set once: every data
instruction's gated reads and writes (from :func:`instruction_accesses`,
the single definition of a gated access, shared with the engine's
gating logic), the instructions whose operands are register references
and so cannot be resolved statically, and every armed tracker range in
arming order.  The reads and the writes are kept as integer columns
(:class:`Accesses`), so the passes that read them work on whole arrays.
The arms are also indexed per port, sorted by address, so the arms an
access covers are one contiguous run found by two binary searches, done
for every access of a port at once (:meth:`AccessTable.resolve_coverage`).
One table serves a whole compile: calibration, superop fusion and the
program verifier all read it.

:func:`calibrate_trackers` resolves each access's coverage once, after
it has accepted the arms, and keeps it on the table for fusion; it
counts the accesses landing in every armed range and rewrites each
MEMTRACK / DMA_MEMTRACK with the exact update/read counts.  Compilers
can therefore emit trackers with placeholder counts and let the
calibration pass finish the job; a miscounted tracker becomes
impossible by construction.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ProgramError, SimulationError
from repro.isa.instructions import (
    DMA_MEMTRACK, MEMTRACK, OPCODE_GROUPS, InstrGroup, Instruction, Opcode,
)
from repro.isa.program import Program
from repro.sim.machine import has_register_operand, instruction_accesses

#: The opcodes whose operands address scratchpad data.
_DATA_OPCODES = frozenset(
    op for op, group in OPCODE_GROUPS.items()
    if group in (InstrGroup.COARSE, InstrGroup.OFFLOAD, InstrGroup.TRANSFER)
)

#: The coverage code of an access that overlaps no armed range.
NO_ARM = -1


class ArmedRange(NamedTuple):
    """One tracker arm: ``programs[prog][pc]`` arms ``[addr, addr +
    size)`` of mem tile ``port``."""

    prog: int
    pc: int
    port: int
    addr: int
    size: int


class Accesses(NamedTuple):
    """One kind of gated access (the reads, or the writes) of a program
    set: ``int64`` columns, one entry per access, in program, pc and
    operand order.  Program ``p``'s accesses are ``at[p]:at[p + 1]``."""

    prog: np.ndarray
    pc: np.ndarray
    port: np.ndarray
    addr: np.ndarray
    count: np.ndarray
    at: np.ndarray

    @classmethod
    def build(
        cls, prog: List[int], pc: List[int], per_row: List[tuple],
        programs: int,
    ) -> "Accesses":
        """Columns from each data instruction's program, pc and tuple
        of ``(port, addr, count)`` accesses."""
        sizes = np.fromiter(map(len, per_row), np.int64, len(per_row))
        total = int(sizes.sum())
        quads = np.fromiter(
            chain.from_iterable(chain.from_iterable(per_row)), np.int64,
            3 * total,
        ).reshape(total, 3)
        progs = np.repeat(np.array(prog, np.int64), sizes)
        at = np.zeros(programs + 1, np.int64)
        np.cumsum(np.bincount(progs, minlength=programs), out=at[1:])
        return cls(
            progs, np.repeat(np.array(pc, np.int64), sizes),
            quads[:, 0].copy(), quads[:, 1].copy(), quads[:, 2].copy(), at,
        )

    def quads(self, index: np.ndarray) -> List[Tuple[int, int, int]]:
        """The ``(port, addr, count)`` of the accesses at ``index``, as
        tuples of Python ints."""
        return list(zip(
            self.port[index].tolist(), self.addr[index].tolist(),
            self.count[index].tolist(),
        ))


class AccessTable:
    """Every gated access and armed range of one program set.

    Build it once the pcs are final and share it for the rest of the
    compile; it holds no tracker counts, so calibration does not
    invalidate it.  The accesses are numpy columns: no per-access or
    per-instruction Python object outlives the build.
    """

    def __init__(self, programs: Sequence[Program]) -> None:
        self.programs = list(programs)
        #: ``(prog, pc)`` of every instruction with an operand carrying
        #: the register flag (negative immediates read the same way), in
        #: program order: their accesses are known only at execution.
        self.indirect: List[Tuple[int, int]] = []
        #: Every MEMTRACK / DMA_MEMTRACK, in arming order.
        self.arms: List[ArmedRange] = []
        #: The coverage code of each read, and of each write: an arm's
        #: index, :data:`NO_ARM`, or a code below it naming several arms
        #: (:meth:`arms_of` reads one).  :func:`calibrate_trackers`
        #: resolves them once it has accepted the arms; None until then.
        self.read_arms: Optional[np.ndarray] = None
        self.write_arms: Optional[np.ndarray] = None
        #: The arms of each access that covers more than one, by code.
        self.several: List[Tuple[int, ...]] = []
        progs: List[int] = []
        pcs: List[int] = []
        reads: List[tuple] = []
        writes: List[tuple] = []
        data = _DATA_OPCODES
        for prog, program in enumerate(self.programs):
            for pc, instr in enumerate(program.instructions):
                op = instr.opcode
                if op in data:
                    try:
                        row_reads, row_writes = instruction_accesses(instr)
                    except SimulationError:
                        if not has_register_operand(instr.operands):
                            raise
                        self.indirect.append((prog, pc))
                        continue
                    progs.append(prog)
                    pcs.append(pc)
                    reads.append(row_reads)
                    writes.append(row_writes)
                    continue
                if op is MEMTRACK or op is DMA_MEMTRACK:
                    addr, port, size = instr.operands[:3]
                    if op is DMA_MEMTRACK:
                        port = instr.operands[5]  # target
                    self.arms.append(ArmedRange(prog, pc, port, addr, size))
                if has_register_operand(instr.operands):
                    self.indirect.append((prog, pc))
        n = len(self.programs)
        #: The reads and the writes of every data instruction whose
        #: operands are all immediates.
        self.reads = Accesses.build(progs, pcs, reads, n)
        self.writes = Accesses.build(progs, pcs, writes, n)
        #: Per port: the arms' indices sorted by address (ties in arming
        #: order), and their starts and ends in the same order.
        self.index: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        ranges = np.array(
            [(arm.port, arm.addr, arm.addr + arm.size) for arm in self.arms],
            np.int64,
        ).reshape(-1, 3)
        for port in dict.fromkeys(arm.port for arm in self.arms):
            ids = np.flatnonzero(ranges[:, 0] == port)
            ids = ids[np.argsort(ranges[ids, 1], kind="stable")]
            self.index[port] = (ids, ranges[ids, 1], ranges[ids, 2])

    def _coverage(self, accesses: Accesses) -> np.ndarray:
        """Per access, the arm it covers, :data:`NO_ARM`, or a code for
        the several arms it covers (appended to :attr:`several`, in
        address order).

        Exact once calibration has accepted the arms: every size is at
        least 1 and no two overlap, so the ends ascend with the starts
        and the arms ``[addr, addr + count)`` overlaps form one
        contiguous run, from the first arm ending after ``addr`` to the
        last starting before ``addr + count``.
        """
        codes = np.full(len(accesses.addr), NO_ARM, np.int64)
        for port, (ids, starts, ends) in self.index.items():
            at = np.flatnonzero(accesses.port == port)
            if not at.size:
                continue
            addr = accesses.addr[at]
            first = np.searchsorted(ends, addr, "right")
            last = np.maximum(
                np.searchsorted(starts, addr + accesses.count[at], "left"),
                first,
            )
            hits = last - first
            one = hits == 1
            codes[at[one]] = ids[first[one]]
            for i in np.flatnonzero(hits > 1).tolist():
                self.several.append(tuple(ids[first[i]:last[i]].tolist()))
                codes[at[i]] = NO_ARM - len(self.several)
        return codes

    def resolve_coverage(self) -> None:
        """Resolve :attr:`read_arms` and :attr:`write_arms`."""
        self.several = []
        self.read_arms = self._coverage(self.reads)
        self.write_arms = self._coverage(self.writes)

    def arms_of(self, code: int) -> Sequence[int]:
        """The arms a coverage code names, in address order."""
        if code >= 0:
            return (code,)
        return () if code == NO_ARM else self.several[NO_ARM - 1 - code]

    def counts(self, codes: np.ndarray) -> np.ndarray:
        """How many of the accesses whose coverage codes are ``codes``
        land in each arm."""
        arms = [codes[codes >= 0]]
        arms += [
            np.array(self.several[NO_ARM - 1 - code], np.int64)
            for code in codes[codes < NO_ARM].tolist()
        ]
        return np.bincount(np.concatenate(arms), minlength=len(self.arms))


def calibrate_trackers(
    programs: Sequence[Program],
    external_updates: Optional[Dict[Tuple[int, int], int]] = None,
    external_reads: Optional[Dict[Tuple[int, int], int]] = None,
    table: Optional[AccessTable] = None,
) -> int:
    """Rewrite every MEMTRACK / DMA_MEMTRACK with statically counted
    accesses.

    ``external_updates`` / ``external_reads`` add host-side accesses the
    programs cannot see (e.g. the injected loss gradient), keyed by
    ``(port, addr)`` of the armed range.  ``table`` is the
    :class:`AccessTable` of ``programs`` when the caller already built
    one; otherwise one is built here.  Once the arms are accepted, each
    access's coverage is resolved on the table (for fusion) and counted.

    Returns the number of trackers calibrated.  Raises
    :class:`ProgramError` if an armed range is empty, if two armed
    ranges overlap (the hardware cannot disambiguate them) or if an
    armed range receives no accesses at all (a dead tracker is a
    compiler bug), and :class:`SimulationError` if an instruction's
    operands are register references.
    """
    if table is None:
        table = AccessTable(programs)
    external_updates = external_updates or {}
    external_reads = external_reads or {}
    arms = table.arms

    for arm in arms:
        if arm.size < 1:
            raise ProgramError(
                f"empty tracker range (size {arm.size}): "
                f"{table.programs[arm.prog].tile}@{arm.pc} "
                f"port {arm.port} addr {arm.addr}"
            )
    # Sorted by start, two arms overlap only if some neighbours do.  The
    # error names the first overlapping pair in arming order.
    for _, starts, ends in table.index.values():
        if (starts[1:] < ends[:-1]).any():
            a, b = next(
                (a, b) for i, a in enumerate(arms) for b in arms[i + 1:]
                if a.port == b.port
                and b.addr < a.addr + a.size and a.addr < b.addr + b.size
            )
            raise ProgramError(
                f"overlapping trackers: {table.programs[a.prog].tile}@{a.pc}"
                f" and {table.programs[b.prog].tile}@{b.pc} "
                f"(port {a.port}, [{a.addr}, {a.addr + a.size}) vs "
                f"[{b.addr}, {b.addr + b.size}))"
            )
    if table.indirect:
        prog, pc = table.indirect[0]
        raise SimulationError(
            f"{table.programs[prog][pc].opcode.value} uses "
            "register-indirect operands; accesses are only known at "
            "execution time"
        )

    # Count every planned access against the armed ranges.
    table.resolve_coverage()
    reads = table.counts(table.read_arms).tolist()
    updates = table.counts(table.write_arms).tolist()

    for i, arm in enumerate(arms):
        program = table.programs[arm.prog]
        key = (arm.port, arm.addr)
        num_updates = updates[i] + external_updates.get(key, 0)
        num_reads = reads[i] + external_reads.get(key, 0)
        if num_updates == 0:
            raise ProgramError(
                f"dead tracker (never written): {program.tile}"
                f"@{arm.pc} port {arm.port} addr {arm.addr}"
            )
        # MEMTRACK and DMA_MEMTRACK both count at operands 3 and 4.
        old = program[arm.pc]
        operands = old.operands
        program.instructions[arm.pc] = Instruction(
            old.opcode,
            (*operands[:3], num_updates, num_reads, *operands[5:]),
            old.comment,
        )
    return len(arms)


def audit_trackers(
    programs: Sequence[Program],
    external_updates: Optional[Dict[Tuple[int, int], int]] = None,
    external_reads: Optional[Dict[Tuple[int, int], int]] = None,
) -> Dict[str, int]:
    """Count declared vs statically-observed accesses without rewriting.

    Returns a summary; used in tests to check that compiled tracker
    counts are a fixed point of the static analysis.
    """
    import copy

    clones = [copy.deepcopy(p) for p in programs]
    declared = [
        (instr.operand("num_updates"), instr.operand("num_reads"))
        for p in programs
        for instr in p
        if instr.opcode in (Opcode.MEMTRACK, Opcode.DMA_MEMTRACK)
    ]
    calibrate_trackers(clones, external_updates, external_reads)
    observed = [
        (instr.operand("num_updates"), instr.operand("num_reads"))
        for p in clones
        for instr in p
        if instr.opcode in (Opcode.MEMTRACK, Opcode.DMA_MEMTRACK)
    ]
    mismatches = sum(1 for d, o in zip(declared, observed) if d != o)
    return {
        "trackers": len(declared),
        "mismatches": mismatches,
    }
