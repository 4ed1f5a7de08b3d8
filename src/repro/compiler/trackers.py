"""Static access analysis and tracker calibration.

The MEMTRACK scheme works because "the data access sequence to each
location in memory can be ascertained at compile time" (Sec 3.2.4).
This module makes that claim executable.

:class:`AccessTable` enumerates a program set once: every data
instruction's gated reads and writes (from :func:`instruction_accesses`,
the single definition of a gated access, shared with the engine's
gating logic), the instructions whose operands are register references
and so cannot be resolved statically, and every armed tracker range in
arming order.  The arms are also indexed per port, sorted by address,
so the arms one access covers are a bisect on their ends plus a walk
over one contiguous run.  One table serves a whole compile: calibration,
superop fusion and the program verifier all read it.

:func:`calibrate_trackers` counts the accesses landing in every armed
range and rewrites each MEMTRACK / DMA_MEMTRACK with the exact
update/read counts.  Compilers can therefore emit trackers with
placeholder counts and let the calibration pass finish the job; a
miscounted tracker becomes impossible by construction.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ProgramError, SimulationError
from repro.isa.instructions import InstrGroup, Opcode, make
from repro.isa.program import Program
from repro.sim.machine import Access, instruction_accesses, is_reg_operand

#: The instruction groups whose operands address scratchpad data.
_DATA_GROUPS = frozenset((
    InstrGroup.COARSE, InstrGroup.OFFLOAD, InstrGroup.TRANSFER,
))


class ArmedRange(NamedTuple):
    """One tracker arm: ``programs[prog][pc]`` arms ``[addr, addr +
    size)`` of mem tile ``port``."""

    prog: int
    pc: int
    port: int
    addr: int
    size: int


class AccessTable:
    """Every gated access and armed range of one program set.

    Build it once the pcs are final and share it for the rest of the
    compile; it holds no tracker counts, so calibration does not
    invalidate it.  It is large (a tuple per data instruction), so it
    lives no longer than the compile that built it.
    """

    def __init__(self, programs: Sequence[Program]) -> None:
        self.programs = list(programs)
        #: Per program, ``(pc, reads, writes)`` of each data instruction
        #: whose operands are all immediates.
        self.accesses: List[List[Tuple[int, List[Access], List[Access]]]] = []
        #: ``(prog, pc)`` of every instruction with an operand carrying
        #: the register flag (negative immediates read the same way), in
        #: program order: their accesses are known only at execution.
        self.indirect: List[Tuple[int, int]] = []
        #: Every MEMTRACK / DMA_MEMTRACK, in arming order.
        self.arms: List[ArmedRange] = []
        for prog, program in enumerate(self.programs):
            rows = []
            for pc, instr in enumerate(program.instructions):
                group = instr.group
                if group is InstrGroup.TRACK:
                    o = instr.named_operands()
                    port = (
                        o["target"] if instr.opcode is Opcode.DMA_MEMTRACK
                        else o["port"]
                    )
                    self.arms.append(
                        ArmedRange(prog, pc, port, o["addr"], o["size"])
                    )
                if any(map(is_reg_operand, instr.operands)):
                    self.indirect.append((prog, pc))
                elif group in _DATA_GROUPS:
                    reads, writes = instruction_accesses(instr)
                    rows.append((pc, reads, writes))
            self.accesses.append(rows)
        #: Per port: the arms' indices sorted by address, and their
        #: starts and ends in the same order.
        self.index: Dict[int, Tuple[List[int], List[int], List[int]]] = {}
        by_port: Dict[int, List[int]] = {}
        for i, arm in enumerate(self.arms):
            by_port.setdefault(arm.port, []).append(i)
        for port, ids in by_port.items():
            ids.sort(key=lambda i: self.arms[i].addr)
            self.index[port] = (
                ids,
                [self.arms[i].addr for i in ids],
                [self.arms[i].addr + self.arms[i].size for i in ids],
            )

    def covering(self, port: int, addr: int, count: int) -> List[int]:
        """Indices of the arms on ``port`` that ``[addr, addr + count)``
        overlaps, in address order.

        Exact once calibration has accepted the arms: every size is at
        least 1 and no two overlap, so the ends ascend with the starts
        and the covered arms form one contiguous run.
        """
        entry = self.index.get(port)
        if entry is None:
            return []
        ids, starts, ends = entry
        end = addr + count
        i = bisect_right(ends, addr)
        hit = []
        while i < len(starts) and starts[i] < end:
            hit.append(ids[i])
            i += 1
        return hit


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
    one; otherwise one is built here.

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
        if any(start < end for start, end in zip(starts[1:], ends)):
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
    updates = [0] * len(arms)
    reads = [0] * len(arms)
    covering = table.covering
    for rows in table.accesses:
        for _, row_reads, row_writes in rows:
            for port, addr, count in row_reads:
                for i in covering(port, addr, count):
                    reads[i] += 1
            for port, addr, count in row_writes:
                for i in covering(port, addr, count):
                    updates[i] += 1

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
        old = program[arm.pc]
        o = old.named_operands()
        o["num_updates"] = num_updates
        o["num_reads"] = num_reads
        program.instructions[arm.pc] = make(
            old.opcode, comment=old.comment, **o
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
