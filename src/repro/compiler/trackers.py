"""Static access analysis and tracker calibration.

The MEMTRACK scheme works because "the data access sequence to each
location in memory can be ascertained at compile time" (Sec 3.2.4).
This module makes that claim executable: :func:`instruction_accesses`
enumerates the gated reads and writes of any data instruction — the
single source of truth shared with the engine's gating logic — and
:func:`calibrate_trackers` scans a set of compiled programs, counts the
accesses landing in every armed range, and rewrites each MEMTRACK /
DMA_MEMTRACK with the exact update/read counts.

Compilers can therefore emit trackers with placeholder counts and let
the calibration pass finish the job; a miscounted tracker becomes
impossible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ProgramError
from repro.isa.instructions import Instruction, Opcode, make
from repro.isa.program import Program
from repro.sim.machine import Access, instruction_accesses

@dataclass
class _ArmedRange:
    """One tracker instruction found during the scan."""

    program: Program
    pc: int
    port: int
    addr: int
    size: int
    updates: int = 0
    reads: int = 0

    def overlaps(self, port: int, addr: int, count: int) -> bool:
        return (
            port == self.port
            and addr < self.addr + self.size
            and self.addr < addr + count
        )


def calibrate_trackers(
    programs: Sequence[Program],
    external_updates: Optional[Dict[Tuple[int, int], int]] = None,
    external_reads: Optional[Dict[Tuple[int, int], int]] = None,
) -> int:
    """Rewrite every MEMTRACK / DMA_MEMTRACK with statically counted
    accesses.

    ``external_updates`` / ``external_reads`` add host-side accesses the
    programs cannot see (e.g. the injected loss gradient), keyed by
    ``(port, addr)`` of the armed range.

    Returns the number of trackers calibrated.  Raises
    :class:`ProgramError` if two armed ranges overlap (the hardware
    cannot disambiguate them) or an armed range receives no accesses at
    all (a dead tracker is a compiler bug).
    """
    external_updates = external_updates or {}
    external_reads = external_reads or {}

    armed: List[_ArmedRange] = []
    for program in programs:
        for pc, instr in enumerate(program):
            if instr.opcode in (Opcode.MEMTRACK, Opcode.DMA_MEMTRACK):
                o = instr.named_operands()
                port = (
                    o["target"]
                    if instr.opcode is Opcode.DMA_MEMTRACK
                    else o["port"]
                )
                armed.append(_ArmedRange(
                    program=program, pc=pc, port=port,
                    addr=o["addr"], size=o["size"],
                ))

    for i, a in enumerate(armed):
        for b in armed[i + 1:]:
            if a.overlaps(b.port, b.addr, b.size):
                raise ProgramError(
                    f"overlapping trackers: {a.program.tile}@{a.pc} and "
                    f"{b.program.tile}@{b.pc} "
                    f"(port {a.port}, [{a.addr}, {a.addr + a.size}) vs "
                    f"[{b.addr}, {b.addr + b.size}))"
                )

    # Count every planned access against the armed ranges.
    for program in programs:
        for instr in program:
            reads, writes = instruction_accesses(instr)
            for port, addr, count in reads:
                for tracked in armed:
                    if tracked.overlaps(port, addr, count):
                        tracked.reads += 1
            for port, addr, count in writes:
                for tracked in armed:
                    if tracked.overlaps(port, addr, count):
                        tracked.updates += 1

    for tracked in armed:
        key = (tracked.port, tracked.addr)
        tracked.updates += external_updates.get(key, 0)
        tracked.reads += external_reads.get(key, 0)
        if tracked.updates == 0:
            raise ProgramError(
                f"dead tracker (never written): {tracked.program.tile}"
                f"@{tracked.pc} port {tracked.port} addr {tracked.addr}"
            )
        old = tracked.program[tracked.pc]
        o = old.named_operands()
        o["num_updates"] = tracked.updates
        o["num_reads"] = tracked.reads
        tracked.program.instructions[tracked.pc] = make(
            old.opcode, comment=old.comment, **o
        )
    return len(armed)


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
