"""Differential tests: the access table against the pairwise algorithms.

Calibration counts tracker accesses with a bisect over each port's
sorted arms, and the verifier records written memory as merged
intervals.  The oracles below are the algorithms they replaced, kept
verbatim: every arm compared with every other arm and with every
access, and coverage as a Python set of written words.  Generated
program sets must produce the same tracker counts, the same errors and
the same findings from both.
"""

import copy
from typing import Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.trackers import calibrate_trackers
from repro.compiler.verifier import Issue, MachineShape, verify_programs
from repro.errors import ProgramError
from repro.isa import Opcode, Program, make
from repro.sim.engine import EXTERNAL_PORT
from repro.sim.machine import (
    instruction_accesses,
    is_reg_operand,
    reg_operand,
)


# ---------------------------------------------------------------------------
# Oracles: the pairwise calibration and per-word coverage they replaced
# ---------------------------------------------------------------------------
class _ArmedRange:
    def __init__(self, program, pc, port, addr, size):
        self.program, self.pc = program, pc
        self.port, self.addr, self.size = port, addr, size
        self.updates = 0
        self.reads = 0

    def overlaps(self, port, addr, count):
        return (
            port == self.port
            and addr < self.addr + self.size
            and self.addr < addr + count
        )


def oracle_calibrate(programs, external_updates=None, external_reads=None):
    external_updates = external_updates or {}
    external_reads = external_reads or {}

    armed = []
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
                    program, pc, port, o["addr"], o["size"]
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


def oracle_verify(programs, shape, preloaded=(), host_writes=()):
    issues: List[Issue] = []
    reads, writes = [], []
    for program in programs:
        for pc, instr in enumerate(program):
            if any(is_reg_operand(v) for v in instr.operands):
                continue
            r, w = instruction_accesses(instr)
            for port, addr, count in r:
                reads.append((program.tile, pc, port, addr, count))
            for port, addr, count in w:
                writes.append((program.tile, pc, port, addr, count))

    for tile, pc, port, addr, count in reads + writes:
        if not shape.valid_port(port):
            issues.append(Issue(tile, pc, f"port {port} does not exist"))
            continue
        if port == EXTERNAL_PORT:
            continue
        if addr < 0 or addr + count > shape.words_per_tile:
            issues.append(Issue(
                tile, pc,
                f"range [{addr}, {addr + count}) exceeds the "
                f"{shape.words_per_tile}-word scratchpad of tile {port}",
            ))

    written: Dict[int, Set[int]] = {}
    for port, addr, count in list(preloaded) + list(host_writes):
        written.setdefault(port, set()).update(range(addr, addr + count))
    for _, _, port, addr, count in writes:
        if port != EXTERNAL_PORT:
            written.setdefault(port, set()).update(
                range(addr, addr + count)
            )
    for tile, pc, port, addr, count in reads:
        if port == EXTERNAL_PORT:
            continue
        covered = written.get(port, set())
        missing = [w for w in range(addr, addr + count) if w not in covered]
        if missing:
            issues.append(Issue(
                tile, pc,
                f"reads {len(missing)} never-written word(s) of tile "
                f"{port} starting at {missing[0]}",
            ))

    armed: Dict[int, int] = {}
    for program in programs:
        for pc, instr in enumerate(program):
            if instr.opcode in (Opcode.MEMTRACK, Opcode.DMA_MEMTRACK):
                o = instr.named_operands()
                port = (
                    o["target"]
                    if instr.opcode is Opcode.DMA_MEMTRACK
                    else o["port"]
                )
                armed[port] = armed.get(port, 0) + 1
    for port, count in armed.items():
        if count > shape.trackers_per_tile:
            issues.append(Issue(
                "<set>", -1,
                f"tile {port} arms {count} trackers; the tracker file "
                f"holds {shape.trackers_per_tile}",
            ))
    return issues


# ---------------------------------------------------------------------------
# Generated program sets
# ---------------------------------------------------------------------------
SHAPE = MachineShape(mem_tiles=3, words_per_tile=64, trackers_per_tile=4)
ARM_PORTS = (0, 1, EXTERNAL_PORT)
DATA_PORTS = (0, 1, 2, 3, EXTERNAL_PORT)


class Case:
    """One generated program set with its host-side accesses."""

    def __init__(self, programs, external_updates, external_reads,
                 preloaded, host_writes):
        self.programs = programs
        self.external_updates = external_updates
        self.external_reads = external_reads
        self.preloaded = preloaded
        self.host_writes = host_writes

    def __repr__(self) -> str:
        listing = "\n".join(p.disassemble() for p in self.programs)
        return (
            f"Case(\n{listing}\nexternal_updates="
            f"{self.external_updates}, external_reads="
            f"{self.external_reads}, preloaded={self.preloaded}, "
            f"host_writes={self.host_writes})"
        )


@st.composite
def program_sets(draw):
    """Program sets whose arms touch, abut and sometimes overlap, and
    whose accesses cover no arm, one arm or a run of arms."""
    arms: List[Tuple[int, int, int]] = []
    for port in ARM_PORTS:
        pos = draw(st.integers(0, 4))
        for _ in range(draw(st.integers(0, 4))):
            size = draw(st.integers(1, 6))
            arms.append((port, pos, size))
            pos += size + draw(st.integers(0, 2))  # 0: the next abuts
    if draw(st.sampled_from((False,) * 3 + (True,))):  # may overlap
        arms.append((
            draw(st.sampled_from(ARM_PORTS)), draw(st.integers(0, 30)),
            draw(st.integers(1, 6)),
        ))
    arms = draw(st.permutations(arms))
    edges = sorted({a for _, a, _ in arms} | {a + s for _, a, s in arms})
    addr = st.one_of(st.sampled_from(edges or [0]), st.integers(0, 70))
    port = st.sampled_from(DATA_PORTS)
    size = st.integers(0, 14)

    n_programs = draw(st.integers(1, 3))
    bodies: List[list] = [[] for _ in range(n_programs)]
    where = st.integers(0, n_programs - 1)
    for a_port, a_addr, a_size in arms:
        if draw(st.booleans()):
            instr = make(Opcode.MEMTRACK, addr=a_addr, port=a_port,
                         size=a_size, num_updates=0, num_reads=0)
        else:
            instr = make(Opcode.DMA_MEMTRACK, addr=a_addr, port=0,
                         size=a_size, num_updates=0, num_reads=0,
                         target=a_port)
        bodies[draw(where)].append(instr)
    if draw(st.booleans()):  # write every arm once, so none is dead
        for a_port, a_addr, a_size in arms:
            bodies[draw(where)].append(make(
                Opcode.DMALOAD, src_addr=0, src_port=EXTERNAL_PORT,
                dst_addr=a_addr, dst_port=a_port, size=a_size, is_accum=0,
            ))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(("dma", "dma", "accum", "vec", "act")))
        if kind == "dma":
            instr = make(
                Opcode.DMALOAD, src_addr=draw(addr), src_port=draw(port),
                dst_addr=draw(addr), dst_port=draw(port), size=draw(size),
                is_accum=0,
            )
        elif kind == "accum":
            instr = make(Opcode.NDACCUM, src_addr=draw(addr),
                         port=draw(port), size=draw(size),
                         dst_addr=draw(addr))
        elif kind == "vec":
            instr = make(Opcode.VECMUL, in1_addr=draw(addr),
                         in2_addr=draw(addr), port=draw(port),
                         size=draw(size), out_addr=draw(addr))
        else:
            instr = make(Opcode.NDACTFN, fn_type=0, in_addr=draw(addr),
                         port=draw(port), size=draw(size),
                         out_addr=draw(addr), out_port=draw(port))
        bodies[draw(where)].append(instr)
    if draw(st.sampled_from((False,) * 5 + (True,))):  # register-indirect
        bodies[draw(where)].append(make(
            Opcode.DMALOAD, src_addr=reg_operand(draw(st.integers(0, 7))),
            src_port=draw(port), dst_addr=draw(addr), dst_port=draw(port),
            size=draw(size), is_accum=0,
        ))

    programs = []
    for i, body in enumerate(bodies):
        program = Program(tile=f"t{i}")
        for instr in draw(st.permutations(body)):
            program.append(instr)
        program.append(make(Opcode.HALT))
        programs.append(program)
    keys = st.sampled_from([(p, a) for p, a, _ in arms] or [(0, 0)])
    regions = st.lists(
        st.tuples(port, addr, size), max_size=3
    ).map(lambda items: [tuple(r) for r in items])
    return Case(
        programs,
        draw(st.dictionaries(keys, st.integers(1, 2), max_size=2)),
        draw(st.dictionaries(keys, st.integers(1, 2), max_size=2)),
        draw(regions),
        draw(regions),
    )


def outcome(calibrate, programs, case) -> Tuple[str, object]:
    """``calibrate``'s result, or its error's type and message."""
    try:
        return "ok", calibrate(
            programs, case.external_updates, case.external_reads
        )
    except Exception as exc:  # compared, type and message included
        return type(exc).__name__, str(exc)


def listing(programs) -> str:
    return "\n".join(p.disassemble() for p in programs)


class TestAgainstPairwiseOracles:
    @settings(max_examples=400, deadline=None)
    @given(program_sets())
    def test_calibration_matches(self, case):
        """Same tracker counts, same overlap / dead-tracker /
        register-indirect error (message included) and the same
        instructions rewritten before an error."""
        ours = copy.deepcopy(case.programs)
        theirs = copy.deepcopy(case.programs)
        assert outcome(calibrate_trackers, ours, case) == outcome(
            oracle_calibrate, theirs, case
        )
        assert listing(ours) == listing(theirs)

    @settings(max_examples=400, deadline=None)
    @given(program_sets())
    def test_verifier_matches(self, case):
        """Same findings in the same order; arms on external memory add
        the one finding the old verifier lacked, before the capacity
        findings."""
        old = oracle_verify(
            case.programs, SHAPE, case.preloaded, case.host_writes
        )
        arms_on_external = [
            Issue(program.tile, pc, "arms a tracker on external memory")
            for program in case.programs
            for pc, instr in enumerate(program)
            if instr.opcode in (Opcode.MEMTRACK, Opcode.DMA_MEMTRACK)
            and instr.named_operands().get(
                "target", instr.operand("port")
            ) == EXTERNAL_PORT
        ]
        capacity = [i for i in old if i.program == "<set>"]
        expected = (
            [i for i in old if i.program != "<set>"]
            + arms_on_external + capacity
        )
        assert verify_programs(
            case.programs, SHAPE, case.preloaded, case.host_writes
        ) == expected


class TestNeighbours:
    """Deterministic cases at the boundaries the bisect and the
    neighbour compare must get right."""

    @staticmethod
    def _program(*instrs: object) -> Program:
        program = Program(tile="p")
        for instr in instrs:
            program.append(instr)
        program.append(make(Opcode.HALT))
        return program

    @staticmethod
    def _arm(addr: int, size: int):
        return make(Opcode.MEMTRACK, addr=addr, port=0, size=size,
                    num_updates=0, num_reads=0)

    @staticmethod
    def _dma(dst_addr: int, size: int, src_addr: Optional[int] = None):
        return make(
            Opcode.DMALOAD,
            src_addr=dst_addr if src_addr is None else src_addr,
            src_port=0 if src_addr is not None else EXTERNAL_PORT,
            dst_addr=dst_addr, dst_port=0, size=size, is_accum=0,
        )

    def test_abutting_arms_count_apart(self):
        """[0, 4) and [4, 8) abut without overlapping; a write starting
        at 4 lands in the second only, a read of [2, 6) in both."""
        program = self._program(
            self._arm(0, 4), self._arm(4, 4),
            self._dma(0, 4), self._dma(4, 2),
            self._dma(20, 4, src_addr=2),
        )
        assert calibrate_trackers([program]) == 2
        assert [
            (program[pc].operand("num_updates"),
             program[pc].operand("num_reads"))
            for pc in (0, 1)
        ] == [(1, 1), (1, 1)]

    def test_first_pair_in_arming_order_is_named(self):
        """In address order the first overlapping neighbours are the
        arms at pcs 1 and 2; the error still names the first pair in
        arming order, pcs 0 and 3."""
        program = self._program(
            self._arm(8, 2), self._arm(0, 4), self._arm(3, 2),
            self._arm(9, 3),
        )
        with pytest.raises(ProgramError) as info:
            calibrate_trackers([program])
        assert str(info.value) == (
            "overlapping trackers: p@0 and p@3 "
            "(port 0, [8, 10) vs [9, 12))"
        )
