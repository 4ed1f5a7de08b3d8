"""Synchronization is load-bearing: hazards without MEMTRACK.

ScaleDeep has no caches, coherence or locks; MEMTRACK trackers are the
*only* thing ordering producers and consumers (Sec 3.2.4).  These tests
demonstrate the hazard directly: stripping the trackers from otherwise
correct compiled programs corrupts the computation under the very
scheduling that works with them armed, and a differential scalar-ISA
interpreter confirms the engine's control-flow semantics.
"""

import numpy as np
import pytest

from repro.compiler.codegen_dag import compile_dag_forward
from repro.dnn.zoo import tiny_cnn
from repro.functional import ReferenceModel
from repro.isa.instructions import Instruction, Opcode, make
from repro.isa.program import Program
from repro.isa.assembler import assemble
from repro.arch.presets import conv_chip
from repro.sim.engine import Engine
from repro.sim.machine import Machine

from hypothesis import given, settings, strategies as st


def _strip_trackers(program: Program) -> None:
    program.instructions = [
        make(Opcode.LDRI, rd=0, value=0, comment="tracker stripped")
        if instr.opcode in (Opcode.MEMTRACK, Opcode.DMA_MEMTRACK)
        else instr
        for instr in program.instructions
    ]


class TestTrackerHazard:
    def test_stripping_trackers_corrupts_the_computation(self):
        """The same programs, same schedule, same data — minus the
        data-flow trackers — race and produce garbage."""
        net = tiny_cnn(num_classes=4, in_size=8)
        model = ReferenceModel(net, seed=0)
        image = np.random.default_rng(1).normal(
            0, 1, (3, 8, 8)
        ).astype(np.float32)
        want = model.forward(image)

        good = compile_dag_forward(net, model, rows=2)
        synced, _ = good.run(image)
        np.testing.assert_allclose(synced, want, atol=1e-4)

        bad = compile_dag_forward(net, model, rows=2)
        for program in bad.programs:
            _strip_trackers(program)
        raced, _ = bad.run(image)
        assert np.abs(raced - want).max() > 1e-3

    def test_tracker_blocking_is_what_orders_execution(self):
        """With trackers armed, blocked-read retries are observed — the
        consumers really did arrive early and were held back."""
        net = tiny_cnn(num_classes=4, in_size=8)
        model = ReferenceModel(net, seed=0)
        compiled = compile_dag_forward(net, model, rows=2)
        image = np.random.default_rng(2).normal(
            0, 1, (3, 8, 8)
        ).astype(np.float32)
        _, report = compiled.run(image)
        assert report.blocked_reads > 0


class _MiniInterpreter:
    """An independent model of the scalar ISA for differential testing."""

    def __init__(self, program):
        self.program = program
        self.regs = [0] * 64

    def run(self, max_steps=10_000):
        pc = 0
        steps = 0
        while steps < max_steps:
            steps += 1
            instr = self.program[pc]
            op = instr.opcode
            o = instr.named_operands()
            pc += 1
            if op is Opcode.LDRI:
                self.regs[o["rd"]] = o["value"]
            elif op is Opcode.MOVR:
                self.regs[o["rd"]] = self.regs[o["rs"]]
            elif op is Opcode.ADDR:
                self.regs[o["rd"]] = self.regs[o["rs1"]] + self.regs[o["rs2"]]
            elif op is Opcode.ADDRI:
                self.regs[o["rd"]] = self.regs[o["rs"]] + o["value"]
            elif op is Opcode.SUBR:
                self.regs[o["rd"]] = self.regs[o["rs1"]] - self.regs[o["rs2"]]
            elif op is Opcode.SUBRI:
                self.regs[o["rd"]] = self.regs[o["rs"]] - o["value"]
            elif op is Opcode.MULR:
                self.regs[o["rd"]] = self.regs[o["rs1"]] * self.regs[o["rs2"]]
            elif op is Opcode.BEQZ:
                if self.regs[o["rs"]] == 0:
                    pc += o["offset"]
            elif op is Opcode.BNEZ:
                if self.regs[o["rs"]] != 0:
                    pc += o["offset"]
            elif op is Opcode.BGTZ:
                if self.regs[o["rs"]] > 0:
                    pc += o["offset"]
            elif op is Opcode.BRANCH:
                pc += o["offset"]
            elif op is Opcode.HALT:
                return self.regs
            else:
                raise AssertionError(f"scalar-only interpreter: {op}")
        raise AssertionError("mini interpreter did not halt")


@st.composite
def scalar_program(draw):
    """A random straight-line scalar program (registers r1-r7)."""
    lines = ["LDRI rd=1, value=1"]
    for _ in range(draw(st.integers(3, 15))):
        op = draw(st.sampled_from(["LDRI", "ADDR", "ADDRI", "SUBR",
                                   "SUBRI", "MULR", "MOVR"]))
        rd = draw(st.integers(1, 7))
        rs1 = draw(st.integers(1, 7))
        rs2 = draw(st.integers(1, 7))
        value = draw(st.integers(-20, 20))
        if op == "LDRI":
            lines.append(f"LDRI rd={rd}, value={value}")
        elif op == "MOVR":
            lines.append(f"MOVR rd={rd}, rs={rs1}")
        elif op in ("ADDR", "SUBR", "MULR"):
            lines.append(f"{op} rd={rd}, rs1={rs1}, rs2={rs2}")
        else:
            lines.append(f"{op} rd={rd}, rs={rs1}, value={value}")
    lines.append("HALT")
    return "\n".join(lines)


class TestScalarDifferential:
    @settings(max_examples=60, deadline=None)
    @given(source=scalar_program())
    def test_engine_matches_mini_interpreter(self, source):
        program = assemble(source, tile="diff")
        expected = _MiniInterpreter(program).run()

        machine = Machine(conv_chip(), 2, 1)
        machine.load_program(program)
        Engine(machine).run()
        got = machine.comp_tiles["diff"].registers
        assert [int(v) for v in got] == expected

    def test_loop_differential(self):
        source = """
        LDRI rd=1, value=7
        LDRI rd=2, value=0
        loop:
        ADDR rd=2, rs1=2, rs2=1
        SUBRI rd=1, rs=1, value=1
        BGTZ rs=1, offset=@loop
        HALT
        """
        program = assemble(source, tile="loop")
        expected = _MiniInterpreter(program).run()
        machine = Machine(conv_chip(), 2, 1)
        machine.load_program(program)
        Engine(machine).run()
        got = [int(v) for v in machine.comp_tiles["loop"].registers]
        assert got == expected
        assert got[2] == 7 + 6 + 5 + 4 + 3 + 2 + 1
