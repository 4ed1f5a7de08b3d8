"""Tests for the instruction set, programs and assembler."""

import pickle

import pytest

from repro.errors import ProgramError
from repro.isa import (
    BRANCH_OPCODES,
    Instruction,
    InstrGroup,
    NUM_REGISTERS,
    OPCODE_GROUPS,
    OPERAND_NAMES,
    Opcode,
    Program,
    assemble,
    disassemble,
    make,
)
from repro.isa.program import SuperOp


class TestInstructionSet:
    def test_exactly_28_instructions(self):
        """Sec 3.2.2: the ISA contains 28 instructions."""
        assert len(Opcode) == 28

    def test_five_groups(self):
        groups = set(OPCODE_GROUPS.values())
        assert groups == set(InstrGroup)

    def test_group_sizes(self):
        by_group = {}
        for op, group in OPCODE_GROUPS.items():
            by_group.setdefault(group, []).append(op)
        assert len(by_group[InstrGroup.SCALAR]) == 12
        assert len(by_group[InstrGroup.COARSE]) == 2
        assert len(by_group[InstrGroup.OFFLOAD]) == 7
        assert len(by_group[InstrGroup.TRANSFER]) == 5
        assert len(by_group[InstrGroup.TRACK]) == 2

    def test_fig8_instructions_present(self):
        """Every instruction listed in Fig 8 exists."""
        for name in ("LDRI", "ADDR", "BNEZ", "NDCONV", "MATMUL", "NDACTFN",
                     "NDSUBSAMP", "DMALOAD", "DMASTORE", "MEMTRACK"):
            assert Opcode(name)


class TestInstruction:
    def test_make_and_lookup(self):
        instr = make(Opcode.LDRI, rd=3, value=42)
        assert instr.operand("rd") == 3
        assert instr.operand("value") == 42
        assert instr.named_operands() == {"rd": 3, "value": 42}

    def test_make_missing_operand(self):
        with pytest.raises(ProgramError):
            make(Opcode.LDRI, rd=3)

    def test_make_extra_operand(self):
        with pytest.raises(ProgramError):
            make(Opcode.HALT, bogus=1)

    def test_wrong_arity(self):
        with pytest.raises(ProgramError):
            Instruction(Opcode.LDRI, (1,))

    def test_unknown_operand_name(self):
        instr = make(Opcode.LDRI, rd=0, value=0)
        with pytest.raises(ProgramError):
            instr.operand("nonexistent")

    def test_str_includes_names(self):
        instr = make(Opcode.ADDR, rd=1, rs1=2, rs2=3, comment="sum")
        text = str(instr)
        assert "ADDR" in text and "rd=1" in text and "sum" in text

    def test_immutable_value(self):
        """Instructions are values: a field cannot be assigned, equal
        instructions hash equal (whichever way they were built), and a
        program with superops survives a pickle round trip."""
        instr = make(Opcode.ADDRI, rd=1, rs=2, value=3, comment="c")
        with pytest.raises(AttributeError):
            instr.opcode = Opcode.HALT
        with pytest.raises(AttributeError):
            instr.operands = (1, 2, 4)
        twin = Instruction(Opcode.ADDRI, (1, 2, 3), "c")
        assert twin == instr and hash(twin) == hash(instr)
        assert twin != Instruction(Opcode.ADDRI, (1, 2, 3))
        prog = Program(tile="t0")
        prog.append(instr)
        prog.append(make(Opcode.HALT))
        prog.superops = (SuperOp("load_run", 0, 1, ((0, 1, 2),)),)
        clone = pickle.loads(pickle.dumps(prog))
        assert clone.instructions == prog.instructions
        assert clone.superops == prog.superops
        assert clone.instructions[0].opcode is Opcode.ADDRI


class TestProgram:
    def _program(self):
        prog = Program(tile="t0")
        prog.append(make(Opcode.LDRI, rd=1, value=5))
        prog.append(make(Opcode.SUBRI, rd=1, rs=1, value=1))
        prog.append(make(Opcode.BGTZ, rs=1, offset=-2))
        prog.append(make(Opcode.HALT))
        return prog

    def test_validate_ok(self):
        self._program().validate()

    def test_empty_program_invalid(self):
        with pytest.raises(ProgramError):
            Program(tile="t").validate()

    def test_must_end_with_halt(self):
        prog = Program(tile="t")
        prog.append(make(Opcode.LDRI, rd=0, value=0))
        with pytest.raises(ProgramError):
            prog.validate()

    def test_branch_out_of_range(self):
        prog = Program(tile="t")
        prog.append(make(Opcode.BRANCH, offset=5))
        prog.append(make(Opcode.HALT))
        with pytest.raises(ProgramError):
            prog.validate()

    def test_branch_one_past_the_end(self):
        """A target equal to the program length names no instruction."""
        prog = Program(tile="t")
        prog.append(make(Opcode.BRANCH, offset=1))
        prog.append(make(Opcode.HALT))
        with pytest.raises(ProgramError, match="branch target 2"):
            prog.validate()

    def test_register_out_of_range(self):
        prog = Program(tile="t")
        prog.append(make(Opcode.LDRI, rd=NUM_REGISTERS, value=0))
        prog.append(make(Opcode.HALT))
        with pytest.raises(ProgramError):
            prog.validate()

    def test_counts_by_group(self):
        counts = self._program().counts_by_group()
        assert counts[InstrGroup.SCALAR] == 4

    def test_disassemble_listing(self):
        listing = self._program().disassemble()
        assert "Program for t0" in listing
        assert "LDRI" in listing


class TestAssembler:
    SOURCE = """
    ; countdown loop
    LDRI rd=1, value=3
    loop:
    SUBRI rd=1, rs=1, value=1  ; decrement
    BGTZ rs=1, offset=@loop
    HALT
    """

    def test_assemble_with_labels(self):
        prog = assemble(self.SOURCE, tile="demo")
        assert len(prog) == 4
        assert prog[2].operand("offset") == -2

    def test_round_trip(self):
        prog = assemble(self.SOURCE)
        text = disassemble(prog)
        again = assemble(text)
        assert [i.operands for i in again] == [i.operands for i in prog]

    def test_unknown_mnemonic(self):
        with pytest.raises(ProgramError):
            assemble("FROBNICATE rd=1\nHALT")

    def test_undefined_label(self):
        with pytest.raises(ProgramError):
            assemble("BRANCH offset=@nowhere\nHALT")

    def test_duplicate_label(self):
        with pytest.raises(ProgramError):
            assemble("a:\na:\nHALT")

    def test_label_on_non_branch(self):
        with pytest.raises(ProgramError):
            assemble("x:\nLDRI rd=1, value=@x\nHALT")

    def test_missing_operand(self):
        with pytest.raises(ProgramError):
            assemble("LDRI rd=1\nHALT")

    def test_malformed_operand(self):
        with pytest.raises(ProgramError):
            assemble("LDRI rd 1\nHALT")

    def test_forward_label(self):
        prog = assemble("BRANCH offset=@end\nLDRI rd=0, value=0\nend:\nHALT")
        assert prog[0].operand("offset") == 1

    def test_trailing_label_names_no_instruction(self):
        with pytest.raises(ProgramError, match="branch target 2"):
            assemble("BRANCH offset=@end\nHALT\nend:\n")

    def test_hex_immediates(self):
        prog = assemble("LDRI rd=1, value=0x10\nHALT")
        assert prog[0].operand("value") == 16
