"""Tests for the assembly template library (Sec 4.2) and register-
indirect data operands."""

import numpy as np
import pytest

from repro.arch.presets import conv_chip
from repro.compiler.templates import (
    CONV_BATCH_FP,
    DMA_GATHER,
    MATMUL_BLOCKED_FP,
    TEMPLATE_LIBRARY,
    WUPDATE_SWEEP,
)
from repro.errors import ProgramError, SimulationError
from repro.functional import tensor_ops as ops
from repro.isa import Opcode, assemble
from repro.sim.engine import Engine
from repro.sim.machine import (
    REG_OPERAND_FLAG,
    Machine,
    instruction_accesses,
    is_reg_operand,
    pack_shape,
    reg_operand,
)


def machine(cols=3, rows=1):
    return Machine(conv_chip(), cols, rows)


class TestRegisterIndirection:
    def test_encoding_roundtrip(self):
        value = reg_operand(5)
        assert is_reg_operand(value)
        assert not is_reg_operand(5)

    def test_out_of_range_register(self):
        with pytest.raises(SimulationError):
            reg_operand(64)

    def test_assembler_rn_syntax(self):
        prog = assemble(
            "DMALOAD src_addr=r2, src_port=0, dst_addr=4, dst_port=1, "
            "size=2, is_accum=0\nHALT"
        )
        assert is_reg_operand(prog[0].operand("src_addr"))

    def test_indirect_dma_executes(self):
        m = machine()
        m.mem_tile(0).write(10, np.array([7.0, 8.0], np.float32), False)
        prog = assemble(
            """
            LDRI rd=2, value=10
            DMALOAD src_addr=r2, src_port=0, dst_addr=0, dst_port=1, size=2, is_accum=0
            HALT
            """,
            tile="t",
        )
        m.load_program(prog)
        Engine(m).run()
        assert m.mem_tile(1).read(0, 2).tolist() == [7.0, 8.0]

    @pytest.mark.parametrize(
        "operand", [-4, REG_OPERAND_FLAG | 100], ids=["negative", "r100"]
    )
    def test_out_of_range_register_operand(self, operand):
        """A register-flagged operand naming no register (every negative
        immediate is one) raises a SimulationError naming the opcode,
        the operand and its raw value when it issues."""
        m = machine()
        m.load_program(assemble(
            f"DMALOAD src_addr={operand}, src_port=0, dst_addr=0, "
            "dst_port=1, size=2, is_accum=0\nHALT",
            tile="t",
        ))
        with pytest.raises(
            SimulationError, match=f"DMALOAD src_addr={operand}: register"
        ):
            Engine(m).run()

    def test_static_analysis_rejects_indirect(self):
        """Register-indirect addresses are invisible to the calibrator —
        the documented reason the code generators unroll."""
        prog = assemble(
            "DMALOAD src_addr=r2, src_port=0, dst_addr=4, dst_port=1, "
            "size=2, is_accum=0\nHALT"
        )
        with pytest.raises(SimulationError):
            instruction_accesses(prog[0])


class TestTemplateInstantiation:
    def test_missing_parameter(self):
        with pytest.raises(ProgramError):
            DMA_GATHER.instantiate(COUNT=2)

    def test_unexpected_parameter(self):
        with pytest.raises(ProgramError):
            DMA_GATHER.instantiate(
                COUNT=1, SRC_BASE=0, SRC_STRIDE=4, SRC_PORT=0,
                DST_BASE=0, CHUNK_WORDS=2, DST_PORT=1, BOGUS=9,
            )

    def test_library_complete(self):
        assert set(TEMPLATE_LIBRARY) == {
            "conv-batch-fp", "matmul-blocked-fp", "dma-gather",
            "wupdate-sweep",
        }

    def test_programs_validate(self):
        prog = DMA_GATHER.instantiate(
            COUNT=3, SRC_BASE=0, SRC_STRIDE=8, SRC_PORT=0,
            DST_BASE=0, CHUNK_WORDS=4, DST_PORT=1,
        )
        prog.validate()
        assert prog[-1].opcode is Opcode.HALT


class TestTemplateExecution:
    def test_conv_batch_template_matches_numpy(self):
        """The looped template computes the same batch convolution the
        unrolled code generator emits."""
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (1, 6, 6)).astype(np.float32)
        kernels = rng.normal(0, 1, (4, 1, 1, 3, 3)).astype(np.float32)

        m = machine()
        m.mem_tile(0).write(0, x, False)
        m.mem_tile(0).write(100, kernels, False)
        prog = CONV_BATCH_FP.instantiate(
            tile="conv",
            N_KERNELS=4, IN_ADDR=0, IN_PORT=0,
            IN_SIZE=pack_shape(6, 6), KER_BASE=100, KER_WORDS=9,
            KER_SIZE=pack_shape(3, 3), STRIDE=1, PAD=1,
            OUT_BASE=0, OUT_WORDS=36, OUT_PORT=1, IS_ACCUM=0,
        )
        m.load_program(prog)
        report = Engine(m).run()
        for f in range(4):
            want = ops.conv2d_forward(
                x, kernels[f], np.zeros(1, np.float32), 1, 1
            )
            got = m.mem_tile(1).read(f * 36, 36).reshape(1, 6, 6)
            np.testing.assert_allclose(got, want, atol=1e-5)
        # The loop executed: 4 iterations x 5 instructions + prologue.
        assert report.instructions == 3 + 4 * 5 + 1

    def test_matmul_blocked_template(self):
        rng = np.random.default_rng(1)
        vec = rng.normal(0, 1, 6).astype(np.float32)
        w = rng.normal(0, 1, (8, 6)).astype(np.float32)
        m = machine()
        m.mem_tile(0).write(0, vec, False)
        m.mem_tile(0).write(50, w, False)
        prog = MATMUL_BLOCKED_FP.instantiate(
            tile="fc",
            N_BLOCKS=4, VEC_ADDR=0, VEC_PORT=0,
            VEC_SIZE=pack_shape(1, 6), W_BASE=50, W_BLOCK_WORDS=12,
            W_BLOCK_SIZE=pack_shape(2, 6), OUT_BASE=0, BLOCK_ROWS=2,
            OUT_PORT=1,
        )
        m.load_program(prog)
        Engine(m).run()
        np.testing.assert_allclose(
            m.mem_tile(1).read(0, 8), w @ vec, atol=1e-5
        )

    def test_dma_gather_template(self):
        m = machine()
        src = np.arange(24, dtype=np.float32)
        m.mem_tile(0).write(0, src, False)
        prog = DMA_GATHER.instantiate(
            tile="gather",
            COUNT=3, SRC_BASE=0, SRC_STRIDE=8, SRC_PORT=0,
            DST_BASE=0, CHUNK_WORDS=2, DST_PORT=1,
        )
        m.load_program(prog)
        Engine(m).run()
        np.testing.assert_allclose(
            m.mem_tile(1).read(0, 6), [0, 1, 8, 9, 16, 17]
        )

    def test_wupdate_sweep_template(self):
        m = machine()
        m.mem_tile(0).write(0, np.ones(8, np.float32), False)
        m.mem_tile(0).write(8, np.full(8, 2.0, np.float32), False)
        prog = WUPDATE_SWEEP.instantiate(
            tile="update",
            N_CHUNKS=2, W_BASE=0, G_BASE=8, CHUNK_WORDS=4, PORT=0,
            LR_NUM=1, LR_DENOM=4,
        )
        m.load_program(prog)
        Engine(m).run()
        # w -= 0.25 * 2.0 everywhere; gradients consumed.
        np.testing.assert_allclose(m.mem_tile(0).read(0, 8), 0.5)
        np.testing.assert_allclose(m.mem_tile(0).read(8, 8), 0.0)
