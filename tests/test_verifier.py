"""Tests for the static program-set verifier."""

import numpy as np
import pytest

from repro.compiler.codegen_dag import compile_dag_forward
from repro.compiler.codegen_training import compile_training
from repro.compiler.verifier import (
    Issue,
    MachineShape,
    assert_verified,
    verify_programs,
)
from repro.dnn.builder import NetworkBuilder
from repro.dnn.layers import Activation, PoolMode
from repro.dnn.zoo import tiny_cnn
from repro.errors import ProgramError
from repro.functional import ReferenceModel
from repro.isa import Opcode, Program, make
from repro.sim.engine import EXTERNAL_PORT
from repro.sim.machine import reg_operand


def shape_for(compiled):
    return MachineShape(
        mem_tiles=compiled.partition.mem_columns * compiled.rows,
        words_per_tile=compiled.chip.mem_tile.capacity_bytes // 4,
        trackers_per_tile=compiled.chip.mem_tile.tracker_count,
    )


def preloads_and_input(compiled):
    """(port, addr, words) for preloads plus the input home blocks."""
    rows = compiled.rows
    regions = [
        (pre.col * rows + pre.row, pre.addr, pre.data.size)
        for pre in compiled.preloads
    ]
    for home in compiled.partition.blocks_of(
        compiled.network.input.name
    ):
        regions.append((
            home.row,  # column 0
            home.address,
            home.feature_count * home.feature_words,
        ))
    return regions


class TestCompiledSetsVerify:
    def test_forward_compiler_output_verifies(self):
        net = tiny_cnn(num_classes=4, in_size=8)
        model = ReferenceModel(net, seed=0)
        compiled = compile_dag_forward(net, model, rows=2)
        issues = verify_programs(
            compiled.programs, shape_for(compiled),
            preloaded=preloads_and_input(compiled),
        )
        assert issues == []

    def test_dag_compiler_output_verifies(self):
        b = NetworkBuilder("branchy")
        b.input(3, 8)
        trunk = b.conv(4, kernel=3, pad=1)
        left = b.conv(2, kernel=1, inputs=[trunk])
        right = b.conv(2, kernel=3, pad=1, inputs=[trunk])
        b.concat([left, right])
        b.fc(3, activation=Activation.SOFTMAX)
        net = b.build()
        model = ReferenceModel(net, seed=0)
        compiled = compile_dag_forward(net, model, rows=2)
        issues = verify_programs(
            compiled.programs, shape_for(compiled),
            preloaded=preloads_and_input(compiled),
        )
        assert issues == []

    def test_training_compiler_output_verifies(self):
        b = NetworkBuilder("trainable")
        b.input(2, 8)
        b.conv(4, kernel=3, pad=1, name="conv1")
        b.pool(2, mode=PoolMode.AVG, name="pool1")
        b.fc(3, activation=Activation.SOFTMAX, name="fc")
        net = b.build()
        model = ReferenceModel(net, seed=0)
        compiled = compile_training(net, model, rows=2)
        fwd = compiled.forward
        issues = verify_programs(
            fwd.programs, shape_for(fwd),
            preloaded=preloads_and_input(fwd),
            host_writes=[(
                compiled.err_port, compiled.err_addr, compiled.err_size
            )],
        )
        assert issues == []


class TestFindings:
    SHAPE = MachineShape(mem_tiles=4, words_per_tile=64,
                         trackers_per_tile=2)

    def _prog(self, *instrs):
        prog = Program(tile="t")
        for instr in instrs:
            prog.append(instr)
        prog.append(make(Opcode.HALT))
        return prog

    def test_out_of_bounds_write(self):
        prog = self._prog(make(
            Opcode.DMALOAD, src_addr=0, src_port=0, dst_addr=60,
            dst_port=1, size=8, is_accum=0,
        ))
        issues = verify_programs([prog], self.SHAPE,
                                 preloaded=[(0, 0, 8)])
        assert any("exceeds" in str(i) for i in issues)

    def test_nonexistent_port(self):
        prog = self._prog(make(
            Opcode.NDACCUM, src_addr=0, port=9, size=4, dst_addr=8,
        ))
        issues = verify_programs([prog], self.SHAPE)
        assert any("does not exist" in str(i) for i in issues)

    def test_read_of_never_written_memory(self):
        prog = self._prog(make(
            Opcode.DMALOAD, src_addr=0, src_port=0, dst_addr=0,
            dst_port=1, size=4, is_accum=0,
        ))
        issues = verify_programs([prog], self.SHAPE)
        assert any("never-written" in str(i) for i in issues)
        # A preload covering the source silences it.
        assert verify_programs(
            [prog], self.SHAPE, preloaded=[(0, 0, 4)]
        ) == []

    def test_tracker_file_overflow(self):
        trackers = [
            make(Opcode.MEMTRACK, addr=8 * i, port=0, size=4,
                 num_updates=1, num_reads=1)
            for i in range(3)
        ]
        prog = self._prog(*trackers)
        issues = verify_programs([prog], self.SHAPE)
        assert any("tracker file" in str(i) for i in issues)

    def test_assert_verified_raises(self):
        prog = self._prog(make(
            Opcode.NDACCUM, src_addr=0, port=9, size=4, dst_addr=8,
        ))
        with pytest.raises(ProgramError, match="verification failed"):
            assert_verified([prog], self.SHAPE)

    def test_external_memory_is_unbounded(self):
        prog = self._prog(make(
            Opcode.DMALOAD, src_addr=10**6, src_port=65535, dst_addr=0,
            dst_port=0, size=4, is_accum=0,
        ))
        issues = verify_programs([prog], self.SHAPE)
        assert issues == []

    def test_issue_str(self):
        issue = Issue("tile", 3, "boom")
        assert str(issue) == "tile@3: boom"


class TestTrackerArms:
    """Arms the engine cannot honour: it raises when it executes the arm
    (external memory, a missing tile, a negative address read as a
    register operand) or guards words past the end of the
    scratchpad."""

    SHAPE = MachineShape(mem_tiles=2, words_per_tile=64)

    def _findings(self, **arm):
        prog = Program(tile="t")
        prog.append(make(Opcode.DMA_MEMTRACK, port=0, num_updates=1,
                         num_reads=0, **arm))
        prog.append(make(Opcode.HALT))
        return [str(i) for i in verify_programs([prog], self.SHAPE)]

    def test_arm_on_external_memory(self):
        assert self._findings(addr=0, size=4, target=EXTERNAL_PORT) == [
            "t@0: arms a tracker on external memory"
        ]

    def test_arm_on_missing_tile(self):
        assert self._findings(addr=0, size=4, target=99) == [
            "t@0: tracker port 99 does not exist"
        ]

    def test_arm_at_negative_address(self):
        assert self._findings(addr=-4, size=4, target=1) == [
            "t@0: tracked range [-4, 0) exceeds the 64-word scratchpad "
            "of tile 1"
        ]

    def test_arm_past_scratchpad(self):
        assert self._findings(addr=60, size=8, target=1) == [
            "t@0: tracked range [60, 68) exceeds the 64-word scratchpad "
            "of tile 1"
        ]

    def test_register_indirect_arm_is_checked_at_execution(self):
        assert self._findings(addr=reg_operand(3), size=4, target=1) == []
