"""Tests for the static access analysis and tracker calibration pass."""

import pytest

from repro.compiler.codegen_dag import compile_dag_forward
from repro.compiler.codegen_training import compile_training
from repro.compiler.trackers import (
    audit_trackers,
    calibrate_trackers,
    instruction_accesses,
)
from repro.dnn.builder import NetworkBuilder
from repro.dnn.layers import Activation, PoolMode
from repro.dnn.zoo import tiny_cnn, tiny_mlp
from repro.errors import ProgramError
from repro.functional import ReferenceModel
from repro.isa import Opcode, Program, make
from repro.sim.machine import pack_shape


class TestInstructionAccesses:
    def test_scalar_instructions_access_nothing(self):
        reads, writes = instruction_accesses(
            make(Opcode.LDRI, rd=1, value=7)
        )
        assert reads == [] and writes == []

    def test_dma(self):
        instr = make(Opcode.DMALOAD, src_addr=4, src_port=0, dst_addr=8,
                     dst_port=1, size=16, is_accum=0)
        reads, writes = instruction_accesses(instr)
        assert reads == [(0, 4, 16)]
        assert writes == [(1, 8, 16)]

    def test_ndconv_output_extent(self):
        instr = make(
            Opcode.NDCONV, in_addr=0, in_port=0,
            in_size=pack_shape(8, 8), kernel_addr=64,
            kernel_size=pack_shape(3, 3), stride=1, pad=1,
            out_addr=0, out_port=1, is_accum=0,
        )
        reads, writes = instruction_accesses(instr)
        assert (0, 0, 64) in reads  # input feature
        assert (0, 64, 9) in reads  # kernel
        assert writes == [(1, 0, 64)]  # same-size output (pad=1)

    def test_matmul(self):
        instr = make(
            Opcode.MATMUL, in1_addr=0, in1_port=0,
            in1_size=pack_shape(1, 12), in2_addr=16, in2_port=0,
            in2_size=pack_shape(5, 12), out_addr=0, out_port=1,
            is_accum=0,
        )
        reads, writes = instruction_accesses(instr)
        assert (0, 0, 12) in reads
        assert (0, 16, 60) in reads
        assert writes == [(1, 0, 5)]

    def test_engine_and_analysis_agree(self):
        """The engine gates exactly the accesses the calibrator counts —
        they share the same function, so a compiled program that runs to
        completion must audit cleanly (checked below), and vice versa."""
        from repro.sim import machine as machine_mod

        assert hasattr(machine_mod, "instruction_accesses")


class TestCalibration:
    def _toy_programs(self):
        """A producer/consumer pair with placeholder tracker counts."""
        producer = Program(tile="producer")
        producer.append(make(
            Opcode.MEMTRACK, addr=0, port=1, size=4,
            num_updates=0, num_reads=0, comment="placeholder",
        ))
        producer.append(make(
            Opcode.DMALOAD, src_addr=0, src_port=0, dst_addr=0,
            dst_port=1, size=4, is_accum=0,
        ))
        producer.append(make(Opcode.HALT))
        consumer = Program(tile="consumer")
        consumer.append(make(
            Opcode.DMALOAD, src_addr=0, src_port=1, dst_addr=0,
            dst_port=2, size=4, is_accum=0,
        ))
        consumer.append(make(
            Opcode.NDACCUM, src_addr=0, port=1, size=4, dst_addr=16,
        ))
        consumer.append(make(Opcode.HALT))
        return producer, consumer

    def test_counts_filled_in(self):
        producer, consumer = self._toy_programs()
        n = calibrate_trackers([producer, consumer])
        assert n == 1
        tracker = producer[0]
        assert tracker.operand("num_updates") == 1  # one DMA write
        assert tracker.operand("num_reads") == 2  # DMA read + NDACCUM read

    def test_dead_tracker_rejected(self):
        prog = Program(tile="dead")
        prog.append(make(
            Opcode.MEMTRACK, addr=100, port=0, size=4,
            num_updates=0, num_reads=0,
        ))
        prog.append(make(Opcode.HALT))
        with pytest.raises(ProgramError, match="dead tracker"):
            calibrate_trackers([prog])

    @pytest.mark.parametrize("size", [0, -2])
    def test_empty_tracker_rejected(self, size):
        """The engine refuses to arm an empty range; calibration refuses
        it first, where any write strictly containing its address would
        otherwise count as an update."""
        prog = Program(tile="empty")
        prog.append(make(
            Opcode.MEMTRACK, addr=2, port=0, size=size,
            num_updates=0, num_reads=0,
        ))
        prog.append(make(
            Opcode.DMALOAD, src_addr=0, src_port=1, dst_addr=0,
            dst_port=0, size=4, is_accum=0,
        ))
        prog.append(make(Opcode.HALT))
        with pytest.raises(ProgramError, match=(
            rf"empty tracker range \(size {size}\): empty@0 port 0 addr 2"
        )):
            calibrate_trackers([prog])

    def test_overlapping_trackers_rejected(self):
        prog = Program(tile="overlap")
        for addr in (0, 2):
            prog.append(make(
                Opcode.MEMTRACK, addr=addr, port=0, size=4,
                num_updates=1, num_reads=1,
            ))
        prog.append(make(Opcode.HALT))
        with pytest.raises(ProgramError, match="overlapping"):
            calibrate_trackers([prog])

    def test_external_accesses(self):
        prog = Program(tile="inject")
        prog.append(make(
            Opcode.MEMTRACK, addr=0, port=0, size=4,
            num_updates=0, num_reads=0,
        ))
        prog.append(make(
            Opcode.DMALOAD, src_addr=0, src_port=0, dst_addr=0,
            dst_port=1, size=4, is_accum=0,
        ))
        prog.append(make(Opcode.HALT))
        calibrate_trackers([prog], external_updates={(0, 0): 1})
        assert prog[0].operand("num_updates") == 1
        assert prog[0].operand("num_reads") == 1


class TestCompilerAudits:
    """Both compilers' tracker counts are a fixed point of the static
    analysis: re-counting the compiled programs' accesses changes no
    tracker — the strongest internal consistency check the
    synchronization scheme admits."""

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_forward_compiler_counts_exact(self, rows):
        net = tiny_cnn(num_classes=5, in_size=12)
        model = ReferenceModel(net, seed=3)
        compiled = compile_dag_forward(net, model, rows=rows)
        audit = audit_trackers(compiled.programs)
        assert audit["mismatches"] == 0
        assert audit["trackers"] > 10

    def test_mlp_forward_counts_exact(self):
        net = tiny_mlp(num_classes=4, in_features=6, hidden=9)
        model = ReferenceModel(net, seed=1)
        compiled = compile_dag_forward(net, model, rows=2)
        assert audit_trackers(compiled.programs)["mismatches"] == 0

    def test_training_compiler_counts_exact(self):
        """Calibration is a fixed point on training programs, AVG and
        MAX pooling alike.  The MAX-pool routing re-reads every conv
        output feature for its argmax, so the conv output trackers
        before a MAX pool count those reads too.  The minibatch update
        programs stay out of the set, as the lowering leaves them out."""
        b = NetworkBuilder("TinyAvgCNN")
        b.input(2, 8)
        b.conv(4, kernel=3, pad=1, name="conv1")
        b.pool(2, mode=PoolMode.AVG, name="pool1")
        b.conv(6, kernel=3, pad=1, name="conv2")
        b.fc(3, activation=Activation.SOFTMAX, name="fc")
        cases = [(b.build(), 1), (tiny_cnn(), 1), (tiny_cnn(), 2)]
        for net, minibatch in cases:
            model = ReferenceModel(net, seed=3)
            compiled = compile_training(
                net, model, rows=2, minibatch=minibatch
            )
            programs = [
                p for p in compiled.forward.programs
                if p.tile not in compiled.update_tiles
            ]
            audit = audit_trackers(
                programs,
                external_updates={
                    (compiled.err_port, compiled.err_addr): 1
                },
            )
            case = f"{net.name} minibatch {minibatch}"
            assert audit["mismatches"] == 0, (case, audit)
            assert audit["trackers"] > 20, case

    @pytest.mark.parametrize("minibatch", [1, 2])
    def test_conv_outputs_before_max_pool_count_argmax_reads(
        self, minibatch
    ):
        """Hand-counted oracle: a conv output block feeding a MAX pool
        is read once per feature by the pool, once by the BP mask's
        activation copy, and once per feature again by the max-routing
        DMAs that restage the originals for the argmax."""
        net = tiny_cnn()
        compiled = compile_training(
            net, ReferenceModel(net, seed=0), rows=2, minibatch=minibatch
        )
        checked = 0
        for program in compiled.forward.programs:
            layer = program.tile.split("@")[0]
            if layer not in ("conv1", "conv2"):
                continue
            home = next(
                h for h in compiled.forward.partition.blocks_of(layer)
                if program.tile.endswith(f"r{h.row}")
            )
            tracker = next(
                i for i in program
                if i.opcode in (Opcode.MEMTRACK, Opcode.DMA_MEMTRACK)
                and i.operand("addr") == home.address
            )
            assert tracker.operand("num_updates") == 1
            assert tracker.operand("num_reads") == (
                2 * home.feature_count + 1
            ), program.tile
            checked += 1
        assert checked == 4
