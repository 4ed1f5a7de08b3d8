"""Direct semantic tests for the remaining engine instructions."""

import numpy as np
import pytest

from repro.arch.presets import conv_chip
from repro.compiler.trackers import calibrate_trackers
from repro.dnn.layers import Activation, PoolMode
from repro.errors import SimulationError
from repro.functional import tensor_ops as ops
from repro.isa import Opcode, Program, assemble, make
from repro.sim.engine import ACT_CODES, SAMP_CODES, Engine
from repro.sim.machine import Machine, instruction_accesses, pack_shape


def machine(cols=3, rows=2):
    return Machine(conv_chip(), cols, rows)


def run(m, *programs):
    for prog in programs:
        m.load_program(prog)
    engine = Engine(m)
    return engine, engine.run()


def one_instr(instr, tile="t0"):
    prog = Program(tile=tile)
    prog.append(instr)
    prog.append(make(Opcode.HALT))
    return prog


class TestOffloadOps:
    @pytest.mark.parametrize(
        "fn", [Activation.RELU, Activation.TANH, Activation.SIGMOID,
               Activation.SOFTMAX, Activation.NONE],
    )
    def test_ndactfn_all_functions(self, fn):
        m = machine()
        x = np.linspace(-2, 2, 8).astype(np.float32)
        m.mem_tile(0).write(0, x, False)
        run(m, one_instr(make(
            Opcode.NDACTFN, fn_type=ACT_CODES[fn], in_addr=0, port=0,
            size=8, out_addr=16, out_port=0,
        )))
        want = ops.activate(x.copy(), fn)
        np.testing.assert_allclose(
            m.mem_tile(0).read(16, 8), want, atol=1e-6
        )

    def test_ndactbp_masks_with_adjacent_activations(self):
        """NDACTBP convention: activations live at err_addr + size."""
        m = machine()
        err = np.ones(4, np.float32)
        act = np.array([0.5, 0.0, 1.2, 0.0], np.float32)  # relu outputs
        m.mem_tile(0).write(0, err, False)
        m.mem_tile(0).write(4, act, False)
        run(m, one_instr(make(
            Opcode.NDACTBP, fn_type=ACT_CODES[Activation.RELU],
            err_addr=0, port=0, size=4, out_addr=16, out_port=0,
        )))
        np.testing.assert_allclose(
            m.mem_tile(0).read(16, 4), [1.0, 0.0, 1.0, 0.0]
        )

    @pytest.mark.parametrize("mode", [PoolMode.MAX, PoolMode.AVG])
    def test_ndsubsamp(self, mode):
        m = machine()
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        m.mem_tile(0).write(0, x, False)
        run(m, one_instr(make(
            Opcode.NDSUBSAMP, samp_type=SAMP_CODES[mode], in_addr=0,
            port=0, in_size=pack_shape(4, 4), window=2, stride=2,
            out_addr=32, out_port=1,
        )))
        want, _ = ops.pool_forward(x, 2, 2, 0, mode)
        np.testing.assert_allclose(
            m.mem_tile(1).read(32, 4).reshape(1, 2, 2), want
        )

    def test_ndupsamp_spreads_average_error(self):
        m = machine()
        err = np.array([[4.0]], np.float32).reshape(1, 1, 1)
        m.mem_tile(0).write(0, err, False)
        run(m, one_instr(make(
            Opcode.NDUPSAMP, samp_type=SAMP_CODES[PoolMode.AVG],
            in_addr=0, port=0, in_size=pack_shape(1, 1), window=2,
            stride=2, out_addr=8, out_port=0,
        )))
        np.testing.assert_allclose(m.mem_tile(0).read(8, 4), 1.0)


class TestTransferOps:
    def test_dmastore_is_a_push(self):
        """DMASTORE moves data like DMALOAD; the distinction is which
        tile initiates (timing, not semantics, in the engine)."""
        m = machine()
        m.mem_tile(1).write(0, np.array([3.0, 4.0], np.float32), False)
        run(m, one_instr(make(
            Opcode.DMASTORE, src_addr=0, src_port=1, dst_addr=8,
            dst_port=2, size=2, is_accum=0,
        )))
        assert m.mem_tile(2).read(8, 2).tolist() == [3.0, 4.0]

    def test_passbuff_handshakes_cost_cycles_only(self):
        m = machine()
        sentinel = np.array([9.0], np.float32)
        m.mem_tile(0).write(0, sentinel, False)
        _, report = run(m, one_instr(make(
            Opcode.PASSBUFF_RD, addr=0, port=0, size=1,
        )))
        assert m.mem_tile(0).read(0, 1)[0] == 9.0  # data untouched
        assert report.cycles >= 2

    def test_dma_to_external_and_back(self):
        m = machine()
        m.mem_tile(0).write(0, np.array([5.0], np.float32), False)
        prog = assemble(
            """
            DMASTORE src_addr=0, src_port=0, dst_addr=100, dst_port=65535, size=1, is_accum=0
            DMALOAD src_addr=100, src_port=65535, dst_addr=4, dst_port=0, size=1, is_accum=0
            HALT
            """,
            tile="ext",
        )
        engine, _ = run(m, prog)
        assert m.mem_tile(0).read(4, 1)[0] == 5.0
        assert engine.external[100] == 5.0


class TestEngineGuards:
    def test_tracker_arm_on_external_rejected(self):
        m = machine()
        prog = one_instr(make(
            Opcode.MEMTRACK, addr=0, port=65535, size=4,
            num_updates=1, num_reads=1,
        ))
        m.load_program(prog)
        with pytest.raises(SimulationError):
            Engine(m).run()

    def test_matmul_shape_mismatch_detected(self):
        m = machine()
        prog = one_instr(make(
            Opcode.MATMUL, in1_addr=0, in1_port=0,
            in1_size=pack_shape(1, 5), in2_addr=32, in2_port=0,
            in2_size=pack_shape(3, 4), out_addr=0, out_port=1,
            is_accum=0,
        ))
        m.load_program(prog)
        with pytest.raises(
            SimulationError,
            match="MATMUL shape mismatch: vector 5 vs matrix 3x4",
        ):
            Engine(m).run()

    def test_inject_requires_armed_range_not_readable(self):
        m = machine()
        prog = one_instr(make(
            Opcode.MEMTRACK, addr=0, port=0, size=2,
            num_updates=1, num_reads=1,
        ))
        m.load_program(prog)
        engine = Engine(m)
        engine.run()
        engine.inject(0, 0, np.array([1.0, 2.0], np.float32))
        assert m.mem_tile(0).read(0, 2).tolist() == [1.0, 2.0]
        # A second injection hits the now-READABLE range and is refused.
        with pytest.raises(SimulationError):
            engine.inject(0, 0, np.array([3.0, 4.0], np.float32))


#: Malformed data instructions and the operand each error must name.
MALFORMED = {
    "NDUPSAMP samp_type=7": make(
        Opcode.NDUPSAMP, samp_type=7, in_addr=0, port=0,
        in_size=pack_shape(2, 2), window=2, stride=2, out_addr=0,
        out_port=1,
    ),
    "NDACTFN fn_type=9": make(
        Opcode.NDACTFN, fn_type=9, in_addr=0, port=0, size=4, out_addr=0,
        out_port=1,
    ),
    "NDACTBP fn_type=9": make(
        Opcode.NDACTBP, fn_type=9, err_addr=0, port=0, size=4,
        out_addr=0, out_port=1,
    ),
    "NDSUBSAMP samp_type=5": make(
        Opcode.NDSUBSAMP, samp_type=5, in_addr=0, port=0,
        in_size=pack_shape(4, 4), window=2, stride=2, out_addr=0,
        out_port=1,
    ),
    "WUPDATE lr_denom=0": make(
        Opcode.WUPDATE, weight_addr=0, grad_addr=8, port=0, size=4,
        lr_num=1, lr_denom=0,
    ),
    "NDCONV stride=0": make(
        Opcode.NDCONV, in_addr=0, in_port=0, in_size=pack_shape(4, 4),
        kernel_addr=100, kernel_size=pack_shape(3, 3), stride=0, pad=0,
        out_addr=0, out_port=1, is_accum=0,
    ),
    # Pooling windows that do not fit: a window wider than the plane
    # ran silently, writing nothing; an empty one raised numpy's
    # ValueError; an up-sampling window wider than its stride raised
    # IndexError (MAX) or spread into clipped windows (AVG).
    "NDSUBSAMP window=3": make(
        Opcode.NDSUBSAMP, samp_type=0, in_addr=0, port=0,
        in_size=pack_shape(2, 2), window=3, stride=2, out_addr=0,
        out_port=1,
    ),
    "NDSUBSAMP window=0": make(
        Opcode.NDSUBSAMP, samp_type=0, in_addr=0, port=0,
        in_size=pack_shape(4, 4), window=0, stride=2, out_addr=0,
        out_port=1,
    ),
    "NDUPSAMP samp_type=0 window=0": make(
        Opcode.NDUPSAMP, samp_type=0, in_addr=0, port=0,
        in_size=pack_shape(2, 2), window=0, stride=2, out_addr=0,
        out_port=1,
    ),
    "NDUPSAMP samp_type=0 window=3": make(
        Opcode.NDUPSAMP, samp_type=0, in_addr=0, port=0,
        in_size=pack_shape(2, 2), window=3, stride=2, out_addr=0,
        out_port=1,
    ),
    "NDUPSAMP samp_type=1 window=3": make(
        Opcode.NDUPSAMP, samp_type=1, in_addr=0, port=0,
        in_size=pack_shape(2, 2), window=3, stride=2, out_addr=0,
        out_port=1,
    ),
}


class TestMalformedInstructions:
    """Operands the engine cannot execute raise a SimulationError naming
    the opcode and operand when the instruction issues — never a bare
    KeyError or ZeroDivisionError, and never a silent fallback."""

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_raises_naming_the_operand(self, name):
        from repro.telemetry import capture

        m = machine()
        m.load_program(one_instr(MALFORMED[name]))
        with capture() as tel:
            with pytest.raises(SimulationError, match=name):
                Engine(m).run()
        opcode = name.split()[0]
        assert tel.counters.group("engine.fallback") == {
            f"{opcode}:decode-error:SimulationError": 1,
            "HALT:scalar-control": 1,
        }

    @pytest.mark.parametrize("size, window, stride, text", [
        ((1, 1), 4, 1, "NDSUBSAMP window=4: must be 1..1 to fit its 1x1 "
                       "plane"),
        ((2, 2), 0, 1, "NDSUBSAMP window=0: must be 1..2 to fit its 2x2 "
                       "plane"),
        ((2, 2), 2, 0, "NDSUBSAMP stride=0: must be >= 1"),
    ])
    def test_static_accesses_refuse_like_the_engine(
        self, size, window, stride, text
    ):
        """The access table and calibration size no accesses for a
        shape the decoder refuses (a 4-word write from a 1x1 plane, a
        9-word one from a zero window, a ZeroDivisionError from a zero
        stride): all three raise the engine's text."""
        instr = make(
            Opcode.NDSUBSAMP, samp_type=0, in_addr=0, port=0,
            in_size=pack_shape(*size), window=window, stride=stride,
            out_addr=0, out_port=1,
        )
        with pytest.raises(SimulationError) as static:
            instruction_accesses(instr)
        with pytest.raises(SimulationError) as calibrated:
            calibrate_trackers([one_instr(instr)])
        m = machine()
        m.load_program(one_instr(instr))
        with pytest.raises(SimulationError) as engine:
            Engine(m).run()
        assert str(static.value) == str(calibrated.value) == text
        assert str(engine.value) == text

    @pytest.mark.parametrize("name, text", [
        ("NDUPSAMP samp_type=7",
         "NDUPSAMP samp_type=7: not an up-sampling code [0, 1, 2]"),
        ("NDSUBSAMP samp_type=5",
         "NDSUBSAMP samp_type=5: not a sampling code [0, 1]"),
    ])
    def test_static_accesses_refuse_unknown_sampling_codes(self, name, text):
        """The access table and calibration size no accesses for a
        sampling code the decoder refuses (they used to report a 16-word
        write for NDUPSAMP's code 7 on a 2x2 plane at stride 2, and a
        write for NDSUBSAMP's code 5): all three raise the engine's
        text."""
        instr = MALFORMED[name]
        with pytest.raises(SimulationError) as static:
            instruction_accesses(instr)
        with pytest.raises(SimulationError) as calibrated:
            calibrate_trackers([one_instr(instr)])
        m = machine()
        m.load_program(one_instr(instr))
        with pytest.raises(SimulationError) as engine:
            Engine(m).run()
        assert str(static.value) == str(calibrated.value) == text
        assert str(engine.value) == text

    def test_error_beats_a_blocking_tracker(self):
        """The decode error raises before the gate: a malformed
        instruction whose read would block reports its error instead of
        waiting for the tracker."""
        m = machine()
        prog = Program(tile="t0")
        prog.append(make(
            Opcode.MEMTRACK, addr=0, port=0, size=4, num_updates=1,
            num_reads=1,
        ))
        prog.append(MALFORMED["NDACTFN fn_type=9"])
        prog.append(make(Opcode.HALT))
        m.load_program(prog)
        with pytest.raises(SimulationError, match="NDACTFN fn_type=9"):
            Engine(m).run()
