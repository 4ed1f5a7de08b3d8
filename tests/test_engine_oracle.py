"""Differential tests: decoded data instructions against the old interpreter.

The engine decodes every data instruction into a closure, and decodes a
register-indirect one when it issues.  The oracle below is the
interpreter this replaced: the data and tracker branches of its
``_execute``, which re-parsed each instruction per dispatch, its
triple-based ``_gate`` and its ``_read_words``/``_write_words``
accessors, kept verbatim (the deleted ``TrackerFile.phase_of`` and
``operand_accesses`` are copied beside them; of the scalar branch only
``LDRI`` and ``HALT`` remain; the DMA branches no longer pass the tile
id to the fault stream, which used it only for a deleted telemetry
event), driven by the per-round retry loop of
:mod:`tests.round_robin_oracle`.  One generated data instruction per
example, optionally behind ``LDRI``-set register operands and an armed
MEMTRACK, must leave every scratchpad, the external memory, the tracker
counts and the run report identical under both.
"""

from typing import List, Optional, Tuple

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.arch.presets import conv_chip
from repro.dnn.layers import PoolMode
from repro.errors import SimulationError
from repro.functional import tensor_ops as ops
from repro.isa import Opcode, Program, make
from repro.isa.instructions import (
    Instruction,
    InstrGroup,
    OPCODE_GROUPS,
    OPERAND_NAMES,
)
from repro.sim.engine import (
    ACT_CODES,
    EXTERNAL_PORT,
    SAMP_CODES,
    UPSAMP_ZERO_INSERT,
    Engine,
    _Decoded,
    _observe_dma,
)
from repro.sim.machine import (
    CompTile,
    Machine,
    REG_OPERAND_MASK,
    instruction_accesses,
    is_reg_operand,
    pack_shape,
    reg_operand,
    unpack_shape,
)
from repro.sim.tracker import AccessVerdict, TrackerPhase
from tests.round_robin_oracle import RetryingEngine

_CODE_TO_ACT = {v: k for k, v in ACT_CODES.items()}
_CODE_TO_SAMP = {v: k for k, v in SAMP_CODES.items()}


# ---------------------------------------------------------------------------
# Oracle: the per-dispatch interpreter the decoded closures replaced
# ---------------------------------------------------------------------------
def operand_accesses(op, o):
    fake = Instruction(op, tuple(o[name] for name in OPERAND_NAMES[op]))
    return instruction_accesses(fake)


def _phase_of(trackers, start, size):
    tracker = trackers._matching(start, size)
    return tracker.phase if tracker else None


class OracleEngine(RetryingEngine):
    """Every instruction stays undecoded and runs through the old
    ``_execute``."""

    def _decode_program(self, tile):
        return [_Decoded(instr) for instr in tile.program.instructions]

    def _read_words(self, port: int, addr: int, count: int) -> np.ndarray:
        tile = self._tile(port)
        if tile is None:
            return self.external[addr : addr + count]
        return tile.read(addr, count)

    def _write_words(
        self, port: int, addr: int, data: np.ndarray, accumulate: bool
    ) -> None:
        tile = self._tile(port)
        if tile is None:
            flat = data.reshape(-1).astype(np.float32)
            if accumulate:
                self.external[addr : addr + flat.size] += flat
            else:
                self.external[addr : addr + flat.size] = flat
            return
        tile.write(addr, data, accumulate)

    def _gate(
        self,
        comp: CompTile,
        reads: List[Tuple[int, int, int]],
        writes: List[Tuple[int, int, int]],
    ) -> bool:
        # Peek first: a blocked companion access must not consume counts.
        for port, addr, count in reads:
            tile = self._tile(port)
            if tile and _phase_of(tile.trackers, addr, count) is (
                TrackerPhase.UPDATING
            ):
                tile.trackers.blocked_reads += 1
                self._note_block(
                    comp, "read", port, addr, count, TrackerPhase.UPDATING
                )
                return False
        for port, addr, count in writes:
            tile = self._tile(port)
            if tile and _phase_of(tile.trackers, addr, count) is (
                TrackerPhase.READABLE
            ):
                tile.trackers.blocked_writes += 1
                self._note_block(
                    comp, "write", port, addr, count, TrackerPhase.READABLE
                )
                return False
        # All clear: consume.
        for port, addr, count in reads:
            tile = self._tile(port)
            if tile:
                verdict = tile.trackers.check_read(addr, count)
                assert verdict is AccessVerdict.ALLOW
        for port, addr, count in writes:
            tile = self._tile(port)
            if tile:
                verdict = tile.trackers.check_write(addr, count)
                assert verdict is AccessVerdict.ALLOW
        return True

    def _execute(self, tile: CompTile, instr: Instruction) -> Optional[int]:
        op = instr.opcode
        o = instr.named_operands()
        if instr.group is not InstrGroup.SCALAR:
            # Resolve register-indirect operands (Fig 13-style R-args).
            o = {
                name: (
                    tile.reg(value & REG_OPERAND_MASK)
                    if is_reg_operand(value)
                    else value
                )
                for name, value in o.items()
            }

        # --- scalar control -------------------------------------------
        if op is Opcode.LDRI:
            tile.set_reg(o["rd"], o["value"])
            return 1
        if op is Opcode.HALT:
            tile.halted = True
            return 1

        # --- data-flow trackers ----------------------------------------
        if op in (Opcode.MEMTRACK, Opcode.DMA_MEMTRACK):
            port = o["target"] if op is Opcode.DMA_MEMTRACK else o["port"]
            target = self._tile(port)
            if target is None:
                raise SimulationError("cannot arm a tracker on external memory")
            target.trackers.arm(
                o["addr"], o["size"], o["num_updates"], o["num_reads"]
            )
            return 1

        # --- data instructions: gate via the shared access analysis
        # (the same facts the tracker calibrator counts), evaluated on
        # the resolved operands ------------------------------------------
        reads, writes = operand_accesses(op, o)
        if (reads or writes) and not self._gate(tile, reads, writes):
            return None

        # --- coarse-grained data ----------------------------------------
        if op is Opcode.NDCONV:
            h, w = unpack_shape(o["in_size"])
            k, _ = unpack_shape(o["kernel_size"])
            stride, pad = o["stride"], o["pad"]
            out_h = (h + 2 * pad - k) // stride + 1
            out_w = (w + 2 * pad - k) // stride + 1
            x = self._read_words(o["in_port"], o["in_addr"], h * w)
            kern = self._read_words(o["in_port"], o["kernel_addr"], k * k)
            out = ops.conv2d_forward(
                x.reshape(1, h, w),
                kern.reshape(1, 1, k, k),
                np.zeros(1, dtype=np.float32),
                stride,
                pad,
            )
            self._write_words(
                o["out_port"], o["out_addr"], out, bool(o["is_accum"])
            )
            return self._conv_cycles(out_h * out_w, k)

        if op is Opcode.MATMUL:
            rows, cols = unpack_shape(o["in2_size"])
            _, n = unpack_shape(o["in1_size"])
            if n != cols:
                raise SimulationError(
                    f"MATMUL shape mismatch: vector {n} vs matrix "
                    f"{rows}x{cols}"
                )
            vec = self._read_words(o["in1_port"], o["in1_addr"], n)
            mat = self._read_words(
                o["in2_port"], o["in2_addr"], rows * cols
            ).reshape(rows, cols)
            self._write_words(
                o["out_port"], o["out_addr"], mat @ vec, bool(o["is_accum"])
            )
            return self._matmul_cycles(rows * cols)

        # --- MemHeavy offload -------------------------------------------
        if op is Opcode.NDACTFN:
            size = o["size"]
            data = self._read_words(o["port"], o["in_addr"], size)
            fn = _CODE_TO_ACT[o["fn_type"]]
            self._write_words(
                o["out_port"], o["out_addr"], ops.activate(data.copy(), fn),
                False,
            )
            return self._offload_cycles(size)

        if op is Opcode.NDACTBP:
            size = o["size"]
            act_addr = o["err_addr"] + size
            err = self._read_words(o["port"], o["err_addr"], size)
            act = self._read_words(o["port"], act_addr, size)
            fn = _CODE_TO_ACT[o["fn_type"]]
            masked = ops.activate_backward(err.copy(), act, fn)
            self._write_words(o["out_port"], o["out_addr"], masked, False)
            return self._offload_cycles(size)

        if op is Opcode.NDSUBSAMP:
            h, w = unpack_shape(o["in_size"])
            window, stride = o["window"], o["stride"]
            out_h = (h - window) // stride + 1
            out_w = (w - window) // stride + 1
            x = self._read_words(o["port"], o["in_addr"], h * w)
            mode = _CODE_TO_SAMP[o["samp_type"]]
            out, _ = ops.pool_forward(
                x.reshape(1, h, w), window, stride, 0, mode
            )
            self._write_words(o["out_port"], o["out_addr"], out, False)
            return self._offload_cycles(h * w)

        if op is Opcode.NDUPSAMP:
            h, w = unpack_shape(o["in_size"])  # error extent (small side)
            window, stride = o["window"], o["stride"]
            mode = o["samp_type"]
            err = self._read_words(
                o["port"], o["in_addr"], h * w
            ).reshape(1, h, w)
            if mode == UPSAMP_ZERO_INSERT:
                out_h = (h - 1) * stride + 1
                out_w = (w - 1) * stride + 1
                up = np.zeros((1, out_h, out_w), dtype=np.float32)
                up[0, ::stride, ::stride] = err[0]
            elif mode == SAMP_CODES[PoolMode.MAX]:
                out_h, out_w = h * stride, w * stride
                original = self._read_words(
                    o["port"], o["in_addr"] + h * w, out_h * out_w
                ).reshape(1, out_h, out_w)
                _, argmax = ops.pool_forward(
                    original, window, stride, 0, PoolMode.MAX
                )
                up = ops.pool_backward(
                    err.copy(), (1, out_h, out_w), window, stride, 0,
                    PoolMode.MAX, argmax,
                )
            else:  # AVG spread
                out_h, out_w = h * stride, w * stride
                up = ops.pool_backward(
                    err.copy(), (1, out_h, out_w), window, stride, 0,
                    PoolMode.AVG, np.empty(0),
                )
            self._write_words(o["out_port"], o["out_addr"], up, False)
            return self._offload_cycles(out_h * out_w)

        if op is Opcode.NDACCUM:
            size = o["size"]
            src = self._read_words(o["port"], o["src_addr"], size)
            self._write_words(o["port"], o["dst_addr"], src, True)
            return self._offload_cycles(size)

        if op is Opcode.VECMUL:
            size = o["size"]
            a = self._read_words(o["port"], o["in1_addr"], size)
            b = self._read_words(o["port"], o["in2_addr"], size)
            self._write_words(o["port"], o["out_addr"], a * b, False)
            return self._offload_cycles(size)

        if op is Opcode.WUPDATE:
            size = o["size"]
            grad = self._read_words(o["port"], o["grad_addr"], size).copy()
            lr = o["lr_num"] / o["lr_denom"]
            self._write_words(o["port"], o["weight_addr"], -lr * grad, True)
            self._write_words(
                o["port"], o["grad_addr"], np.zeros(size, np.float32), False
            )
            return self._offload_cycles(size)

        # --- data transfer ----------------------------------------------
        if op in (Opcode.DMALOAD, Opcode.DMASTORE):
            size = o["size"]
            data = self._read_words(o["src_port"], o["src_addr"], size)
            self._write_words(
                o["dst_port"], o["dst_addr"],
                self._shared.dma_payload(data),
                bool(o["is_accum"]),
            )
            if self._tel_on:
                _observe_dma(self.telemetry, tile, tile.tile_id, size)
            return self._dma_cycles(size, o["src_port"], o["dst_port"])

        if op in (Opcode.PASSBUFF_RD, Opcode.PASSBUFF_WR):
            return 2

        if op is Opcode.PREFETCH:
            size = o["size"]
            data = self.external[o["src_addr"] : o["src_addr"] + size]
            self._write_words(
                o["dst_port"], o["dst_addr"],
                self._shared.dma_payload(data), False,
            )
            if self._tel_on:
                _observe_dma(self.telemetry, tile, tile.tile_id, size)
            return self._dma_cycles(size, EXTERNAL_PORT, o["dst_port"])

        raise SimulationError(f"engine cannot execute {op.value}")


# ---------------------------------------------------------------------------
# Generated one-instruction programs on a 3x1 mesh
# ---------------------------------------------------------------------------
#: Scratchpad words and external words filled with data; every
#: generated access stays inside them.
FILLED = 2048
EXTERNAL_WORDS = 4096

DATA_OPCODES = [
    op for op, group in OPCODE_GROUPS.items()
    if group in (InstrGroup.COARSE, InstrGroup.OFFLOAD, InstrGroup.TRANSFER)
]
ADDR = st.integers(0, 1023)
PORT = st.sampled_from([0, 1, 2, EXTERNAL_PORT])
ACCUM = st.integers(0, 1)


@st.composite
def _data_instruction(draw) -> Instruction:
    op = draw(st.sampled_from(DATA_OPCODES))
    if op is Opcode.NDCONV:
        k, pad, stride = (
            draw(st.integers(1, 3)), draw(st.integers(0, 1)),
            draw(st.integers(1, 2)),
        )
        h, w = draw(st.integers(k, 8)), draw(st.integers(k, 8))
        return make(
            op, in_addr=draw(ADDR), in_port=draw(PORT),
            in_size=pack_shape(h, w), kernel_addr=draw(ADDR),
            kernel_size=pack_shape(k, k), stride=stride, pad=pad,
            out_addr=draw(ADDR), out_port=draw(PORT), is_accum=draw(ACCUM),
        )
    if op is Opcode.MATMUL:
        rows, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
        return make(
            op, in1_addr=draw(ADDR), in1_port=draw(PORT),
            in1_size=pack_shape(1, n), in2_addr=draw(ADDR),
            in2_port=draw(PORT), in2_size=pack_shape(rows, n),
            out_addr=draw(ADDR), out_port=draw(PORT), is_accum=draw(ACCUM),
        )
    if op in (Opcode.NDACTFN, Opcode.NDACTBP):
        addr = "in_addr" if op is Opcode.NDACTFN else "err_addr"
        return make(
            op, fn_type=draw(st.sampled_from(sorted(_CODE_TO_ACT))),
            port=draw(PORT), size=draw(st.integers(1, 40)),
            out_addr=draw(ADDR), out_port=draw(PORT), **{addr: draw(ADDR)},
        )
    if op is Opcode.NDSUBSAMP:
        window, stride = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        h, w = draw(st.integers(window, 8)), draw(st.integers(window, 8))
        return make(
            op, samp_type=draw(st.sampled_from(sorted(_CODE_TO_SAMP))),
            in_addr=draw(ADDR), port=draw(PORT), in_size=pack_shape(h, w),
            window=window, stride=stride, out_addr=draw(ADDR),
            out_port=draw(PORT),
        )
    if op is Opcode.NDUPSAMP:
        stride = draw(st.integers(1, 3))
        return make(
            op, samp_type=draw(st.sampled_from([0, 1, 2])),
            in_addr=draw(ADDR), port=draw(PORT),
            in_size=pack_shape(draw(st.integers(1, 6)),
                               draw(st.integers(1, 6))),
            window=draw(st.integers(1, stride)), stride=stride,
            out_addr=draw(ADDR), out_port=draw(PORT),
        )
    if op is Opcode.NDACCUM:
        return make(
            op, src_addr=draw(ADDR), port=draw(PORT),
            size=draw(st.integers(1, 40)), dst_addr=draw(ADDR),
        )
    if op is Opcode.VECMUL:
        return make(
            op, in1_addr=draw(ADDR), in2_addr=draw(ADDR), port=draw(PORT),
            size=draw(st.integers(1, 40)), out_addr=draw(ADDR),
        )
    if op is Opcode.WUPDATE:
        return make(
            op, weight_addr=draw(ADDR), grad_addr=draw(ADDR),
            port=draw(PORT), size=draw(st.integers(1, 40)),
            lr_num=draw(st.integers(0, 4)), lr_denom=draw(st.integers(1, 100)),
        )
    if op in (Opcode.DMALOAD, Opcode.DMASTORE):
        return make(
            op, src_addr=draw(ADDR), src_port=draw(PORT),
            dst_addr=draw(ADDR), dst_port=draw(PORT),
            size=draw(st.integers(1, 300)), is_accum=draw(ACCUM),
        )
    if op in (Opcode.PASSBUFF_RD, Opcode.PASSBUFF_WR):
        return make(
            op, addr=draw(ADDR), port=draw(PORT),
            size=draw(st.integers(1, 40)),
        )
    assert op is Opcode.PREFETCH
    return make(
        op, src_addr=draw(ADDR), dst_addr=draw(ADDR), dst_port=draw(PORT),
        size=draw(st.integers(1, 300)),
    )


@st.composite
def programs(draw) -> Tuple[Program, int]:
    """(program, memory seed): an optional MEMTRACK on one of the data
    instruction's accesses, an ``LDRI`` per address operand drawn
    register-indirect, the data instruction, HALT."""
    instr = draw(_data_instruction())
    prog = Program(tile="t")
    reads, writes = instruction_accesses(instr)
    trackable = [
        access for access in reads + writes if access[0] != EXTERNAL_PORT
    ]
    if trackable and draw(st.booleans()):
        port, addr, count = draw(st.sampled_from(trackable))
        start = draw(st.integers(max(0, addr - 4), addr + count - 1))
        prog.append(make(
            Opcode.MEMTRACK, addr=start, port=port,
            size=draw(st.integers(1, count + 8)),
            num_updates=draw(st.integers(0, 2)),
            num_reads=draw(st.integers(0, 2)),
        ))
    operands = list(instr.operands)
    for i, name in enumerate(OPERAND_NAMES[instr.opcode]):
        if name.endswith("addr") and draw(st.booleans()):
            register = len(prog.instructions) + 1
            prog.append(make(Opcode.LDRI, rd=register, value=operands[i]))
            operands[i] = reg_operand(register)
    prog.append(Instruction(instr.opcode, tuple(operands)))
    prog.append(make(Opcode.HALT))
    return prog, draw(st.integers(0, 2**32 - 1))


def _run(engine_cls, prog: Program, seed: int):
    rng = np.random.default_rng(seed)
    machine = Machine(conv_chip(), 3, 1)
    for mem in machine.mem_tiles:
        mem.words[:FILLED] = rng.normal(0, 1, FILLED)
    machine.load_program(prog)
    engine = engine_cls(machine, external_words=EXTERNAL_WORDS)
    engine.external[:] = rng.normal(0, 1, EXTERNAL_WORDS)
    report = engine.run(raise_on_deadlock=False)
    tile = machine.comp_tiles["t"]
    return {
        "report": report,
        "memory": [mem.words.tobytes() for mem in machine.mem_tiles],
        "external": engine.external.tobytes(),
        "trackers": [
            (
                mem.trackers.blocked_reads, mem.trackers.blocked_writes,
                [
                    (t.start, t.size, t.num_updates, t.num_reads,
                     t.updates_seen, t.reads_seen)
                    for t in mem.trackers._trackers
                ],
            )
            for mem in machine.mem_tiles
        ],
        "tile": (
            tile.pc, tile.cycles, tile.stalled_cycles, tile.halted,
            tile.blocked, tile.registers.tolist(),
        ),
    }


class TestAgainstInterpreter:
    @settings(max_examples=400, deadline=None)
    @given(programs())
    def test_decoded_matches_interpreter(self, case):
        prog, seed = case
        want = _run(OracleEngine, prog, seed)
        got = _run(Engine, prog, seed)
        for key in want:
            assert got[key] == want[key], (key, str(prog.instructions[-2]))

    def test_oracle_interprets(self, monkeypatch):
        """Every instruction of an oracle run goes through the old
        ``_execute``, so the comparison above is not vacuous."""
        issued = []
        execute = OracleEngine._execute

        def spy(self, tile, instr):
            issued.append(instr.opcode)
            return execute(self, tile, instr)

        monkeypatch.setattr(OracleEngine, "_execute", spy)
        m = Machine(conv_chip(), 3, 1)
        prog = Program(tile="t")
        prog.append(make(
            Opcode.DMALOAD, src_addr=0, src_port=0, dst_addr=0, dst_port=1,
            size=4, is_accum=0,
        ))
        prog.append(make(Opcode.HALT))
        m.load_program(prog)
        OracleEngine(m).run()
        assert issued == [Opcode.DMALOAD, Opcode.HALT]
