"""Functional engine: executes ScaleDeep ISA programs with real data.

This is the instruction-level counterpart of the analytical model in
:mod:`repro.sim.perf`: compiled programs run on a machine of MemHeavy
scratchpads and CompHeavy tiles, with MEMTRACK data-flow trackers
enforcing the synchronization of Sec 3.2.4, and per-instruction cycle
costs derived from the tile micro-architecture.  Results are validated
against the numpy golden model.

Engine conventions (the compiler's code generator follows these):

* Data-instruction operands are immediates — the data flow of a DNN is
  static, so the generator resolves every address at compile time (the
  scalar/branch instructions still execute for handwritten programs).
* ``port`` operands carry flattened MemHeavy tile ids
  (:meth:`Machine.mem_tile_id`); port ``EXTERNAL_PORT`` addresses the
  node's external memory.
* NDCONV/MATMUL/NDSUBSAMP sizes pack 2-D extents via
  :func:`repro.sim.machine.pack_shape`; DMA/tracker/vector sizes are
  raw word counts.
* A blocked instruction (tracker not ready) retries next round; if a
  whole round passes with every live tile blocked, the engine raises a
  deadlock error naming the blocked tiles.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.dnn.layers import Activation, PoolMode
from repro.errors import ShapeError, SimulationError, SimulationTimeout
from repro.functional import tensor_ops as ops
from repro.isa.instructions import Instruction, InstrGroup, Opcode
from repro.isa.program import Program
from repro.sim.machine import (
    CompTile,
    Machine,
    MemTile,
    REG_OPERAND_MASK,
    instruction_accesses,
    is_reg_operand,
    operand_accesses,
    unpack_shape,
)
from repro.sim.tracker import AccessVerdict, TrackerPhase
from repro.telemetry.core import NullTelemetry, Telemetry, get_telemetry

#: Port value addressing external memory instead of a MemHeavy tile.
EXTERNAL_PORT = 0xFFFF

#: Data-movement opcodes whose cycle costs count as DMA time in the
#: per-tile stall-cause attribution (telemetry ``dma_cycles`` counter).
_DMA_OPCODES = frozenset(
    (Opcode.DMALOAD, Opcode.DMASTORE, Opcode.PREFETCH)
)

#: Fixed per-instruction issue overheads (cycles).
_SETUP_COARSE = 8
_SETUP_OFFLOAD = 4
_SETUP_DMA = 8

#: Activation-function codes for NDACTFN's fn_type operand.
ACT_CODES = {
    Activation.RELU: 0,
    Activation.TANH: 1,
    Activation.SIGMOID: 2,
    Activation.SOFTMAX: 3,
    Activation.NONE: 4,
}
_CODE_TO_ACT = {v: k for k, v in ACT_CODES.items()}

#: Sampling codes for NDSUBSAMP's samp_type operand.
SAMP_CODES = {PoolMode.MAX: 0, PoolMode.AVG: 1}
_CODE_TO_SAMP = {v: k for k, v in SAMP_CODES.items()}

#: Extra NDUPSAMP mode: zero-insertion dilation (the error expansion
#: that turns a strided convolution's BP into a stride-1 full conv).
UPSAMP_ZERO_INSERT = 2


@dataclass
class RunReport:
    """Statistics of one engine run."""

    cycles: int
    instructions: int
    rounds: int
    blocked_reads: int
    blocked_writes: int
    #: Sum of per-tile execution cycles excluding tracker stalls.  This
    #: is the fusion-invariant cost: superop execution compresses stall
    #: cycles (so ``cycles``/``rounds`` may shrink) but charges every
    #: covered instruction its decoded per-instruction cost, keeping
    #: ``busy_cycles`` bit-identical to per-instruction execution.
    busy_cycles: int = 0

    def describe(self) -> str:
        return (
            f"{self.instructions} instructions over {self.cycles} cycles "
            f"({self.busy_cycles} busy, {self.rounds} scheduler rounds, "
            f"{self.blocked_reads}r/{self.blocked_writes}w tracker blocks)"
        )


class _Tag(NamedTuple):
    """How telemetry reports one op-table entry."""

    name: str  # span name (and execution-trace text of a superop)
    metric: str  # ``engine.instr_cycles`` key
    dma: bool  # whether its cycles count as the tile's ``dma_cycles``
    args: Dict[str, int]  # extra span arguments (read-only)


#: Tags of single-instruction entries, shared per opcode.
_OPCODE_TAGS = {
    op: _Tag(op.value, op.value, op in _DMA_OPCODES, {}) for op in Opcode
}


class _Decoded:
    """One entry of a tile's flat op table, covering pcs ``[pc, pc + count)``.

    A plain entry is one pre-decoded instruction: the fast path resolves
    everything static once per program — the gated address quads (with
    the MemTile objects already bound), the cycle cost, and a closure
    ``fn`` executing the exact numpy calls of the legacy interpreter.
    Instructions the decoder cannot resolve statically — scalar/control,
    register-indirect operands, or anything whose decode raises — get no
    closure (``fn is None``) and run through :meth:`Engine._execute` so
    error timing and semantics are unchanged; the legacy interpreter is
    a table of such fallback entries only.

    A superop entry (``sup`` given) is a fused run of ``count``
    instructions placed at the run's first pc.  Its quads are the
    *external* tracker accesses to gate atomically, ``expire`` holds the
    pre-bound tracker ranges to force-expire on completion (the exact
    end state of the internal handshakes it elides), and ``cost`` is
    pre-summed from the members' decoded per-instruction costs — so
    reports stay reconciled with per-instruction execution.
    """

    __slots__ = (
        "instr", "fn", "reads", "writes", "cost", "count", "expire", "tag",
    )

    def __init__(
        self,
        instr: Optional[Instruction],
        fn=None,
        reads=(),
        writes=(),
        cost: int = 0,
        sup=None,
        expire=(),
    ) -> None:
        self.instr = instr
        self.fn = fn
        self.reads = reads
        self.writes = writes
        self.cost = cost
        self.expire = expire
        if sup is None:
            self.count = 1
            self.tag = _OPCODE_TAGS[instr.opcode]
        else:
            self.count = sup.end - sup.start
            metric = f"superop.{sup.kind}"
            self.tag = _Tag(
                f"{metric}[{sup.start}:{sup.end}]", metric,
                sup.kind == "load_run", {"instructions": self.count},
            )

    def __str__(self) -> str:
        """The execution-trace text: the instruction, or the superop."""
        return self.tag.name if self.instr is None else str(self.instr)


class Engine:
    """Round-robin interpreter over a :class:`Machine`."""

    def __init__(
        self,
        machine: Machine,
        external_words: int = 1 << 22,
        max_rounds: int = 10_000_000,
        trace: bool = False,
        trace_limit: int = 100_000,
        telemetry: "Telemetry | NullTelemetry | None" = None,
        wall_clock_limit: Optional[float] = None,
        faults=None,
        fast: bool = True,
        fused: bool = False,
    ) -> None:
        self.machine = machine
        self.external = np.zeros(external_words, dtype=np.float32)
        self.max_rounds = max_rounds
        #: Pre-decoded fast path: decode each tile's program once into a
        #: flat op table instead of re-parsing instruction dicts every
        #: round.  ``fast=False`` keeps the legacy interpreter — reports
        #: and outputs are identical either way (pinned by tests).
        self.fast = fast
        #: Superop execution: honour the compiler's fusion plans
        #: (``Program.superops``) by executing whole fused runs per
        #: dispatch.  Needs the fast path; silently ignored under
        #: dma-bitflip faults (per-transfer semantics).  Outputs,
        #: ``instructions`` and ``busy_cycles`` stay bit-identical to
        #: per-instruction execution.
        self.fused = fused and fast
        self._decoded: Dict[str, List[_Decoded]] = {}
        #: Watchdog: seconds of host wall-clock a run() may take before
        #: it is killed with a :class:`SimulationTimeout` (None = no
        #: limit; the ``max_rounds`` cycle budget always applies).
        self.wall_clock_limit = wall_clock_limit
        #: DMA bit-flip faults: a :class:`repro.faults.model.FaultMask`
        #: (duck-typed — ``dma_flip_rate`` and ``spec.seed`` suffice).
        #: Flips are drawn from a named RNG stream so a given seed
        #: corrupts the same transfers in every run.
        self._dma_flip_rate = float(
            getattr(faults, "dma_flip_rate", 0.0) or 0.0
        )
        seed = getattr(getattr(faults, "spec", None), "seed", 0)
        self._dma_rng = random.Random(f"scaledeep-dma:{seed}")
        self.dma_flips = 0
        self.rounds = 0
        #: Optional execution trace: (round, tile_id, instruction text).
        self.trace_enabled = trace
        self.trace_limit = trace_limit
        self.trace: List[Tuple[int, str, str]] = []
        #: Telemetry handle: explicit injection wins, else the process
        #: global (a null object by default — see repro.telemetry).
        self.telemetry = telemetry if telemetry is not None else (
            get_telemetry()
        )
        self._tel_on = self.telemetry.enabled
        #: Last tracker obstruction per tile: (kind, port, addr, count,
        #: phase) — feeds the deadlock diagnostic and telemetry.
        self._block_reason: Dict[str, Tuple[str, int, int, int, str]] = {}
        # (Re)wire the per-MemTile tracker hooks: enabled engines see
        # arm/block/expire events, disabled engines restore the no-op.
        for mem in machine.mem_tiles:
            mem.trackers.emit = (
                self._tracker_emitter(mem.tile_id) if self._tel_on else None
            )

    def _tracker_emitter(self, mem_tile_id: int):
        tel = self.telemetry

        def emit(event: str, start: int, size: int, phase: str) -> None:
            tel.instant(
                f"tracker.{event}", "engine.tracker",
                ("engine/trackers", f"mem {mem_tile_id}"), self.rounds,
                addr_range=[start, start + size], phase=phase,
            )
            tel.count(f"mem/{mem_tile_id}", f"tracker_{event}")

        return emit

    # ------------------------------------------------------------------
    # Host interaction
    # ------------------------------------------------------------------
    def inject(self, port: int, addr: int, data: np.ndarray) -> None:
        """Host-side tracker-counted write (used to deliver the loss
        gradient at the network output between the FP and BP phases)."""
        tile = self._tile(port)
        if tile is None:
            raise SimulationError("cannot inject into external memory")
        verdict = tile.trackers.check_write(addr, data.size)
        if verdict is not AccessVerdict.ALLOW:
            raise SimulationError(
                f"injection into tile {port} @ {addr} blocked by tracker"
            )
        tile.write(addr, data, accumulate=False)

    # ------------------------------------------------------------------
    # Memory access helpers (tracker-gated)
    # ------------------------------------------------------------------
    def _tile(self, port: int) -> Optional[MemTile]:
        if port == EXTERNAL_PORT:
            return None
        return self.machine.mem_tile(port)

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
        """Check every (port, addr, count) access; consume tracker counts
        only if ALL are allowed.  Returns True when the instruction may
        proceed.  A refusal records *why* ``comp`` is blocked (the
        obstructing port, address range and tracker phase) for the
        deadlock diagnostic and, when enabled, telemetry."""
        # Peek first: a blocked companion access must not consume counts.
        for port, addr, count in reads:
            tile = self._tile(port)
            if tile and tile.trackers.phase_of(addr, count) is (
                TrackerPhase.UPDATING
            ):
                tile.trackers.blocked_reads += 1
                self._note_block(
                    comp, "read", port, addr, count, TrackerPhase.UPDATING
                )
                return False
        for port, addr, count in writes:
            tile = self._tile(port)
            if tile and tile.trackers.phase_of(addr, count) is (
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

    def _note_block(
        self,
        comp: CompTile,
        kind: str,
        port: int,
        addr: int,
        count: int,
        phase: TrackerPhase,
    ) -> None:
        self._block_reason[comp.tile_id] = (
            kind, port, addr, count, phase.value
        )
        if self._tel_on:
            self.telemetry.instant(
                f"blocked.{kind}", "engine.block",
                ("engine", f"tile {comp.tile_id}"), comp.cycles,
                port=port, addr_range=[addr, addr + count],
                phase=phase.value,
            )

    # ------------------------------------------------------------------
    # Cycle-cost model
    # ------------------------------------------------------------------
    def _conv_cycles(self, out_elems: int, k: int) -> int:
        fma = self.machine.chip.comp_tile.fma_count
        return _SETUP_COARSE + math.ceil(out_elems * k * k / fma)

    def _matmul_cycles(self, macs: int) -> int:
        fma = self.machine.chip.comp_tile.fma_count
        return _SETUP_COARSE + math.ceil(macs / fma)

    def _offload_cycles(self, elems: int) -> int:
        sfu = self.machine.chip.mem_tile.num_sfu
        return _SETUP_OFFLOAD + math.ceil(elems / sfu)

    def _dma_payload(self, data: np.ndarray, tile_id: str) -> np.ndarray:
        """Copy a DMA transfer's words, injecting a sign-bit flip on one
        word when a dma-bitflip fault fires for this transfer."""
        out = np.array(data, dtype=np.float32)
        if (
            self._dma_flip_rate
            and out.size
            and self._dma_rng.random() < self._dma_flip_rate
        ):
            flat = out.reshape(-1)
            index = self._dma_rng.randrange(flat.size)
            flat[index] = -flat[index]
            self.dma_flips += 1
            if self._tel_on:
                self.telemetry.instant(
                    "fault.dma_flip", "faults", ("faults", "dma-bitflip"),
                    self.rounds, tile=tile_id, index=index,
                )
                self.telemetry.count("faults", "dma_flips")
        return out

    def _dma_cycles(self, words: int, src_port: int, dst_port: int) -> int:
        chip = self.machine.chip
        if EXTERNAL_PORT in (src_port, dst_port):
            bpc = chip.links.external_memory / 600e6
            hops = 1
        else:
            bpc = chip.links.mem_mem / 600e6
            hops = max(1, self.machine.hops(src_port, dst_port))
        return _SETUP_DMA + math.ceil(4 * words / bpc) * hops

    # ------------------------------------------------------------------
    # Instruction execution: returns cycle cost, or None when blocked
    # ------------------------------------------------------------------
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
        if op is Opcode.MOVR:
            tile.set_reg(o["rd"], tile.reg(o["rs"]))
            return 1
        if op is Opcode.ADDR:
            tile.set_reg(o["rd"], tile.reg(o["rs1"]) + tile.reg(o["rs2"]))
            return 1
        if op is Opcode.ADDRI:
            tile.set_reg(o["rd"], tile.reg(o["rs"]) + o["value"])
            return 1
        if op is Opcode.SUBR:
            tile.set_reg(o["rd"], tile.reg(o["rs1"]) - tile.reg(o["rs2"]))
            return 1
        if op is Opcode.SUBRI:
            tile.set_reg(o["rd"], tile.reg(o["rs"]) - o["value"])
            return 1
        if op is Opcode.MULR:
            tile.set_reg(o["rd"], tile.reg(o["rs1"]) * tile.reg(o["rs2"]))
            return 1
        if op in (Opcode.BEQZ, Opcode.BNEZ, Opcode.BGTZ):
            value = tile.reg(o["rs"])
            taken = (
                value == 0 if op is Opcode.BEQZ
                else value != 0 if op is Opcode.BNEZ
                else value > 0
            )
            if taken:
                tile.pc += o["offset"]
            return 1
        if op is Opcode.BRANCH:
            tile.pc += o["offset"]
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
            # Mask a back-propagated error with the activation derivative:
            # reads the raw error at err_addr and the *activated outputs*
            # at act_addr (packed into the high bits of fn_type's
            # companion operand would not fit Fig 8, so the convention is
            # act values live at err_addr + size), writing the masked
            # error to out_addr.
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
                # The original pooled feature sits next to the error
                # (NDACTBP-style adjacency): recompute the argmax and
                # route each error to its window's maximum.
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
            # Apply-and-consume: the gradient region is cleared after the
            # update so the next iteration's WG accumulation starts fresh.
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
                self._dma_payload(data, tile.tile_id),
                bool(o["is_accum"]),
            )
            if self._tel_on:
                self._observe_dma(tile.tile_id, size)
            return self._dma_cycles(size, o["src_port"], o["dst_port"])

        if op in (Opcode.PASSBUFF_RD, Opcode.PASSBUFF_WR):
            # Streaming FIFO setup: data moves with the consuming compute
            # instruction; only the handshake costs cycles here.
            return 2

        if op is Opcode.PREFETCH:
            size = o["size"]
            data = self.external[o["src_addr"] : o["src_addr"] + size]
            self._write_words(
                o["dst_port"], o["dst_addr"],
                self._dma_payload(data, tile.tile_id), False,
            )
            if self._tel_on:
                self._observe_dma(tile.tile_id, size)
            return self._dma_cycles(size, EXTERNAL_PORT, o["dst_port"])

        raise SimulationError(f"engine cannot execute {op.value}")

    # ------------------------------------------------------------------
    # Pre-decoded fast path
    # ------------------------------------------------------------------
    def _reader(self, port: int):
        """A bound ``(addr, count) -> words`` reader for ``port``."""
        tile = self._tile(port)
        if tile is None:
            ext = self.external
            return lambda addr, count: ext[addr : addr + count]
        return tile.read

    def _writer(self, port: int):
        """A bound ``(addr, data, accumulate)`` writer for ``port``."""
        tile = self._tile(port)
        if tile is None:
            ext = self.external

            def write_external(
                addr: int, data: np.ndarray, accumulate: bool
            ) -> None:
                flat = data.reshape(-1).astype(np.float32)
                if accumulate:
                    ext[addr : addr + flat.size] += flat
                else:
                    ext[addr : addr + flat.size] = flat

            return write_external
        return tile.write

    def _decode_program(self, tile: CompTile) -> List[_Decoded]:
        cached = self._decoded.get(tile.tile_id)
        if cached is not None and len(cached) == len(tile.program):
            return cached
        instrs = tile.program.instructions
        entries = None
        if not self.fast:
            # The legacy interpreter re-parses every instruction per
            # dispatch: a table of fallback entries only.
            entries = [_Decoded(instr) for instr in instrs]
        elif (
            self.fused
            and not self._dma_flip_rate
            and getattr(tile.program, "superops", ())
        ):
            entries = self._decode_fused(tile)
        if entries is None:
            entries = [
                self._decode_instr(instr, tile.tile_id) for instr in instrs
            ]
        self._decoded[tile.tile_id] = entries
        return entries

    def _decode_fused(self, tile: CompTile) -> Optional[List[_Decoded]]:
        """Build the fused op table: one superop entry per superop at
        its first pc, per-instruction fallback sentinels at the member
        pcs it jumps over (never dispatched; correct if ever reached),
        and the normal full decode everywhere else.  Returns None when a
        superop doesn't validate against this program — the caller falls
        back to the per-instruction table, and the refusal is counted
        in ``engine.fallback`` as ``superop.<kind>:<error type>``."""
        instrs = tile.program.instructions
        n = len(instrs)
        entries: List[Optional[_Decoded]] = [None] * n
        for sup in tile.program.superops:
            try:
                if not (0 <= sup.start < sup.end <= n):
                    raise SimulationError(
                        f"superop [{sup.start}, {sup.end}) outside the "
                        f"{n}-instruction program"
                    )
                entries[sup.start] = self._build_super(sup, instrs, tile)
            except (SimulationError, KeyError, ZeroDivisionError) as exc:
                self._note_fallback(
                    f"superop.{sup.kind}", type(exc).__name__
                )
                return None
            for pc in range(sup.start + 1, sup.end):
                entries[pc] = _Decoded(instrs[pc])
        for pc in range(n):
            if entries[pc] is None:
                entries[pc] = self._decode_instr(instrs[pc], tile.tile_id)
        return entries

    def _instr_cost(self, instr: Instruction) -> int:
        """The decoded cycle cost of one fusable data instruction,
        computed from operands alone (no closure build) — superop costs
        are pre-summed from these so fused and per-instruction reports
        reconcile exactly."""
        op = instr.opcode
        o = instr.named_operands()
        if op in (Opcode.DMALOAD, Opcode.DMASTORE):
            return self._dma_cycles(o["size"], o["src_port"], o["dst_port"])
        if op is Opcode.NDCONV:
            h, w = unpack_shape(o["in_size"])
            k, _ = unpack_shape(o["kernel_size"])
            stride, pad = o["stride"], o["pad"]
            out_h = (h + 2 * pad - k) // stride + 1
            out_w = (w + 2 * pad - k) // stride + 1
            return self._conv_cycles(out_h * out_w, k)
        if op is Opcode.MATMUL:
            rows, cols = unpack_shape(o["in2_size"])
            return self._matmul_cycles(rows * cols)
        if op in (Opcode.NDACCUM, Opcode.NDACTFN):
            return self._offload_cycles(o["size"])
        if op is Opcode.NDSUBSAMP:
            h, w = unpack_shape(o["in_size"])
            return self._offload_cycles(h * w)
        raise SimulationError(
            f"superop member {op.value} has no fused cost"
        )

    def _build_super(self, sup, instrs, tile: CompTile) -> _Decoded:
        cost = sum(
            self._instr_cost(instrs[pc])
            for pc in range(sup.start, sup.end)
        )
        reads = tuple(
            (self._tile(port), port, addr, count)
            for port, addr, count in sup.external_reads
        )
        writes = tuple(
            (self._tile(port), port, addr, count)
            for port, addr, count in sup.external_writes
        )
        expire = tuple(
            (self.machine.mem_tile(port).trackers, addr, size)
            for port, addr, size in sup.expire
        )
        params = dict(sup.params)
        builder = {
            "load_run": self._super_load_run,
            "conv_block": self._super_conv_block,
            "fc_block": self._super_fc_block,
            "pool_run": self._super_pool_run,
        }.get(sup.kind)
        if builder is None:
            raise SimulationError(f"unknown superop kind {sup.kind!r}")
        return _Decoded(
            None, fn=builder(params, tile.tile_id), reads=reads,
            writes=writes, cost=cost, sup=sup, expire=expire,
        )

    def _super_load_run(self, params: dict, tile_id: str):
        moves = tuple(
            (
                self._reader(src_port), src_addr,
                self._writer(dst_port), dst_addr, size, bool(accum),
            )
            for src_port, src_addr, dst_port, dst_addr, size, accum
            in params["dmas"]
        )

        def load_run() -> None:
            tel = self._tel_on
            for rd, src_addr, wr, dst_addr, size, accum in moves:
                # No _dma_payload: fused decode refuses dma-flip faults,
                # and MemTile.write's astype always copies.
                wr(dst_addr, rd(src_addr, size), accum)
                if tel:
                    self._observe_dma(tile_id, size)

        return load_run

    def _super_conv_block(self, params: dict, tile_id: str):
        in_tile = self._tile(params["in_port"])
        src_words = in_tile.words if in_tile is not None else self.external
        h, w, k = params["h"], params["w"], params["k"]
        out_size = params["out_size"]
        n_features = params["n_features"]
        pre_base, bias_base = params["pre_base"], params["bias_base"]
        try:
            plan = ops.conv_block_plan(
                params["steps"], k, params["stride"], params["pad"],
                (h, w), n_features,
            )
        except ShapeError as exc:
            raise SimulationError(f"conv_block on {tile_id}: {exc}") from exc
        lo, hi = plan.extent
        if lo < 0 or hi > src_words.size:
            raise SimulationError(
                f"conv_block on {tile_id} gathers words [{lo}, {hi}) "
                f"outside its {src_words.size}-word source"
            )
        windows = np.lib.stride_tricks.sliding_window_view
        plane_rows = windows(src_words, h * w)
        kernel_rows = windows(src_words, k * k)
        fn_act = _CODE_TO_ACT[params["fn_type"]]
        rd_bias = self._reader(params["out_port"])
        wr_pre = self._writer(params["out_port"])
        wr_home = self._writer(params["home_port"])
        home_addr = params["home_addr"]

        def conv_block() -> None:
            bias = rd_bias(bias_base, n_features * out_size)
            pre, act = ops.conv_block_forward(
                plane_rows, kernel_rows, plan, bias, fn_act
            )
            wr_pre(pre_base, pre, False)
            wr_home(home_addr, act, False)

        return conv_block

    def _super_fc_block(self, params: dict, tile_id: str):
        rd_vec = self._reader(params["vec_port"])
        rd_mat = self._reader(params["mat_port"])
        rd_bias = self._reader(params["pre_port"])
        wr_pre = self._writer(params["pre_port"])
        wr_home = self._writer(params["home_port"])
        n, rows = params["n"], params["rows"]
        vec_addr, mat_addr = params["vec_addr"], params["mat_addr"]
        pre_addr, bias_addr = params["pre_addr"], params["bias_addr"]
        home_addr = params["home_addr"]
        fn_act = _CODE_TO_ACT[params["fn_type"]]

        def fc_block() -> None:
            mat = rd_mat(mat_addr, rows * n).reshape(rows, n)
            vec = rd_vec(vec_addr, n)
            bias = rd_bias(bias_addr, rows)
            pre, act = ops.fc_block_forward(mat, vec, bias, fn_act)
            wr_pre(pre_addr, pre, False)
            wr_home(home_addr, act, False)

        return fc_block

    def _super_pool_run(self, params: dict, tile_id: str):
        calls = tuple(
            (
                self._reader(port), in_addr, count, h, w, window, stride,
                _CODE_TO_SAMP[samp], self._writer(out_port), out_addr,
            )
            for port, in_addr, count, h, w, window, stride, samp,
            out_port, out_addr in params["groups"]
        )

        def pool_run() -> None:
            for (rd, in_addr, count, h, w, window, stride, mode, wr,
                 out_addr) in calls:
                x = rd(in_addr, count * h * w)
                out, _ = ops.pool_forward(
                    x.reshape(count, h, w), window, stride, 0, mode
                )
                wr(out_addr, out, False)

        return pool_run

    def _note_fallback(self, what: str, reason: str) -> None:
        """Count one decode→interpreter fallback, keyed by what was
        refused (an opcode or ``superop.<kind>``) and why."""
        if self._tel_on:
            self.telemetry.count("engine.fallback", f"{what}:{reason}")

    def _decode_instr(self, instr: Instruction, tile_id: str) -> _Decoded:
        group = instr.group
        if group is InstrGroup.SCALAR:
            # Register/branch/halt: cheap already, and inherently
            # dynamic — always interpreted.
            self._note_fallback(instr.opcode.value, "scalar-control")
            return _Decoded(instr)
        if any(is_reg_operand(v) for v in instr.operands):
            # Fig 13-style R-operands resolve at issue time only.
            self._note_fallback(instr.opcode.value, "register-indirect")
            return _Decoded(instr)
        if group is InstrGroup.TRACK:
            o = instr.named_operands()
            port = (
                o["target"] if instr.opcode is Opcode.DMA_MEMTRACK
                else o["port"]
            )
            if port == EXTERNAL_PORT:
                # Arming external memory raises at execution time.
                self._note_fallback(instr.opcode.value, "external-port")
                return _Decoded(instr)
            try:
                trackers = self.machine.mem_tile(port).trackers
            except SimulationError:
                # Out-of-mesh port: raise at execution, like _execute.
                self._note_fallback(instr.opcode.value, "out-of-mesh-port")
                return _Decoded(instr)
            addr, size = o["addr"], o["size"]
            num_updates, num_reads = o["num_updates"], o["num_reads"]

            def arm() -> None:
                trackers.arm(addr, size, num_updates, num_reads)

            return _Decoded(instr, fn=arm, cost=1)
        try:
            return self._decode_data(instr, tile_id)
        except (SimulationError, KeyError, ZeroDivisionError) as exc:
            # The decode failures the legacy interpreter would raise at
            # *execution* time — shape mismatches and out-of-mesh ports
            # (SimulationError), bad activation/sampling codes
            # (KeyError), a zero WUPDATE lr denominator — fall back so
            # error timing and semantics are unchanged.  Anything else
            # is a genuine engine bug and surfaces here, at decode.
            self._note_fallback(
                instr.opcode.value, f"decode-error:{type(exc).__name__}"
            )
            return _Decoded(instr)

    def _decode_data(self, instr: Instruction, tile_id: str) -> _Decoded:
        """Decode one data instruction into a :class:`_Decoded` entry.

        The closures replicate the legacy :meth:`_execute` numpy calls
        verbatim — regression tests pin bit-identical outputs — with all
        operand parsing, access analysis and cost arithmetic hoisted to
        decode time.
        """
        op = instr.opcode
        o = instr.named_operands()
        raw_reads, raw_writes = instruction_accesses(instr)
        reads = tuple(
            (self._tile(port), port, addr, count)
            for port, addr, count in raw_reads
        )
        writes = tuple(
            (self._tile(port), port, addr, count)
            for port, addr, count in raw_writes
        )

        if op is Opcode.NDCONV:
            h, w = unpack_shape(o["in_size"])
            k, _ = unpack_shape(o["kernel_size"])
            stride, pad = o["stride"], o["pad"]
            out_h = (h + 2 * pad - k) // stride + 1
            out_w = (w + 2 * pad - k) // stride + 1
            in_addr, kernel_addr = o["in_addr"], o["kernel_addr"]
            in_port, out_port = o["in_port"], o["out_port"]
            out_addr, accum = o["out_addr"], bool(o["is_accum"])
            rd = self._reader(in_port)
            wr = self._writer(out_port)
            zero_bias = np.zeros(1, dtype=np.float32)

            def conv() -> None:
                x = rd(in_addr, h * w)
                kern = rd(kernel_addr, k * k)
                out = ops.conv2d_forward(
                    x.reshape(1, h, w), kern.reshape(1, 1, k, k),
                    zero_bias, stride, pad,
                )
                wr(out_addr, out, accum)

            return _Decoded(
                instr, fn=conv, reads=reads, writes=writes,
                cost=self._conv_cycles(out_h * out_w, k),
            )

        if op is Opcode.MATMUL:
            rows, cols = unpack_shape(o["in2_size"])
            _, n = unpack_shape(o["in1_size"])
            if n != cols:
                # Raise at execution time via the fallback path, after
                # gating — identical to the legacy interpreter.
                raise SimulationError("MATMUL shape mismatch")
            in1_port, in2_port = o["in1_port"], o["in2_port"]
            in1_addr, in2_addr = o["in1_addr"], o["in2_addr"]
            out_port, out_addr = o["out_port"], o["out_addr"]
            accum = bool(o["is_accum"])
            rd_vec = self._reader(in1_port)
            rd_mat = self._reader(in2_port)
            wr = self._writer(out_port)

            def matmul() -> None:
                vec = rd_vec(in1_addr, n)
                mat = rd_mat(in2_addr, rows * cols).reshape(rows, cols)
                wr(out_addr, mat @ vec, accum)

            return _Decoded(
                instr, fn=matmul, reads=reads, writes=writes,
                cost=self._matmul_cycles(rows * cols),
            )

        if op is Opcode.NDACTFN:
            size = o["size"]
            port, in_addr = o["port"], o["in_addr"]
            out_port, out_addr = o["out_port"], o["out_addr"]
            fn_act = _CODE_TO_ACT[o["fn_type"]]
            rd = self._reader(port)
            wr = self._writer(out_port)

            def actfn() -> None:
                data = rd(in_addr, size)
                wr(out_addr, ops.activate(data.copy(), fn_act), False)

            return _Decoded(
                instr, fn=actfn, reads=reads, writes=writes,
                cost=self._offload_cycles(size),
            )

        if op is Opcode.NDACTBP:
            size = o["size"]
            port, err_addr = o["port"], o["err_addr"]
            act_addr = err_addr + size
            out_port, out_addr = o["out_port"], o["out_addr"]
            fn_act = _CODE_TO_ACT[o["fn_type"]]
            rd = self._reader(port)
            wr = self._writer(out_port)

            def actbp() -> None:
                err = rd(err_addr, size)
                act = rd(act_addr, size)
                wr(
                    out_addr,
                    ops.activate_backward(err.copy(), act, fn_act), False,
                )

            return _Decoded(
                instr, fn=actbp, reads=reads, writes=writes,
                cost=self._offload_cycles(size),
            )

        if op is Opcode.NDSUBSAMP:
            h, w = unpack_shape(o["in_size"])
            window, stride = o["window"], o["stride"]
            port, in_addr = o["port"], o["in_addr"]
            out_port, out_addr = o["out_port"], o["out_addr"]
            mode = _CODE_TO_SAMP[o["samp_type"]]
            rd = self._reader(port)
            wr = self._writer(out_port)

            def subsamp() -> None:
                x = rd(in_addr, h * w)
                out, _ = ops.pool_forward(
                    x.reshape(1, h, w), window, stride, 0, mode
                )
                wr(out_addr, out, False)

            return _Decoded(
                instr, fn=subsamp, reads=reads, writes=writes,
                cost=self._offload_cycles(h * w),
            )

        if op is Opcode.NDUPSAMP:
            h, w = unpack_shape(o["in_size"])
            window, stride = o["window"], o["stride"]
            mode = o["samp_type"]
            port, in_addr = o["port"], o["in_addr"]
            out_port, out_addr = o["out_port"], o["out_addr"]
            rd = self._reader(port)
            wr = self._writer(out_port)
            if mode == UPSAMP_ZERO_INSERT:
                out_h = (h - 1) * stride + 1
                out_w = (w - 1) * stride + 1

                def upsamp() -> None:
                    err = rd(in_addr, h * w).reshape(1, h, w)
                    up = np.zeros((1, out_h, out_w), dtype=np.float32)
                    up[0, ::stride, ::stride] = err[0]
                    wr(out_addr, up, False)

            elif mode == SAMP_CODES[PoolMode.MAX]:
                out_h, out_w = h * stride, w * stride
                orig_addr = in_addr + h * w

                def upsamp() -> None:
                    err = rd(in_addr, h * w).reshape(1, h, w)
                    original = rd(orig_addr, out_h * out_w).reshape(
                        1, out_h, out_w
                    )
                    _, argmax = ops.pool_forward(
                        original, window, stride, 0, PoolMode.MAX
                    )
                    up = ops.pool_backward(
                        err.copy(), (1, out_h, out_w), window, stride, 0,
                        PoolMode.MAX, argmax,
                    )
                    wr(out_addr, up, False)

            elif mode == SAMP_CODES[PoolMode.AVG]:
                out_h, out_w = h * stride, w * stride

                def upsamp() -> None:
                    err = rd(in_addr, h * w).reshape(1, h, w)
                    up = ops.pool_backward(
                        err.copy(), (1, out_h, out_w), window, stride, 0,
                        PoolMode.AVG, np.empty(0),
                    )
                    wr(out_addr, up, False)

            else:
                raise SimulationError(f"unknown NDUPSAMP mode {mode}")

            return _Decoded(
                instr, fn=upsamp, reads=reads, writes=writes,
                cost=self._offload_cycles(out_h * out_w),
            )

        if op is Opcode.NDACCUM:
            size = o["size"]
            port = o["port"]
            src_addr, dst_addr = o["src_addr"], o["dst_addr"]
            rd = self._reader(port)
            wr = self._writer(port)

            def accum() -> None:
                wr(dst_addr, rd(src_addr, size), True)

            return _Decoded(
                instr, fn=accum, reads=reads, writes=writes,
                cost=self._offload_cycles(size),
            )

        if op is Opcode.VECMUL:
            size = o["size"]
            port = o["port"]
            in1_addr, in2_addr = o["in1_addr"], o["in2_addr"]
            out_addr = o["out_addr"]
            rd = self._reader(port)
            wr = self._writer(port)

            def vecmul() -> None:
                wr(out_addr, rd(in1_addr, size) * rd(in2_addr, size), False)

            return _Decoded(
                instr, fn=vecmul, reads=reads, writes=writes,
                cost=self._offload_cycles(size),
            )

        if op is Opcode.WUPDATE:
            size = o["size"]
            port = o["port"]
            grad_addr, weight_addr = o["grad_addr"], o["weight_addr"]
            lr = o["lr_num"] / o["lr_denom"]
            rd = self._reader(port)
            wr = self._writer(port)
            zeros = np.zeros(size, dtype=np.float32)

            def wupdate() -> None:
                grad = rd(grad_addr, size).copy()
                wr(weight_addr, -lr * grad, True)
                wr(grad_addr, zeros, False)

            return _Decoded(
                instr, fn=wupdate, reads=reads, writes=writes,
                cost=self._offload_cycles(size),
            )

        if op in (Opcode.DMALOAD, Opcode.DMASTORE):
            size = o["size"]
            src_port, dst_port = o["src_port"], o["dst_port"]
            src_addr, dst_addr = o["src_addr"], o["dst_addr"]
            accum = bool(o["is_accum"])
            rd = self._reader(src_port)
            wr = self._writer(dst_port)

            def dma() -> None:
                data = rd(src_addr, size)
                wr(dst_addr, self._dma_payload(data, tile_id), accum)
                if self._tel_on:
                    self._observe_dma(tile_id, size)

            return _Decoded(
                instr, fn=dma, reads=reads, writes=writes,
                cost=self._dma_cycles(size, src_port, dst_port),
            )

        if op in (Opcode.PASSBUFF_RD, Opcode.PASSBUFF_WR):
            noop = lambda: None  # noqa: E731 — handshake only
            return _Decoded(
                instr, fn=noop, reads=reads, writes=writes, cost=2
            )

        if op is Opcode.PREFETCH:
            size = o["size"]
            src_addr = o["src_addr"]
            dst_port, dst_addr = o["dst_port"], o["dst_addr"]
            wr = self._writer(dst_port)

            def prefetch() -> None:
                data = self.external[src_addr : src_addr + size]
                wr(dst_addr, self._dma_payload(data, tile_id), False)
                if self._tel_on:
                    self._observe_dma(tile_id, size)

            return _Decoded(
                instr, fn=prefetch, reads=reads, writes=writes,
                cost=self._dma_cycles(size, EXTERNAL_PORT, dst_port),
            )

        raise SimulationError(f"engine cannot decode {op.value}")

    def _gate_quads(self, comp: CompTile, reads, writes) -> bool:
        """The fast-path twin of :meth:`_gate`, over pre-bound
        ``(mem_tile, port, addr, count)`` quads.  Identical tracker
        accounting: peek every access first (a blocked companion must
        not consume counts), then consume."""
        for mem, port, addr, count in reads:
            if mem is not None and mem.trackers.read_blocked(addr, count):
                self._note_block(
                    comp, "read", port, addr, count, TrackerPhase.UPDATING
                )
                return False
        for mem, port, addr, count in writes:
            if mem is not None and mem.trackers.write_blocked(addr, count):
                self._note_block(
                    comp, "write", port, addr, count, TrackerPhase.READABLE
                )
                return False
        for mem, _port, addr, count in reads:
            if mem is not None:
                verdict = mem.trackers.check_read(addr, count)
                assert verdict is AccessVerdict.ALLOW
        for mem, _port, addr, count in writes:
            if mem is not None:
                verdict = mem.trackers.check_write(addr, count)
                assert verdict is AccessVerdict.ALLOW
        return True

    # ------------------------------------------------------------------
    def run(
        self,
        raise_on_deadlock: bool = True,
        only_tiles: Optional[set] = None,
        exclude_tiles: Optional[set] = None,
    ) -> RunReport:
        """Run all loaded programs round-robin until every tile halts.

        With ``raise_on_deadlock=False`` the engine instead *returns*
        when no tile can make progress — the training flow uses this to
        pause at the point where backpropagation waits for the host to
        inject the loss gradient (the paper computes the output error in
        the final FP tiles; see Sec 3.2.3).

        ``only_tiles`` / ``exclude_tiles`` select which CompHeavy tiles
        participate (the minibatch flow runs the per-image programs and
        the weight-update programs in separate phases).
        """
        tiles = [
            t for t in self.machine.comp_tiles.values()
            if (only_tiles is None or t.tile_id in only_tiles)
            and (exclude_tiles is None or t.tile_id not in exclude_tiles)
        ]
        if not tiles:
            raise SimulationError("no programs loaded (or all filtered)")
        self.rounds = 0
        tel = self.telemetry
        tel_on = self._tel_on
        deadline = (
            time.monotonic() + self.wall_clock_limit
            if self.wall_clock_limit is not None else None
        )
        # One flat op table per tile, indexed by pc in lockstep with the
        # program (same list semantics); see _decode_program.
        work = [(t, self._decode_program(t)) for t in tiles]
        while True:
            self.rounds += 1
            if self.rounds > self.max_rounds:
                raise SimulationTimeout(
                    f"engine exceeded {self.max_rounds} rounds; likely "
                    "livelock (watchdog cycle budget)\n"
                    + self._describe_blocked(tiles),
                    snapshot=self._snapshot(tiles),
                )
            if deadline is not None and time.monotonic() > deadline:
                raise SimulationTimeout(
                    f"engine watchdog: run exceeded wall-clock limit of "
                    f"{self.wall_clock_limit:g}s after {self.rounds} "
                    "rounds\n" + self._describe_blocked(tiles),
                    snapshot=self._snapshot(tiles),
                )
            progress = False
            live = False
            for tile, entries in work:
                if tile.halted:
                    continue
                live = True
                pc = tile.pc
                entry = entries[pc]
                tile.pc = pc + entry.count
                start_cycle = tile.cycles
                if entry.fn is None:
                    cost = self._execute(tile, entry.instr)
                elif self._gate_quads(tile, entry.reads, entry.writes):
                    # A superop's external quads gate atomically; on
                    # completion its internal tracker handshakes are
                    # force-expired to their per-instruction end state.
                    entry.fn()
                    for trackers, addr, size in entry.expire:
                        trackers.expire(addr, size)
                    cost = entry.cost
                else:
                    cost = None
                if cost is None:
                    tile.pc = pc  # retry the blocked entry
                    tile.blocked = True
                    tile.cycles += 1  # stall cycle
                    tile.stalled_cycles += 1
                    tile.blocked_retries += 1
                    continue
                tile.blocked = False
                tile.cycles += cost
                tile.instructions_executed += entry.count
                progress = True
                if tel_on:
                    tag = entry.tag
                    tel.span(
                        tag.name, "engine.instr",
                        ("engine", f"tile {tile.tile_id}"),
                        start_cycle, cost,
                        round=self.rounds, **tag.args,
                        blocked_retries=tile.blocked_retries,
                    )
                    # Distribution metrics: per-instruction-class cycle
                    # costs, and tracker-block durations (each blocked
                    # retry is one stall cycle, so the retry count at
                    # the unblocking entry is the block duration).
                    tel.observe("engine.instr_cycles", tag.metric, cost)
                    if tag.dma:
                        tel.count(
                            f"tile/{tile.tile_id}", "dma_cycles", cost
                        )
                    if tile.blocked_retries:
                        tel.observe(
                            "engine.block_cycles", "tracker",
                            float(tile.blocked_retries),
                        )
                tile.blocked_retries = 0
                if self.trace_enabled and len(self.trace) < self.trace_limit:
                    self.trace.append((self.rounds, tile.tile_id, str(entry)))
            if not live:
                break
            if not progress:
                if not raise_on_deadlock:
                    break
                if tel_on:
                    self._flush_counters(tiles)
                raise SimulationError(
                    "deadlock: all live tiles blocked:\n"
                    + self._describe_blocked(tiles)
                )
        if tel_on:
            self._flush_counters(tiles)
        return RunReport(
            cycles=self.machine.total_cycles,
            instructions=self.machine.total_instructions,
            rounds=self.rounds,
            blocked_reads=sum(
                t.trackers.blocked_reads for t in self.machine.mem_tiles
            ),
            blocked_writes=sum(
                t.trackers.blocked_writes for t in self.machine.mem_tiles
            ),
            busy_cycles=self.machine.total_busy_cycles,
        )

    # ------------------------------------------------------------------
    # Diagnostics and telemetry flushing
    # ------------------------------------------------------------------
    def _snapshot(self, tiles: List[CompTile]) -> List[Dict[str, object]]:
        """Per-tile tracker state for :class:`SimulationTimeout`, sorted
        by tile id for deterministic diagnostics."""
        rows: List[Dict[str, object]] = []
        for tile in sorted(tiles, key=lambda t: t.tile_id):
            reason = self._block_reason.get(tile.tile_id)
            rows.append({
                "tile": tile.tile_id,
                "pc": tile.pc,
                "cycles": tile.cycles,
                "instructions": tile.instructions_executed,
                "halted": tile.halted,
                "blocked": tile.blocked,
                "reason": (
                    {
                        "kind": reason[0],
                        "port": reason[1],
                        "addr": reason[2],
                        "count": reason[3],
                        "phase": reason[4],
                    }
                    if reason is not None and tile.blocked else None
                ),
            })
        return rows

    def _describe_blocked(self, tiles: List[CompTile]) -> str:
        """Per-tile deadlock detail: the tracker phase and address range
        each blocked tile is waiting on.

        Sorted by tile id so identical machine states produce
        byte-identical diagnostics regardless of program-load or
        scheduling order."""
        lines = []
        for tile in sorted(tiles, key=lambda t: t.tile_id):
            if tile.halted or not tile.blocked:
                continue
            reason = self._block_reason.get(tile.tile_id)
            if reason is None:
                lines.append(f"  {tile.tile_id}: blocked (reason unknown)")
                continue
            kind, port, addr, count, phase = reason
            lines.append(
                f"  {tile.tile_id}: {kind} of mem tile {port} "
                f"[{addr}, {addr + count}) blocked by tracker in "
                f"{phase} phase after {tile.blocked_retries} retries"
            )
        return "\n".join(lines)

    def _observe_dma(self, tile_id: str, size: int) -> None:
        """One DMA transfer's telemetry: the per-tile byte counter (as a
        timestamped sample, so the Chrome trace plots a series) and the
        transfer-size distribution metric."""
        comp = self.machine.comp_tiles.get(tile_id)
        self.telemetry.count(
            f"tile/{tile_id}", "dma_bytes", 4 * size,
            ts=None if comp is None else comp.cycles,
        )
        self.telemetry.observe("engine.dma", "transfer_bytes", 4 * size)

    def _flush_counters(self, tiles: List[CompTile]) -> None:
        """Snapshot per-tile cycle counters into the telemetry registry.

        Uses ``record`` (not ``add``) so repeated runs on a persistent
        machine — the streaming ForwardRunner — stay consistent with the
        tiles' cumulative clocks."""
        tel = self.telemetry
        for tile in tiles:
            group = f"tile/{tile.tile_id}"
            tel.record(group, "busy_cycles", tile.busy_cycles)
            tel.record(group, "stalled_cycles", tile.stalled_cycles)
            tel.record(group, "total_cycles", tile.cycles)
            tel.record(group, "instructions", tile.instructions_executed)
        for mem in self.machine.mem_tiles:
            group = f"mem/{mem.tile_id}"
            tel.record(group, "blocked_reads", mem.trackers.blocked_reads)
            tel.record(group, "blocked_writes", mem.trackers.blocked_writes)
        if self.dma_flips:
            tel.record("engine", "dma_flips", self.dma_flips)
        tel.record("engine", "rounds", self.rounds)
        tel.record("engine", "total_cycles", self.machine.total_cycles)
        tel.record(
            "engine", "total_instructions", self.machine.total_instructions
        )
