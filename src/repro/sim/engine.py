"""Functional engine: executes ScaleDeep ISA programs with real data.

This is the instruction-level counterpart of the analytical model in
:mod:`repro.sim.perf`: compiled programs run on a machine of MemHeavy
scratchpads and CompHeavy tiles, with MEMTRACK data-flow trackers
enforcing the synchronization of Sec 3.2.4, and per-instruction cycle
costs derived from the tile micro-architecture.  Results are validated
against the numpy golden model.

Engine conventions (the compiler's code generator follows these):

* Each tile's program is decoded once into a flat op table of closures;
  :meth:`Engine._decode_data` is the one definition of what a data
  instruction reads, writes, computes and costs.  The generator
  resolves every address at compile time — the data flow of a DNN is
  static — so every compiled data instruction decodes up front.
  :meth:`Engine._execute` runs scalar control and decodes the other
  entries the table leaves undecoded when they issue: handwritten
  programs' register-indirect operands (Fig 13-style R-args), with the
  registers' values substituted, and malformed instructions, which
  raise :class:`SimulationError` there.
* ``port`` operands carry flattened MemHeavy tile ids
  (:meth:`Machine.mem_tile_id`); port ``EXTERNAL_PORT`` addresses the
  node's external memory.
* NDCONV/MATMUL/NDSUBSAMP sizes pack 2-D extents via
  :func:`repro.sim.machine.pack_shape`; DMA/tracker/vector sizes are
  raw word counts.
* Tiles issue round-robin, one entry per round.  An entry a tracker
  refuses (:func:`repro.sim.tracker.gate`) queues its tile on the
  tracker files it touches; the scheduler skips the tile until one of
  those files changes.  The accounting is the per-round retry's: when
  the tile is polled again, every round it skipped is charged in one
  step as a refused retry (one stall cycle, one blocked count on the
  obstructing file, one ``blocked.*`` telemetry instant).  If a whole
  round passes with every live tile blocked, the engine raises a
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
from repro.isa.instructions import (
    Instruction,
    InstrGroup,
    NUM_REGISTERS,
    OPERAND_NAMES,
    Opcode,
)
from repro.isa.program import Program
from repro.sim.machine import (
    CODE_TO_SAMP,
    SAMP_CODES,
    UPSAMP_MODES,
    UPSAMP_ZERO_INSERT,
    CompTile,
    Machine,
    MemTile,
    REG_OPERAND_MASK,
    check_code,
    check_stride,
    check_window,
    instruction_accesses,
    is_reg_operand,
    unpack_shape,
    zeroed_words,
)
from repro.sim.tracker import (
    AccessVerdict,
    TrackerFile,
    TrackerPhase,
    Waiter,
    gate,
    runs,
)
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


def _upsampled(o: Dict[str, int]) -> Tuple[int, int]:
    """The (height, width) an NDUPSAMP writes."""
    h, w = unpack_shape(o["in_size"])
    stride = o["stride"]
    if o["samp_type"] == UPSAMP_ZERO_INSERT:
        return (h - 1) * stride + 1, (w - 1) * stride + 1
    return h * stride, w * stride


def _check_external(what: str, addr: int, count: int, words: int) -> None:
    """External memory's bounds check, worded as a scratchpad's."""
    if addr < 0 or addr + count > words:
        raise SimulationError(
            f"external memory: {what} [{addr}, {addr + count}) out of "
            f"bounds ({words} words)"
        )


def _arm_port(instr: Instruction) -> int:
    """The mem tile a MEMTRACK or DMA_MEMTRACK arms its tracker on."""
    return instr.operand(
        "target" if instr.opcode is Opcode.DMA_MEMTRACK else "port"
    )


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

    A plain entry is one decoded instruction: everything static is
    resolved once per program — the gated address quads, grouped into
    the gate's runs of same-file quads (with each mem tile's TrackerFile
    already bound, and the distinct files in ``files``), the cycle cost,
    and a closure ``fn`` performing the instruction.  Entries the
    decoder leaves undecoded (``fn is None``) — scalar control,
    register-indirect operands, an instruction whose decode raises, a
    superop member — run through :meth:`Engine._execute` when they
    issue.

    A superop entry (``sup`` given) is a fused run of ``count``
    instructions placed at the run's first pc.  Its runs are the
    *external* tracker accesses to gate atomically, its ``fn`` ends by
    force-expiring the tracker ranges internal to the run (the exact end
    state of the handshakes it elides), and ``cost`` is pre-summed from
    the members' decoded per-instruction costs — so reports stay
    reconciled with per-instruction execution.
    """

    __slots__ = (
        "instr", "fn", "reads", "writes", "files", "cost", "count", "tag",
    )

    def __init__(
        self,
        instr: Optional[Instruction],
        fn=None,
        reads=(),
        writes=(),
        cost: int = 0,
        sup=None,
    ) -> None:
        self.instr = instr
        self.fn = fn
        self.reads = reads
        self.writes = writes
        self.files = (
            tuple({run[0]: None for run in reads + writes})
            if reads or writes else ()
        )
        self.cost = cost
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


class _Block(NamedTuple):
    """Why a tile's last poll was refused: the first refused quad."""

    trackers: TrackerFile  # the quad's
    kind: str  # "read" | "write"
    port: int
    addr: int
    count: int
    phase: TrackerPhase  # the obstructing tracker's


class _Slot(Waiter):
    """One tile's place in a run's round-robin: its op table, the last
    round it was polled in and, while it waits, why it was refused."""

    __slots__ = ("tile", "entries", "polled", "block")

    def __init__(self, tile: CompTile, entries: List[_Decoded]) -> None:
        super().__init__()
        self.tile = tile
        self.entries = entries
        self.polled = 0  # every run restarts its rounds at 1
        self.block: Optional[_Block] = None


def _rows(words: np.ndarray, addr: int, step: int, count: int, size: int):
    """``count`` rows of ``size`` words of ``words`` as one 2-D view: the
    first at ``addr``, each next one ``step`` words after the last."""
    windows = np.lib.stride_tricks.sliding_window_view(
        words, size, writeable=True
    )
    if count == 1:
        return windows[addr : addr + 1]
    if step == 0:  # a source read ``count`` times
        return np.broadcast_to(windows[addr], (count, size))
    return windows[addr::step][:count]


def _strided_runs(moves, memory) -> List[Tuple[int, int, int, int]]:
    """Split a ``load_run``'s moves — ``(src_port, src_addr, dst_port,
    dst_addr, size, accum)`` — into runs, in program order: ``(index of
    the first move, number of moves, source step, destination step)``.

    A run is a maximal sequence of moves with equal ports, size and
    accumulate flag whose source and destination addresses advance by
    constant steps.  Copying it in one numpy call equals copying its
    moves in order unless one move can see another's write, so a run
    whose destination rows overlap each other, or whose source rows
    overlap its destination rows in one memory (``memory(port)`` gives a
    port's words), is split into single moves.  A move outside its
    memory raises :class:`SimulationError`.
    """
    for src_port, src_addr, dst_port, dst_addr, size, _ in moves:
        for port, addr in ((src_port, src_addr), (dst_port, dst_addr)):
            words = memory(port)
            if size < 1 or addr < 0 or addr + size > words.size:
                raise SimulationError(
                    f"DMA of {size} words at {addr} outside port {port}'s "
                    f"{words.size} words"
                )
    runs = []
    i, n = 0, len(moves)
    while i < n:
        src_port, src_addr, dst_port, dst_addr, size, accum = moves[i]
        j = i + 1
        if j < n:
            src_step = moves[j][1] - src_addr
            dst_step = moves[j][3] - dst_addr
            while j < n and tuple(moves[j]) == (
                src_port, src_addr + (j - i) * src_step,
                dst_port, dst_addr + (j - i) * dst_step, size, accum,
            ):
                j += 1
        count = j - i
        if count > 1 and abs(dst_step) >= size and not (
            memory(src_port) is memory(dst_port) and _spans_meet(
                src_addr, src_step, dst_addr, dst_step, count, size
            )
        ):
            runs.append((i, count, src_step, dst_step))
        else:
            runs.extend((k, 1, 0, 0) for k in range(i, j))
        i = j
    return runs


def _spans_meet(
    src: int, src_step: int, dst: int, dst_step: int, count: int, size: int
) -> bool:
    """Whether ``count`` rows of ``size`` words from ``src``, ``src_step``
    apart, span words that ``count`` rows from ``dst`` also span."""
    src_last = src + (count - 1) * src_step
    dst_last = dst + (count - 1) * dst_step
    return (
        min(src, src_last) < max(dst, dst_last) + size
        and min(dst, dst_last) < max(src, src_last) + size
    )


def _observe_dma(tel, comp: Optional[CompTile], tile_id: str, size: int):
    """One DMA transfer's telemetry: the per-tile byte counter (as a
    timestamped sample at ``comp``'s clock, so the Chrome trace plots a
    series) and the transfer-size distribution metric."""
    tel.count(
        f"tile/{tile_id}", "dma_bytes", 4 * size,
        ts=None if comp is None else comp.cycles,
    )
    tel.observe("engine.dma", "transfer_bytes", 4 * size)


class _Shared:
    """What an engine's decoded closures and tracker hooks share with
    it: the round counter, telemetry and the DMA fault stream.  They
    hold this, never the engine, so a dropped engine and its machine
    are freed by reference counting, without the cyclic GC."""

    __slots__ = (
        "rounds", "telemetry", "tel_on", "flip_rate", "rng", "flips",
    )

    def __init__(self, telemetry, flip_rate: float, seed) -> None:
        self.rounds = 0
        self.telemetry = telemetry
        self.tel_on = telemetry.enabled
        self.flip_rate = flip_rate
        #: Flips are drawn from a named RNG stream so a given seed
        #: corrupts the same transfers in every run.
        self.rng = random.Random(f"scaledeep-dma:{seed}")
        self.flips = 0

    def dma_payload(self, data: np.ndarray, tile_id: str) -> np.ndarray:
        """Copy a DMA transfer's words, injecting a sign-bit flip on one
        word when a dma-bitflip fault fires for this transfer."""
        out = np.array(data, dtype=np.float32)
        if (
            self.flip_rate
            and out.size
            and self.rng.random() < self.flip_rate
        ):
            flat = out.reshape(-1)
            index = self.rng.randrange(flat.size)
            flat[index] = -flat[index]
            self.flips += 1
            if self.tel_on:
                self.telemetry.instant(
                    "fault.dma_flip", "faults", ("faults", "dma-bitflip"),
                    self.rounds, tile=tile_id, index=index,
                )
                self.telemetry.count("faults", "dma_flips")
        return out


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
        fused: bool = False,
    ) -> None:
        self.machine = machine
        self.external = zeroed_words(external_words)
        self.max_rounds = max_rounds
        #: Superop execution: honour the compiler's fusion plans
        #: (``Program.superops``) by executing whole fused runs per
        #: dispatch; otherwise the op table holds one entry per
        #: instruction.  Silently ignored under dma-bitflip faults
        #: (per-transfer semantics).  Outputs, ``instructions`` and
        #: ``busy_cycles`` stay bit-identical to per-instruction
        #: execution.
        self.fused = fused
        self._decoded: Dict[str, List[_Decoded]] = {}
        #: Watchdog: seconds of host wall-clock a run() may take before
        #: it is killed with a :class:`SimulationTimeout` (None = no
        #: limit; the ``max_rounds`` cycle budget always applies).
        self.wall_clock_limit = wall_clock_limit
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
        #: DMA bit-flip faults: a :class:`repro.faults.model.FaultMask`
        #: (duck-typed — ``dma_flip_rate`` and ``spec.seed`` suffice).
        self._shared = _Shared(
            self.telemetry,
            float(getattr(faults, "dma_flip_rate", 0.0) or 0.0),
            getattr(getattr(faults, "spec", None), "seed", 0),
        )
        #: Last tracker obstruction per tile: (kind, port, addr, count,
        #: phase) — feeds the deadlock diagnostic and telemetry.
        self._block_reason: Dict[str, Tuple[str, int, int, int, str]] = {}
        # (Re)wire the per-MemTile tracker hooks: enabled engines see
        # arm/block/expire events, disabled engines restore the no-op.
        for mem in machine.mem_tiles:
            mem.trackers.emit = (
                self._tracker_emitter(mem.tile_id) if self._tel_on else None
            )

    @property
    def rounds(self) -> int:
        """Scheduler rounds of the current (or last) run."""
        return self._shared.rounds

    @rounds.setter
    def rounds(self, value: int) -> None:
        self._shared.rounds = value

    @property
    def dma_flips(self) -> int:
        """DMA transfers a dma-bitflip fault has corrupted so far."""
        return self._shared.flips

    def _tracker_emitter(self, mem_tile_id: int):
        shared = self._shared
        tel = shared.telemetry

        def emit(event: str, start: int, size: int, phase: str) -> None:
            tel.instant(
                f"tracker.{event}", "engine.tracker",
                ("engine/trackers", f"mem {mem_tile_id}"), shared.rounds,
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

    def _runs(self, accesses) -> tuple:
        """``(port, addr, count)`` accesses as the gate's runs
        (:func:`repro.sim.tracker.runs`) of quads, each with its mem
        tile's TrackerFile bound.  External memory has no trackers, so
        its accesses drop out."""
        return runs(tuple(
            (self.machine.mem_tile(port).trackers, port, addr, count)
            for port, addr, count in accesses
            if port != EXTERNAL_PORT
        ))

    def _gate(self, slot: _Slot, entry: _Decoded) -> bool:
        """Gate ``entry``'s runs with :func:`repro.sim.tracker.gate`:
        tracker counts are consumed only if every quad is allowed.
        Returns True when the entry may proceed.  A refusal records on
        ``slot`` *why* its tile is blocked (the obstructing port, address
        range and tracker phase) — for the charge of the rounds the tile
        then sleeps through (:meth:`_charge`), the deadlock diagnostic
        and, when enabled, telemetry.  :func:`~repro.sim.tracker.gate`
        argues why the sleeping tile would have been refused, on the
        same quad, in every round it skips."""
        refused = gate(entry.reads, entry.writes)
        if refused is None:
            return True
        kind, (trackers, port, addr, count), tracker = refused
        block = _Block(trackers, kind, port, addr, count, tracker.phase)
        slot.block = block
        self._block_reason[slot.tile.tile_id] = (
            kind, port, addr, count, block.phase.value
        )
        self._block_instants(slot.tile, block, 1)
        return False

    def _charge(self, slot: _Slot, rounds: int) -> None:
        """Charge ``slot``'s tile the ``rounds`` rounds it slept through
        queued, each as the refused retry the round-robin would have
        polled: one stall cycle, one blocked retry, one blocked count on
        the refusing quad's file and one telemetry instant."""
        tile, block = slot.tile, slot.block
        if block.kind == "read":
            block.trackers.blocked_reads += rounds
        else:
            block.trackers.blocked_writes += rounds
        self._block_instants(tile, block, rounds)
        tile.cycles += rounds
        tile.stalled_cycles += rounds
        tile.blocked_retries += rounds

    def _charge_queued(self, slots: List[_Slot], through: int) -> None:
        """Charge every live slot in ``slots`` up to round ``through``."""
        for slot in slots:
            if not slot.tile.halted and slot.polled < through:
                self._charge(slot, through - slot.polled)
                slot.polled = through

    def _block_instants(self, comp: CompTile, block: _Block, rounds: int):
        """One ``blocked.*`` telemetry instant for each of ``rounds``
        refused retries, a stall cycle apart from ``comp``'s clock on."""
        if self._tel_on:
            for cycle in range(comp.cycles, comp.cycles + rounds):
                self.telemetry.instant(
                    f"blocked.{block.kind}", "engine.block",
                    ("engine", f"tile {comp.tile_id}"), cycle,
                    port=block.port,
                    addr_range=[block.addr, block.addr + block.count],
                    phase=block.phase.value,
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

    def _dma_cycles(self, words: int, src_port: int, dst_port: int) -> int:
        chip = self.machine.chip
        if EXTERNAL_PORT in (src_port, dst_port):
            bpc = chip.links.external_memory / 600e6
            hops = 1
        else:
            bpc = chip.links.mem_mem / 600e6
            hops = max(1, self.machine.hops(src_port, dst_port))
        return _SETUP_DMA + math.ceil(4 * words / bpc) * hops

    def _cost(self, op: Opcode, o: Dict[str, int]) -> int:
        """The cycle cost of one data instruction, from its opcode and
        immediate operands: decoded entries carry it, and superops
        pre-sum it over their members, so fused and per-instruction
        reports reconcile exactly."""
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
        if op is Opcode.NDSUBSAMP:
            h, w = unpack_shape(o["in_size"])
            return self._offload_cycles(h * w)
        if op is Opcode.NDUPSAMP:
            out_h, out_w = _upsampled(o)
            return self._offload_cycles(out_h * out_w)
        if op in (
            Opcode.NDACTFN, Opcode.NDACTBP, Opcode.NDACCUM, Opcode.VECMUL,
            Opcode.WUPDATE,
        ):
            return self._offload_cycles(o["size"])
        if op in (Opcode.DMALOAD, Opcode.DMASTORE):
            return self._dma_cycles(o["size"], o["src_port"], o["dst_port"])
        if op is Opcode.PREFETCH:
            return self._dma_cycles(o["size"], EXTERNAL_PORT, o["dst_port"])
        if op in (Opcode.PASSBUFF_RD, Opcode.PASSBUFF_WR):
            # Streaming FIFO setup: data moves with the consuming compute
            # instruction; only the handshake costs cycles here.
            return 2
        raise SimulationError(f"{op.value} is not a data instruction")

    # ------------------------------------------------------------------
    # Issue of undecoded entries
    # ------------------------------------------------------------------
    def _execute(
        self, tile: CompTile, instr: Instruction
    ) -> Optional[_Decoded]:
        """Issue an entry the op table left undecoded.  Scalar control
        executes here (one cycle) and returns None.  Anything else is
        decoded now, with register operands replaced by the registers'
        values, by the code that builds the op table, and returned for
        :meth:`run` to gate and run like any decoded entry.  A malformed
        instruction raises from that decode."""
        op = instr.opcode
        if instr.group is not InstrGroup.SCALAR:
            return self._decode(self._resolve(tile, instr), tile.tile_id)
        o = instr.named_operands()
        if op is Opcode.LDRI:
            tile.set_reg(o["rd"], o["value"])
        elif op is Opcode.MOVR:
            tile.set_reg(o["rd"], tile.reg(o["rs"]))
        elif op is Opcode.ADDR:
            tile.set_reg(o["rd"], tile.reg(o["rs1"]) + tile.reg(o["rs2"]))
        elif op is Opcode.ADDRI:
            tile.set_reg(o["rd"], tile.reg(o["rs"]) + o["value"])
        elif op is Opcode.SUBR:
            tile.set_reg(o["rd"], tile.reg(o["rs1"]) - tile.reg(o["rs2"]))
        elif op is Opcode.SUBRI:
            tile.set_reg(o["rd"], tile.reg(o["rs"]) - o["value"])
        elif op is Opcode.MULR:
            tile.set_reg(o["rd"], tile.reg(o["rs1"]) * tile.reg(o["rs2"]))
        elif op in (Opcode.BEQZ, Opcode.BNEZ, Opcode.BGTZ):
            value = tile.reg(o["rs"])
            taken = (
                value == 0 if op is Opcode.BEQZ
                else value != 0 if op is Opcode.BNEZ
                else value > 0
            )
            if taken:
                tile.pc += o["offset"]
        elif op is Opcode.BRANCH:
            tile.pc += o["offset"]
        elif op is Opcode.HALT:
            tile.halted = True
        return None

    @staticmethod
    def _resolve(tile: CompTile, instr: Instruction) -> Instruction:
        """``instr`` with each register operand (Fig 13-style R-arg)
        replaced by the value its register holds now."""
        operands = []
        for name, value in zip(OPERAND_NAMES[instr.opcode], instr.operands):
            if is_reg_operand(value):
                index = value & REG_OPERAND_MASK
                if index >= NUM_REGISTERS:
                    raise SimulationError(
                        f"{instr.opcode.value} {name}={value}: register "
                        f"r{index} out of range (r0-r{NUM_REGISTERS - 1})"
                    )
                value = tile.reg(index)
            operands.append(value)
        return Instruction(instr.opcode, tuple(operands), instr.comment)

    # ------------------------------------------------------------------
    # Decode: one op table per tile
    # ------------------------------------------------------------------
    def _reader(self, port: int):
        """A bound ``(addr, count) -> words`` reader for ``port``."""
        tile = self._tile(port)
        if tile is None:
            ext = self.external

            def read_external(addr: int, count: int) -> np.ndarray:
                _check_external("read", addr, count, ext.size)
                return ext[addr : addr + count]

            return read_external
        return tile.read

    def _writer(self, port: int):
        """A bound ``(addr, data, accumulate)`` writer for ``port``."""
        tile = self._tile(port)
        if tile is None:
            ext = self.external

            def write_external(
                addr: int, data: np.ndarray, accumulate: bool
            ) -> None:
                flat = data.reshape(-1).astype(np.float32, copy=False)
                _check_external("write", addr, flat.size, ext.size)
                if accumulate:
                    ext[addr : addr + flat.size] += flat
                else:
                    ext[addr : addr + flat.size] = flat

            return write_external
        return tile.write

    def _words(self, port: int) -> np.ndarray:
        """The words ``port`` addresses."""
        tile = self._tile(port)
        return self.external if tile is None else tile.words

    def _decode_program(self, tile: CompTile) -> List[_Decoded]:
        cached = self._decoded.get(tile.tile_id)
        if cached is not None and len(cached) == len(tile.program):
            return cached
        entries = None
        if (
            self.fused
            and not self._shared.flip_rate
            and getattr(tile.program, "superops", ())
        ):
            entries = self._decode_fused(tile)
        if entries is None:
            entries = [
                self._decode_instr(instr, tile.tile_id)
                for instr in tile.program.instructions
            ]
        self._decoded[tile.tile_id] = entries
        return entries

    def _decode_fused(self, tile: CompTile) -> Optional[List[_Decoded]]:
        """Build the fused op table: one superop entry per superop at
        its first pc, undecoded sentinels at the member pcs it jumps
        over (never dispatched; :meth:`_execute` decodes one if a jump
        ever reaches it), and the normal full decode everywhere else.
        Returns None when a superop doesn't validate against this
        program — the caller falls back to the per-instruction table,
        and the refusal is counted in ``engine.fallback`` as
        ``superop.<kind>:<error type>``."""
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

    def _build_super(self, sup, instrs, tile: CompTile) -> _Decoded:
        cost = sum(
            self._cost(instr.opcode, instr.named_operands())
            for instr in instrs[sup.start:sup.end]
        )
        reads = self._runs(sup.external_reads)
        writes = self._runs(sup.external_writes)
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
        kernel = builder(params, tile.tile_id)

        def superop() -> None:
            kernel()
            # Jump the run's internal tracker handshakes to their
            # per-instruction end state.
            for trackers, addr, size in expire:
                trackers.expire(addr, size)

        return _Decoded(
            None, fn=superop if expire else kernel, reads=reads,
            writes=writes, cost=cost, sup=sup,
        )

    def _super_load_run(self, params: dict, tile_id: str):
        moves = params["dmas"]
        runs = []
        for first, count, src_step, dst_step in _strided_runs(
            moves, self._words
        ):
            src_port, src_addr, dst_port, dst_addr, size, accum = moves[first]
            runs.append((
                _rows(self._words(src_port), src_addr, src_step, count, size),
                _rows(self._words(dst_port), dst_addr, dst_step, count, size),
                bool(accum),
            ))
        sizes = [move[4] for move in moves]
        tel = self.telemetry if self._tel_on else None
        comp = self.machine.comp_tiles.get(tile_id)

        def load_run() -> None:
            # No dma_payload: fused decode refuses dma-flip faults.
            for src, dst, accum in runs:
                if accum:
                    np.add(dst, src, out=dst)
                else:
                    np.copyto(dst, src)
            if tel is not None:
                for size in sizes:
                    _observe_dma(tel, comp, tile_id, size)

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
        """Each group's pooling windows are one view over its source
        words, built here with a max reduce's gather grid: scratchpads
        and external memory persist, so a call only reduces.  A group
        outside its memory, or whose window does not fit its plane,
        raises :class:`SimulationError`."""
        calls = []
        for (port, in_addr, count, h, w, window, stride, samp, out_port,
             out_addr) in params["groups"]:
            mode = CODE_TO_SAMP[samp]
            check_stride("NDSUBSAMP", stride)
            check_window(
                "NDSUBSAMP", window, min(h, w), f"to fit its {h}x{w} plane"
            )
            words = self._words(port)
            end = in_addr + count * h * w
            if in_addr < 0 or end > words.size:
                raise SimulationError(
                    f"pool_run on {tile_id} reads words [{in_addr}, {end}) "
                    f"outside port {port}'s {words.size} words"
                )
            planes = words[in_addr:end].reshape(count, h, w)
            windows = ops.pool_windows(planes, window, stride)
            grid = ops.pool_grid(windows) if mode is PoolMode.MAX else None
            calls.append((
                windows, mode, grid, self._writer(out_port), out_addr,
            ))

        def pool_run() -> None:
            for windows, mode, grid, wr, out_addr in calls:
                out, _ = ops.pool_reduce(windows, mode, grid)
                wr(out_addr, out, False)

        return pool_run

    def _note_fallback(self, what: str, reason: str) -> None:
        """Count one entry the decoder refused, keyed by what was
        refused (an opcode or ``superop.<kind>``) and why."""
        if self._tel_on:
            self.telemetry.count("engine.fallback", f"{what}:{reason}")

    def _decode_instr(self, instr: Instruction, tile_id: str) -> _Decoded:
        """The op-table entry of one instruction.

        Scalar control, register-indirect operands (Fig 13-style
        R-operands resolve at issue) and instructions whose decode
        raises :class:`SimulationError` stay undecoded: each refusal is
        counted per opcode and reason, and :meth:`_execute` handles the
        entry when it issues — so a malformed instruction raises then.
        Any other exception is an engine bug and surfaces here."""
        if instr.group is InstrGroup.SCALAR:
            reason = "scalar-control"
        elif any(is_reg_operand(v) for v in instr.operands):
            reason = "register-indirect"
        else:
            try:
                return self._decode(instr, tile_id)
            except SimulationError as exc:
                # A tracker decode fails only on its port.
                if instr.group is not InstrGroup.TRACK:
                    reason = f"decode-error:{type(exc).__name__}"
                elif _arm_port(instr) == EXTERNAL_PORT:
                    reason = "external-port"
                else:
                    reason = "out-of-mesh-port"
        self._note_fallback(instr.opcode.value, reason)
        return _Decoded(instr)

    def _decode(self, instr: Instruction, tile_id: str) -> _Decoded:
        """Decode one non-scalar instruction with immediate operands;
        raises :class:`SimulationError` when it cannot execute."""
        if instr.group is not InstrGroup.TRACK:
            return self._decode_data(instr, tile_id)
        port = _arm_port(instr)
        if port == EXTERNAL_PORT:
            raise SimulationError("cannot arm a tracker on external memory")
        trackers = self.machine.mem_tile(port).trackers
        o = instr.named_operands()
        addr, size = o["addr"], o["size"]
        num_updates, num_reads = o["num_updates"], o["num_reads"]

        def arm() -> None:
            trackers.arm(addr, size, num_updates, num_reads)

        return _Decoded(instr, fn=arm, cost=1)

    def _decode_data(self, instr: Instruction, tile_id: str) -> _Decoded:
        """Decode one data instruction into a :class:`_Decoded` entry.

        The engine's one definition of what a data instruction reads and
        writes (:func:`instruction_accesses`, gated), computes (the
        closure built here, with all operand parsing hoisted out of it)
        and costs (:meth:`_cost`).  Operands it cannot execute raise
        :class:`SimulationError` naming the opcode and operand.
        """
        op = instr.opcode
        o = instr.named_operands()
        reads, writes = instruction_accesses(instr)  # refuses bad shapes

        def entry(fn) -> _Decoded:
            return _Decoded(
                instr, fn=fn, reads=self._runs(reads),
                writes=self._runs(writes), cost=self._cost(op, o),
            )

        if op is Opcode.NDCONV:
            h, w = unpack_shape(o["in_size"])
            k, _ = unpack_shape(o["kernel_size"])
            stride, pad = o["stride"], o["pad"]
            in_addr, kernel_addr = o["in_addr"], o["kernel_addr"]
            out_addr, accum = o["out_addr"], bool(o["is_accum"])
            rd = self._reader(o["in_port"])
            wr = self._writer(o["out_port"])
            zero_bias = np.zeros(1, dtype=np.float32)

            def conv() -> None:
                x = rd(in_addr, h * w)
                kern = rd(kernel_addr, k * k)
                out = ops.conv2d_forward(
                    x.reshape(1, h, w), kern.reshape(1, 1, k, k),
                    zero_bias, stride, pad,
                )
                wr(out_addr, out, accum)

            return entry(conv)

        if op is Opcode.MATMUL:
            rows, cols = unpack_shape(o["in2_size"])
            _, n = unpack_shape(o["in1_size"])
            if n != cols:
                raise SimulationError(
                    f"MATMUL shape mismatch: vector {n} vs matrix "
                    f"{rows}x{cols}"
                )
            in1_addr, in2_addr = o["in1_addr"], o["in2_addr"]
            out_addr, accum = o["out_addr"], bool(o["is_accum"])
            rd_vec = self._reader(o["in1_port"])
            rd_mat = self._reader(o["in2_port"])
            wr = self._writer(o["out_port"])

            def matmul() -> None:
                vec = rd_vec(in1_addr, n)
                mat = rd_mat(in2_addr, rows * cols).reshape(rows, cols)
                wr(out_addr, mat @ vec, accum)

            return entry(matmul)

        if op is Opcode.NDACTFN:
            fn_act = check_code(
                op, o, "fn_type", _CODE_TO_ACT, "an activation"
            )
            size, in_addr, out_addr = o["size"], o["in_addr"], o["out_addr"]
            rd = self._reader(o["port"])
            wr = self._writer(o["out_port"])

            def actfn() -> None:
                data = rd(in_addr, size)
                wr(out_addr, ops.activate(data.copy(), fn_act), False)

            return entry(actfn)

        if op is Opcode.NDACTBP:
            # Mask a back-propagated error with the activation derivative:
            # reads the raw error at err_addr and the *activated outputs*
            # at act_addr (packed into the high bits of fn_type's
            # companion operand would not fit Fig 8, so the convention is
            # act values live at err_addr + size), writing the masked
            # error to out_addr.
            fn_act = check_code(
                op, o, "fn_type", _CODE_TO_ACT, "an activation"
            )
            size, err_addr, out_addr = o["size"], o["err_addr"], o["out_addr"]
            act_addr = err_addr + size
            rd = self._reader(o["port"])
            wr = self._writer(o["out_port"])

            def actbp() -> None:
                err = rd(err_addr, size)
                act = rd(act_addr, size)
                wr(
                    out_addr,
                    ops.activate_backward(err.copy(), act, fn_act), False,
                )

            return entry(actbp)

        if op is Opcode.NDSUBSAMP:
            mode = check_code(op, o, "samp_type", CODE_TO_SAMP, "a sampling")
            h, w = unpack_shape(o["in_size"])
            window, stride = o["window"], o["stride"]
            in_addr, out_addr = o["in_addr"], o["out_addr"]
            rd = self._reader(o["port"])
            wr = self._writer(o["out_port"])

            def subsamp() -> None:
                x = rd(in_addr, h * w)
                out, _ = ops.pool_forward(
                    x.reshape(1, h, w), window, stride, 0, mode
                )
                wr(out_addr, out, False)

            return entry(subsamp)

        if op is Opcode.NDUPSAMP:
            mode = check_code(
                op, o, "samp_type", UPSAMP_MODES, "an up-sampling"
            )
            h, w = unpack_shape(o["in_size"])  # error extent (small side)
            out_h, out_w = _upsampled(o)
            window, stride = o["window"], o["stride"]
            in_addr, out_addr = o["in_addr"], o["out_addr"]
            rd = self._reader(o["port"])
            wr = self._writer(o["out_port"])
            if mode is None:

                def upsamp() -> None:
                    err = rd(in_addr, h * w).reshape(1, h, w)
                    up = np.zeros((1, out_h, out_w), dtype=np.float32)
                    up[0, ::stride, ::stride] = err[0]
                    wr(out_addr, up, False)

            elif mode is PoolMode.MAX:
                # The original pooled feature sits next to the error
                # (NDACTBP-style adjacency): recompute the argmax and
                # route each error to its window's maximum.
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

            else:  # AVG spread

                def upsamp() -> None:
                    err = rd(in_addr, h * w).reshape(1, h, w)
                    up = ops.pool_backward(
                        err.copy(), (1, out_h, out_w), window, stride, 0,
                        PoolMode.AVG, np.empty(0),
                    )
                    wr(out_addr, up, False)

            return entry(upsamp)

        if op is Opcode.NDACCUM:
            size, src_addr, dst_addr = o["size"], o["src_addr"], o["dst_addr"]
            rd = self._reader(o["port"])
            wr = self._writer(o["port"])

            def accum() -> None:
                wr(dst_addr, rd(src_addr, size), True)

            return entry(accum)

        if op is Opcode.VECMUL:
            size, out_addr = o["size"], o["out_addr"]
            in1_addr, in2_addr = o["in1_addr"], o["in2_addr"]
            rd = self._reader(o["port"])
            wr = self._writer(o["port"])

            def vecmul() -> None:
                wr(out_addr, rd(in1_addr, size) * rd(in2_addr, size), False)

            return entry(vecmul)

        if op is Opcode.WUPDATE:
            # Apply-and-consume: the gradient region is cleared after the
            # update so the next iteration's WG accumulation starts fresh.
            if o["lr_denom"] == 0:
                raise SimulationError(
                    "WUPDATE lr_denom=0: the learning rate divides by it"
                )
            size = o["size"]
            grad_addr, weight_addr = o["grad_addr"], o["weight_addr"]
            lr = o["lr_num"] / o["lr_denom"]
            rd = self._reader(o["port"])
            wr = self._writer(o["port"])
            zeros = np.zeros(size, dtype=np.float32)

            def wupdate() -> None:
                grad = rd(grad_addr, size).copy()
                wr(weight_addr, -lr * grad, True)
                wr(grad_addr, zeros, False)

            return entry(wupdate)

        if op in (Opcode.DMALOAD, Opcode.DMASTORE):
            size, src_addr, dst_addr = o["size"], o["src_addr"], o["dst_addr"]
            accum = bool(o["is_accum"])
            rd = self._reader(o["src_port"])
            wr = self._writer(o["dst_port"])
            payload = self._shared.dma_payload
            tel = self.telemetry if self._tel_on else None
            comp = self.machine.comp_tiles.get(tile_id)

            def dma() -> None:
                data = rd(src_addr, size)
                wr(dst_addr, payload(data, tile_id), accum)
                if tel is not None:
                    _observe_dma(tel, comp, tile_id, size)

            return entry(dma)

        if op in (Opcode.PASSBUFF_RD, Opcode.PASSBUFF_WR):
            return entry(lambda: None)  # handshake only

        if op is Opcode.PREFETCH:
            size, src_addr, dst_addr = o["size"], o["src_addr"], o["dst_addr"]
            rd = self._reader(EXTERNAL_PORT)
            wr = self._writer(o["dst_port"])
            payload = self._shared.dma_payload
            tel = self.telemetry if self._tel_on else None
            comp = self.machine.comp_tiles.get(tile_id)

            def prefetch() -> None:
                data = rd(src_addr, size)
                wr(dst_addr, payload(data, tile_id), False)
                if tel is not None:
                    _observe_dma(tel, comp, tile_id, size)

            return entry(prefetch)

        raise SimulationError(f"{op.value} is not a data instruction")

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
        shared = self._shared
        shared.rounds = 0
        tel = self.telemetry
        tel_on = self._tel_on
        deadline = (
            time.monotonic() + self.wall_clock_limit
            if self.wall_clock_limit is not None else None
        )
        # One flat op table per tile, indexed by pc in lockstep with the
        # program (same list semantics); see _decode_program.
        slots = [_Slot(t, self._decode_program(t)) for t in tiles]
        slot = None  # the slot issuing, while one is
        try:
            while True:
                shared.rounds += 1
                rounds = shared.rounds
                if rounds > self.max_rounds:
                    self._charge_queued(slots, rounds - 1)
                    raise SimulationTimeout(
                        f"engine exceeded {self.max_rounds} rounds; likely "
                        "livelock (watchdog cycle budget)\n"
                        + self._describe_blocked(tiles),
                        snapshot=self._snapshot(tiles),
                    )
                if deadline is not None and time.monotonic() > deadline:
                    self._charge_queued(slots, rounds - 1)
                    raise SimulationTimeout(
                        f"engine watchdog: run exceeded wall-clock limit of "
                        f"{self.wall_clock_limit:g}s after {rounds} "
                        "rounds\n" + self._describe_blocked(tiles),
                        snapshot=self._snapshot(tiles),
                    )
                progress = False
                live = False
                for slot in slots:
                    tile = slot.tile
                    if tile.halted:
                        continue
                    live = True
                    if slot.asleep:
                        continue
                    if slot.polled < rounds - 1:  # woken: charge its sleep
                        self._charge(slot, rounds - 1 - slot.polled)
                    slot.polled = rounds
                    pc = tile.pc
                    entry = slot.entries[pc]
                    tile.pc = pc + entry.count
                    start_cycle = tile.cycles
                    op = (
                        entry if entry.fn is not None
                        else self._execute(tile, entry.instr)
                    )
                    if op is None:
                        cost = 1  # scalar control, run by _execute
                    elif op.files and not self._gate(slot, op):
                        tile.pc = pc  # queued until a file it touches changes
                        tile.blocked = True
                        tile.cycles += 1  # stall cycle
                        tile.stalled_cycles += 1
                        tile.blocked_retries += 1
                        slot.wait(op.files)
                        continue
                    else:
                        op.fn()
                        cost = op.cost
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
                            round=rounds, **tag.args,
                            blocked_retries=tile.blocked_retries,
                        )
                        # Distribution metrics: per-instruction-class
                        # cycle costs, and tracker-block durations (each
                        # blocked retry is one stall cycle, so the retry
                        # count at the unblocking entry is the block
                        # duration).
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
                    if (
                        self.trace_enabled
                        and len(self.trace) < self.trace_limit
                    ):
                        self.trace.append((rounds, tile.tile_id, str(entry)))
                slot = None
                if not live:
                    break
                if not progress:
                    self._charge_queued(slots, rounds)
                    if not raise_on_deadlock:
                        break
                    if tel_on:
                        self._flush_counters(tiles)
                    raise SimulationError(
                        "deadlock: all live tiles blocked:\n"
                        + self._describe_blocked(tiles)
                    )
        except BaseException:
            if slot is not None:  # raised by slot's issue, mid-round
                i = slots.index(slot)
                self._charge_queued(slots[:i], self.rounds)
                self._charge_queued(slots[i + 1:], self.rounds - 1)
            raise
        finally:
            for slot in slots:
                if slot.asleep:
                    slot.cancel()
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
