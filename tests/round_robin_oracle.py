"""The engine's scheduler before queued waiters, kept as a test oracle.

Until the gate learned to queue a refused tile on the tracker files it
touched, every blocked tile retried its entry every scheduler round,
each retry peeking the trackers through ``TrackerFile.read_blocked`` /
``write_blocked`` and charging one stall cycle.  :class:`RetryingEngine`
is that engine: its round loop (``run``), ``_gate``, ``_note_block``
and ``_execute`` are kept verbatim, and the deleted peeks are copied
below as functions.  The only edits are the binding of a gate quad, which
now carries its mem tile's TrackerFile (and external accesses drop out
at decode) instead of the MemTile, the quads' source (an entry now
holds them grouped into the gate's runs, and :func:`quads` flattens
them back), a superop's force-expire, which its ``fn`` now runs, and
the two lines that appended to the engine's execution trace, which is
gone (the ``engine.instr`` spans record the same order).
"""

from __future__ import annotations

import time
from typing import Optional

from repro.errors import SimulationError, SimulationTimeout
from repro.isa.instructions import Instruction, InstrGroup, Opcode
from repro.sim.engine import Engine, RunReport
from repro.sim.machine import CompTile
from repro.sim.tracker import AccessVerdict, TrackerFile, TrackerPhase


def quads(runs) -> list:
    """The quads of an entry's gate runs, in order."""
    return [quad for run in runs for quad in run[3]]


def read_blocked(trackers: TrackerFile, start: int, size: int) -> bool:
    """Peek: would a read of [start, start+size) block right now?

    Counts a blocked read when it would — the engine's gate peeks
    every access of an instruction before consuming any, so a
    blocked companion access must not advance tracker counts."""
    tracker = trackers._matching(start, size)
    if tracker is not None and tracker.phase is TrackerPhase.UPDATING:
        trackers.blocked_reads += 1
        return True
    return False


def write_blocked(trackers: TrackerFile, start: int, size: int) -> bool:
    """Peek: would a write to [start, start+size) block right now?
    Counts a blocked write when it would (see :func:`read_blocked`)."""
    tracker = trackers._matching(start, size)
    if tracker is not None and tracker.phase is TrackerPhase.READABLE:
        trackers.blocked_writes += 1
        return True
    return False


class RetryingEngine(Engine):
    """Every blocked tile retries its entry every round."""

    def _gate(self, comp: CompTile, reads, writes) -> bool:
        """Check every ``(trackers, port, addr, count)`` quad; consume
        tracker counts only if ALL are allowed.  Returns True when the
        entry may proceed.  A refusal records *why* ``comp`` is blocked
        (the obstructing port, address range and tracker phase) for the
        deadlock diagnostic and, when enabled, telemetry."""
        # Peek first: a blocked companion access must not consume counts.
        for trackers, port, addr, count in reads:
            if read_blocked(trackers, addr, count):
                self._note_block(
                    comp, "read", port, addr, count, TrackerPhase.UPDATING
                )
                return False
        for trackers, port, addr, count in writes:
            if write_blocked(trackers, addr, count):
                self._note_block(
                    comp, "write", port, addr, count, TrackerPhase.READABLE
                )
                return False
        # All clear: consume.
        for trackers, _port, addr, count in reads:
            verdict = trackers.check_read(addr, count)
            assert verdict is AccessVerdict.ALLOW
        for trackers, _port, addr, count in writes:
            verdict = trackers.check_write(addr, count)
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

    def _execute(self, tile: CompTile, instr: Instruction) -> Optional[int]:
        """Run an entry the op table left undecoded.  Scalar control
        executes here.  Anything else is decoded now, with register
        operands replaced by the registers' values, by the code that
        builds the op table; then it is gated and run like any decoded
        entry.  A malformed instruction raises from that decode."""
        op = instr.opcode
        if instr.group is not InstrGroup.SCALAR:
            entry = self._decode(self._resolve(tile, instr), tile.tile_id)
            if not self._gate(tile, quads(entry.reads), quads(entry.writes)):
                return None
            entry.fn()
            return entry.cost
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
        return 1

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
                elif self._gate(
                    tile, quads(entry.reads), quads(entry.writes)
                ):
                    # A superop's external quads gate atomically; on
                    # completion its internal tracker handshakes are
                    # force-expired to their per-instruction end state.
                    entry.fn()
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
