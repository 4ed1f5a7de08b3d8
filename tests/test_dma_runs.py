"""Strided DMA runs: a fused ``load_run`` against its moves one by one.

The engine plans a ``load_run`` superop as runs — maximal sequences of
moves with equal ports, size and accumulate flag whose addresses advance
by constant steps — and copies each run with one numpy call between 2-D
strided views.  Generated move lists over the scratchpads and external
memory (steps of zero, negative, smaller than the size and at least the
size; sources overlapping earlier destinations; accumulation; moves out
of bounds) must leave every word bit for bit where per-instruction
execution leaves it, or raise a :class:`SimulationError` in both modes.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.presets import conv_chip
from repro.errors import SimulationError
from repro.isa import Opcode, Program, make
from repro.isa.program import SuperOp
from repro.sim.engine import EXTERNAL_PORT, Engine, _strided_runs
from repro.sim.machine import Machine
from repro.telemetry import capture

EXTERNAL_WORDS = 4096
TILE_WORDS = conv_chip().mem_tile.capacity_bytes // 4
PORTS = [0, 1, 2, EXTERNAL_PORT]
#: Words filled with data at the start of every memory.
FILLED = 512


def _words(port):
    return EXTERNAL_WORDS if port == EXTERNAL_PORT else TILE_WORDS


def _in_bounds(moves) -> bool:
    return all(
        0 <= addr and addr + size <= _words(port)
        for src_port, src, dst_port, dst, size, _ in moves
        for port, addr in ((src_port, src), (dst_port, dst))
    )


@st.composite
def _step(draw, size):
    return draw(st.one_of(
        st.just(0),
        st.integers(-3 * size, -1),
        st.integers(1, max(1, size - 1)),
        st.integers(size, 3 * size),
    ))


@st.composite
def load_runs(draw):
    """A ``load_run``'s moves: a few strided groups, a source drawn
    from an earlier destination now and then, and sometimes one move
    pushed out of bounds."""
    moves = []
    for _ in range(draw(st.integers(1, 4))):
        src_port, dst_port = draw(st.sampled_from(PORTS)), draw(
            st.sampled_from(PORTS)
        )
        size = draw(st.integers(1, 6))
        src_step, dst_step = draw(_step(size)), draw(_step(size))
        src = draw(st.integers(100, 300))
        if moves and draw(st.booleans()):
            _, _, src_port, src, _, _ = draw(st.sampled_from(moves))
        dst = draw(st.integers(100, 300))
        accum = draw(st.integers(0, 1))
        for k in range(draw(st.integers(1, 6))):
            moves.append((
                src_port, src + k * src_step, dst_port, dst + k * dst_step,
                size, accum,
            ))
    if draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(moves) - 1))
        src_port, src, dst_port, dst, size, accum = moves[i]
        if draw(st.booleans()):
            src = _words(src_port) - size + draw(st.integers(1, size))
        else:
            dst = _words(dst_port) - size + draw(st.integers(1, size))
        moves[i] = (src_port, src, dst_port, dst, size, accum)
    return moves


def _program(moves, skip=None) -> Program:
    """One ``load_run`` over ``moves``.  With ``skip``, a leading BRANCH
    jumps over the run's first ``skip`` moves, onto a member pc."""
    lead = 0 if skip is None else 1
    prog = Program(tile="t", superops=(SuperOp(
        "load_run", lead, lead + len(moves),
        params=(("dmas", tuple(moves)),),
    ),))
    if skip is not None:
        prog.append(make(Opcode.BRANCH, offset=skip))
    for src_port, src, dst_port, dst, size, accum in moves:
        prog.append(make(
            Opcode.DMALOAD, src_addr=src, src_port=src_port, dst_addr=dst,
            dst_port=dst_port, size=size, is_accum=accum,
        ))
    prog.append(make(Opcode.HALT))
    return prog


def _run(moves, fused):
    """Every memory's digest after the run, or the error's type."""
    rng = np.random.default_rng(len(moves))
    machine = Machine(conv_chip(), 3, 1)
    for mem in machine.mem_tiles:
        mem.words[:FILLED] = rng.normal(0, 1, FILLED)
    machine.load_program(_program(moves))
    engine = Engine(machine, external_words=EXTERNAL_WORDS, fused=fused)
    engine.external[:FILLED] = rng.normal(0, 1, FILLED)
    try:
        engine.run()
    except SimulationError as exc:
        return type(exc), None
    fused_entry = engine._decoded["t"][0].count == len(moves)
    memories = [mem.words for mem in machine.mem_tiles] + [engine.external]
    return [hashlib.sha256(words).hexdigest() for words in memories], (
        fused_entry
    )


class TestAgainstSingleMoves:
    @settings(max_examples=300, deadline=None)
    @given(load_runs())
    def test_fused_words_match_per_instruction(self, moves):
        got, fused_entry = _run(moves, fused=True)
        want, _ = _run(moves, fused=False)
        assert got == want
        if _in_bounds(moves):
            assert fused_entry  # the strided plan ran, not a fallback
        else:
            assert got is SimulationError

    def test_dma_telemetry_per_move(self):
        """With telemetry on, a fused run still observes each move."""
        moves = [(0, 100 + 4 * k, 1, 200 + 8 * k, 4, 0) for k in range(5)]
        moves.append((EXTERNAL_PORT, 10, 2, 50, 3, 1))
        for fused in (True, False):
            machine = Machine(conv_chip(), 3, 1)
            machine.load_program(_program(moves))
            with capture() as tel:
                Engine(machine, fused=fused).run()
            hist = tel.metrics.histogram("engine.dma", "transfer_bytes")
            assert hist.count == len(moves)
            assert tel.counters.get("tile/t", "dma_bytes") == 4 * 23


class TestBranchIntoRun:
    """A jump onto a superop's member pc runs the members from there one
    instruction at a time, as the unfused program does."""

    MOVES = [(0, 100 + 4 * k, 1, 200 + 8 * k, 4, k % 2) for k in range(6)]

    @staticmethod
    def run(skip, fused):
        rng = np.random.default_rng(skip)
        machine = Machine(conv_chip(), 3, 1)
        for mem in machine.mem_tiles:
            mem.words[:FILLED] = rng.normal(0, 1, FILLED)
        machine.load_program(_program(TestBranchIntoRun.MOVES, skip))
        engine = Engine(machine, fused=fused)
        report = engine.run()
        if fused:  # the run was planned as one superop
            assert engine._decoded["t"][1].count == len(
                TestBranchIntoRun.MOVES
            )
        words = [
            hashlib.sha256(mem.words).hexdigest()
            for mem in machine.mem_tiles
        ]
        return report, words

    @pytest.mark.parametrize("skip", [1, 3, 5])
    def test_same_words_and_report_as_unfused(self, skip):
        report, words = self.run(skip, fused=True)
        unfused, unfused_words = self.run(skip, fused=False)
        assert words == unfused_words
        assert dataclasses.astuple(report) == dataclasses.astuple(unfused)
        # BRANCH, the moves after the landing pc, HALT.
        assert report.instructions == len(self.MOVES) - skip + 2


class TestPlan:
    @staticmethod
    def plan(moves):
        memory = {p: np.zeros(_words(p), np.float32) for p in PORTS}
        return _strided_runs(moves, memory.__getitem__)

    def test_constant_steps_make_one_run(self):
        moves = [(0, 100 + 2 * k, 1, 300 - 5 * k, 2, 1) for k in range(6)]
        assert self.plan(moves) == [(0, 6, 2, -5)]

    def test_a_changed_step_starts_a_run(self):
        moves = [(0, 0, 1, 0, 4, 0), (0, 4, 1, 4, 4, 0), (0, 16, 1, 8, 4, 0)]
        assert self.plan(moves) == [(0, 2, 4, 4), (2, 1, 0, 0)]

    @pytest.mark.parametrize("dst_step", [0, 3, -2])
    def test_overlapping_destinations_split(self, dst_step):
        moves = [(0, 8 * k, 1, 100 + dst_step * k, 4, 1) for k in range(3)]
        assert self.plan(moves) == [(k, 1, 0, 0) for k in range(3)]

    def test_source_over_destination_in_one_memory_splits(self):
        moves = [(0, 0, 0, 4, 4, 0), (0, 4, 0, 8, 4, 0)]
        assert self.plan(moves) == [(0, 1, 0, 0), (1, 1, 0, 0)]
        other = [(0, 0, 1, 4, 4, 0), (0, 4, 1, 8, 4, 0)]
        assert self.plan(other) == [(0, 2, 4, 4)]

    def test_out_of_bounds_refused(self):
        with pytest.raises(SimulationError, match="outside port"):
            self.plan([(EXTERNAL_PORT, EXTERNAL_WORDS - 2, 0, 0, 4, 0)])
