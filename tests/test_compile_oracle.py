"""The compiler's static analysis against its oracles.

``tests/compile_oracle.py`` keeps the analysis from before operands
were read by position and each access's tracker coverage was resolved
once, and the row-based access table, verifier and fusion blocks from
before the table became numpy columns.  For generated chains and DAGs
(``tests/test_properties.py``'s strategies), LeNet-5's connection-table
convolution, every network ``validate`` runs, the same programs with a
fault planted in them, and generated instructions of every data opcode,
both must agree: the same accesses (or the same refusal), the arms each
access covers, tracker counts (or the same calibration error), superops
(kind, span, external quads, expire set, params) and verifier findings,
in the same order and with the same text.
"""

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compiler.codegen_dag import compile_dag_forward
from repro.compiler.passes.fuse import _annotate_superops, _span_of
from repro.compiler.trackers import AccessTable, calibrate_trackers
from repro.compiler.verifier import MachineShape, verify_programs
from repro.dnn import zoo
from repro.dnn.zoo.engine_proxies import engine_proxy
from repro.errors import SimulationError
from repro.functional import ReferenceModel
from repro.isa.instructions import (
    OPCODE_GROUPS, OPERAND_NAMES, Instruction, InstrGroup, Opcode, make,
)
from repro.sim.engine import EXTERNAL_PORT
from repro.sim.machine import (
    REG_OPERAND_FLAG, instruction_accesses, reg_operand, unpack_shape,
)
from repro.sim.validation import ENGINE_WEIGHT_LIMIT, VALIDATION_VARIANTS
from tests import compile_oracle as oracle
from tests.test_properties import random_chain, random_dag

NETS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_TRACKS = (Opcode.MEMTRACK, Opcode.DMA_MEMTRACK)


def _uncalibrated(programs):
    """Copies of ``programs`` with no superops and every tracker count
    zeroed."""
    clones = copy.deepcopy(programs)
    for program in clones:
        program.superops = ()
        for pc, instr in enumerate(program.instructions):
            if instr.opcode in _TRACKS:
                o = instr.named_operands()
                o["num_updates"] = o["num_reads"] = 0
                program.instructions[pc] = make(
                    instr.opcode, comment=instr.comment, **o
                )
    return clones


def _outcome(run, *args):
    """``run``'s result, or its error's type and message."""
    try:
        return "ok", run(*args)
    except Exception as exc:  # compared, type and message included
        return type(exc).__name__, str(exc)


def _check(programs, machines=()):
    """Calibrate, fuse and verify copies of ``programs`` with the
    compiler and with the oracles, and compare every result; verify
    against each ``(shape, preloaded regions)`` of ``machines``.
    Returns the compiler's copies, or None if calibration refused
    them."""
    new = _uncalibrated(programs)
    table = AccessTable(new)
    old = _uncalibrated(programs)
    old_table = oracle.AccessTable(old)
    calibrated = _outcome(calibrate_trackers, new, None, None, table)
    assert calibrated == _outcome(
        oracle.calibrate_trackers, old, None, None, old_table
    )
    assert [p.instructions for p in new] == [p.instructions for p in old]
    for shape, preloaded in machines:
        assert verify_programs(new, shape, preloaded, table=table) == (
            oracle.verify_programs(old, shape, preloaded, table=old_table)
        )
    assert table.indirect == old_table.indirect
    assert table.arms == old_table.arms
    if calibrated[0] != "ok":
        return None
    old_table.resolve_coverage()
    spans = [oracle._match_spans(p.instructions) for p in new]
    tags = [_span_of(table.reads, spans), _span_of(table.writes, spans)]
    for pi in range(len(new)):
        # Per access: pc, quad, covered arms and span tag (-1: none).
        want = {"reads": ([], [], [], []), "writes": ([], [], [], [])}
        for si, block, reads, writes in oracle._blocks(
            old_table, pi, spans[pi]
        ):
            for kind, column, codes in (
                ("reads", 1, reads), ("writes", 2, writes),
            ):
                pcs, quads, want_arms, want_tags = want[kind]
                for row in block:
                    pcs += [row[0]] * len(row[column])
                    quads += row[column]
                want_arms += [tuple(old_table.arms_of(c)) for c in codes]
                want_tags += [-1 if si is None else si] * len(codes)
        for kind, accesses, codes, tag in (
            ("reads", table.reads, table.read_arms, tags[0]),
            ("writes", table.writes, table.write_arms, tags[1]),
        ):
            lo, hi = accesses.at[pi], accesses.at[pi + 1]
            assert (
                accesses.pc[lo:hi].tolist(),
                accesses.quads(np.arange(lo, hi)),
                [tuple(table.arms_of(c)) for c in codes[lo:hi].tolist()],
                tag[lo:hi].tolist(),
            ) == want[kind]
    fused = _annotate_superops(table)
    assert fused == oracle._annotate_superops(old_table)
    assert [p.superops for p in new] == [p.superops for p in old]
    for program in new:
        for superop in program.superops:
            for quads in (superop.external_reads, superop.external_writes):
                assert all(type(v) is int for quad in quads for v in quad)
    return new


def _compiled(net, rows=2):
    return compile_dag_forward(net, ReferenceModel(net, seed=0), rows=rows)


def _check_compiled(compiled):
    """:func:`_check` on a compile's programs, verified against its
    machine with its preloads, and against a machine of fewer, smaller
    tiles without them (so both verifiers find every kind of fault)."""
    shape = compiled.machine_shape()
    cramped = MachineShape(
        max(shape.mem_tiles - 1, 1), shape.words_per_tile // 8,
        shape.trackers_per_tile // 2,
    )
    new = _check(compiled.programs, [
        (shape, compiled.preloaded_regions()), (cramped, ()),
    ])
    # Calibration and fusion rerun reproduce the compile's superops.
    assert [p.superops for p in new] == [
        p.superops for p in compiled.programs
    ]


class TestAgainstOracle:
    @NETS
    @given(net=random_chain(), rows=st.sampled_from([1, 2, 3]))
    def test_random_chains(self, net, rows):
        _check_compiled(_compiled(net, rows))

    @NETS
    @given(net=random_dag())
    def test_random_dags(self, net):
        _check_compiled(_compiled(net))

    def test_lenet5_connection_table(self):
        net = zoo.load("LeNet-5")
        assert any(
            getattr(node.spec, "connection_table", None) is not None
            for node in net
        )
        _check_compiled(_compiled(net))

    @pytest.mark.parametrize(
        "name", [*zoo.available(), *VALIDATION_VARIANTS]
    )
    def test_validate_networks(self, name):
        """Every network ``validate`` runs, engine proxies as it builds
        them."""
        net = VALIDATION_VARIANTS[name]() if name in VALIDATION_VARIANTS \
            else zoo.load(name)
        if net.weight_count > ENGINE_WEIGHT_LIMIT:
            net = engine_proxy(name)
        _check_compiled(_compiled(net))


# ---------------------------------------------------------------------------
# Planted faults
# ---------------------------------------------------------------------------
_LENET = _compiled(zoo.load("LeNet-5"))
_SHAPE = _LENET.machine_shape()
_TOP = _SHAPE.words_per_tile  # the top of every scratchpad is unused


def _dma(src_addr, src_port, dst_addr, dst_port, size):
    return make(Opcode.DMALOAD, src_addr=src_addr, src_port=src_port,
                dst_addr=dst_addr, dst_port=dst_port, size=size, is_accum=0)


def _arm(port, addr, size):
    return make(Opcode.MEMTRACK, addr=addr, port=port, size=size,
                num_updates=0, num_reads=0)


@st.composite
def planted(draw):
    """LeNet-5's calibrated programs with one to three faults planted:
    each fault's instructions go in at a drawn pc of a drawn program."""
    programs = copy.deepcopy(_LENET.programs)
    arms = [
        (instr.operand("port"), instr.operand("addr"), instr.operand("size"))
        for program in programs for instr in program
        if instr.opcode is Opcode.MEMTRACK
    ]
    port = st.integers(0, _SHAPE.mem_tiles - 1)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from((
            "bad-port", "out-of-range", "never-written", "overlap", "empty",
            "dead", "indirect", "zero-word", "two-arms",
        )))
        p = draw(port)
        if kind == "bad-port":
            plant = [_dma(0, EXTERNAL_PORT, 8, _SHAPE.mem_tiles + 2, 4)]
        elif kind == "out-of-range":
            plant = [_dma(0, EXTERNAL_PORT, _TOP - 2, p, 8)]
        elif kind == "never-written":
            plant = [make(Opcode.NDACCUM, src_addr=_TOP - 40, port=p,
                          size=6, dst_addr=_TOP - 20)]
        elif kind == "overlap":
            a_port, a_addr, a_size = draw(st.sampled_from(arms))
            plant = [_arm(a_port, a_addr + a_size // 2, a_size)]
        elif kind == "empty":
            plant = [_arm(p, _TOP - 80, draw(st.integers(-1, 0)))]
        elif kind == "dead":
            plant = [_arm(p, _TOP - 100, 8)]
        elif kind == "zero-word":
            a_port, a_addr, a_size = draw(st.sampled_from(arms))
            plant = [_dma(0, EXTERNAL_PORT,
                          a_addr + draw(st.integers(0, a_size)), a_port, 0)]
        elif kind == "two-arms":
            plant = [_arm(p, _TOP - 64, 8), _arm(p, _TOP - 56, 8),
                     _dma(0, EXTERNAL_PORT, _TOP - 60, p, 8)]
        else:  # register-indirect: one operand of a data instruction
            program = draw(st.sampled_from(programs))
            pcs = [pc for pc, instr in enumerate(program)
                   if OPCODE_GROUPS[instr.opcode] is InstrGroup.TRANSFER]
            if not pcs:
                continue
            pc = draw(st.sampled_from(pcs))
            instr = program[pc]
            operands = list(instr.operands)
            operands[draw(st.integers(0, len(operands) - 1))] = reg_operand(
                draw(st.integers(0, 7))
            )
            program.instructions[pc] = Instruction(
                instr.opcode, tuple(operands), instr.comment
            )
            continue
        program = draw(st.sampled_from(programs))
        pc = draw(st.integers(0, len(program) - 1))  # before the HALT
        program.instructions[pc:pc] = plant
    return programs


class TestPlantedFaults:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(planted())
    def test_same_errors_counts_superops_and_findings(self, programs):
        """The same calibration error or counts, coverage, superops and
        findings (with LeNet-5's preloads and without them) once faults
        are planted."""
        _check(programs, [
            (_SHAPE, _LENET.preloaded_regions()), (_SHAPE, ()),
        ])


_DATA_OPCODES = [
    op for op in Opcode
    if OPCODE_GROUPS[op] in (
        InstrGroup.COARSE, InstrGroup.OFFLOAD, InstrGroup.TRANSFER,
    )
]

#: Operand values: small immediates (strides, windows, codes, 2-D
#: extents), negatives, register references and packed shapes.
_OPERAND = st.one_of(
    st.integers(-3, 12),
    st.integers(-(1 << 31), 1 << 31),
    st.integers(0, 63).map(lambda r: REG_OPERAND_FLAG | r),
    st.tuples(st.integers(0, 9), st.integers(0, 9)).map(
        lambda hw: (hw[0] << 16) | hw[1]
    ),
)


@st.composite
def data_instructions(draw):
    op = draw(st.sampled_from(_DATA_OPCODES + [Opcode.LDRI, Opcode.BRANCH]))
    operands = draw(st.lists(
        _OPERAND, min_size=len(OPERAND_NAMES[op]),
        max_size=len(OPERAND_NAMES[op]),
    ))
    return Instruction(op, tuple(operands))


def _accesses_or_refusal(accesses, instr):
    """The (reads, writes) as lists, or the refusal's text."""
    try:
        reads, writes = accesses(instr)
    except SimulationError as exc:
        return str(exc)
    return list(reads), list(writes)


def _shape_refusal(instr):
    """The refusal the oracle lacks, if ``instr`` has one: an NDCONV
    kernel larger than its padded plane, or a MATMUL vector as long as
    its matrix is not wide."""
    o = instr.named_operands()
    if instr.opcode is Opcode.NDCONV:
        h, w = unpack_shape(o["in_size"])
        k, _ = unpack_shape(o["kernel_size"])
        limit = min(h, w) + 2 * o["pad"]
        if k > limit:
            return (
                f"NDCONV kernel={k}: must be at most {limit} to fit its "
                f"{h}x{w} plane padded by {o['pad']}"
            )
    if instr.opcode is Opcode.MATMUL:
        rows, cols = unpack_shape(o["in2_size"])
        _, n = unpack_shape(o["in1_size"])
        if n != cols:
            return f"MATMUL shape mismatch: vector {n} vs matrix {rows}x{cols}"
    return None


class TestInstructionAccesses:
    @settings(max_examples=1000, deadline=None)
    @given(data_instructions())
    def test_same_accesses_or_refusal(self, instr):
        """The same accesses as the oracle, compared as values, or the
        same refusal; where the oracle sizes an NDCONV or MATMUL the
        engine cannot run, the engine's refusal instead."""
        got = _accesses_or_refusal(instruction_accesses, instr)
        want = _accesses_or_refusal(oracle.instruction_accesses, instr)
        refusal = _shape_refusal(instr)
        if refusal is not None and not isinstance(want, str):
            want = refusal
        assert got == want
