"""The compiler's static analysis against its named-operand oracle.

``tests/compile_oracle.py`` keeps the analysis from before operands
were read by position and each access's tracker coverage was resolved
once.  For generated chains and DAGs (``tests/test_properties.py``'s
strategies), LeNet-5's connection-table convolution and generated
instructions of every data opcode, both must agree: the same accesses
(or the same refusal), tracker counts and superops (kind, span,
external quads, expire set, params), and every stored coverage code
must name the arms :meth:`AccessTable.covering` finds.
"""

import copy

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compiler.codegen_dag import compile_dag_forward
from repro.compiler.passes.fuse import _annotate_superops
from repro.compiler.trackers import AccessTable, calibrate_trackers
from repro.dnn import zoo
from repro.errors import SimulationError
from repro.functional import ReferenceModel
from repro.isa.instructions import (
    OPCODE_GROUPS, OPERAND_NAMES, Instruction, InstrGroup, Opcode, make,
)
from repro.sim.machine import REG_OPERAND_FLAG, instruction_accesses
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


def _check(programs):
    new = _uncalibrated(programs)
    table = AccessTable(new)
    calibrate_trackers(new, table=table)
    fused = _annotate_superops(table)
    old = _uncalibrated(programs)
    old_table = AccessTable(old)
    oracle.calibrate_trackers(old, table=old_table)
    assert fused == oracle._annotate_superops(old_table)
    for got, want in zip(new, old):
        assert got.instructions == want.instructions  # tracker counts
        assert got.superops == want.superops
    assert [p.superops for p in new] == [p.superops for p in programs]
    for rows, read_arms, write_arms in zip(
        table.accesses, table.read_arms, table.write_arms
    ):
        reads = [quad for _, r, _ in rows for quad in r]
        writes = [quad for _, _, w in rows for quad in w]
        assert len(reads) == len(read_arms)
        assert len(writes) == len(write_arms)
        for quads, codes in ((reads, read_arms), (writes, write_arms)):
            for quad, code in zip(quads, codes):
                assert list(table.arms_of(code)) == table.covering(*quad)


def _programs(net, rows=2):
    return compile_dag_forward(
        net, ReferenceModel(net, seed=0), rows=rows
    ).programs


class TestAgainstOracle:
    @NETS
    @given(net=random_chain(), rows=st.sampled_from([1, 2, 3]))
    def test_random_chains(self, net, rows):
        _check(_programs(net, rows))

    @NETS
    @given(net=random_dag())
    def test_random_dags(self, net):
        _check(_programs(net))

    def test_lenet5_connection_table(self):
        net = zoo.load("LeNet-5")
        assert any(
            getattr(node.spec, "connection_table", None) is not None
            for node in net
        )
        _check(_programs(net))


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


def _outcome(accesses, instr):
    try:
        return accesses(instr)
    except SimulationError as exc:
        return str(exc)


class TestInstructionAccesses:
    @settings(max_examples=1000, deadline=None)
    @given(data_instructions())
    def test_same_accesses_or_refusal(self, instr):
        assert _outcome(instruction_accesses, instr) == _outcome(
            oracle.instruction_accesses, instr
        )
