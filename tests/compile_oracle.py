"""The compiler's static analysis before it read each instruction's
operands by position and each access's tracker coverage once, and
before the access table became numpy columns, kept as a test oracle.

Until then, :func:`instruction_accesses` unpacked an instruction's
operands into a dict by name, :func:`calibrate_trackers` asked
:meth:`AccessTable.covering` for every access, and fusion's
:func:`_annotate_superops` asked it again in each of its two passes,
matching spans over named operands.  The functions below are those
verbatim (``check_code`` with its dict signature, which the old
:func:`instruction_accesses` calls, and ``_conv_out_extent_words``).
They read an :class:`AccessTable` only through its ``programs``,
``accesses``, ``arms``, ``index``, ``indirect`` and ``covering``.

The last section keeps, also verbatim, the row-based
:class:`AccessTable` (with ``covering`` and ``resolve_coverage``), the
program verifier that read it row by row and fusion's ``_blocks``, as
they were before the table became integer columns.  The table here
enumerates accesses through this module's :func:`instruction_accesses`.
``tests/test_compile_oracle.py`` checks that the compiler computes the
same accesses, coverage codes, tracker counts, superops and verifier
findings.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.compiler.trackers import _DATA_OPCODES, NO_ARM, ArmedRange
from repro.compiler.verifier import Issue, MachineShape
from repro.dnn.layers import PoolMode
from repro.errors import ProgramError, SimulationError
from repro.isa.instructions import Instruction, Opcode, make
from repro.isa.program import Program, SuperOp
from repro.sim.engine import EXTERNAL_PORT
from repro.sim.machine import (
    Access,
    CODE_TO_SAMP,
    UPSAMP_MODES,
    UPSAMP_ZERO_INSERT,
    check_stride,
    check_window,
    has_register_operand,
    is_reg_operand,
    unpack_shape,
)


def _conv_out_extent_words(extent: int, kernel: int, stride: int, pad: int) -> int:
    return (extent + 2 * pad - kernel) // stride + 1


def check_code(
    op: Opcode, o: Dict[str, int], name: str, codes: dict, what: str
):
    """The meaning of code operand ``name``; a code outside ``codes``
    raises :class:`SimulationError` naming the opcode and operand."""
    value = o[name]
    if value not in codes:
        raise SimulationError(
            f"{op.value} {name}={value}: not {what} code {sorted(codes)}"
        )
    return codes[value]


def instruction_accesses(
    instr: Instruction,
) -> Tuple[List[Access], List[Access]]:
    """The (reads, writes) a data instruction performs, as the engine
    gates them.  Scalar/control/track instructions access nothing.

    Register-indirect operands cannot be resolved statically: the
    engine asks again with the registers' values substituted when such
    an instruction issues, and programs using them (hand-written looped
    templates) bypass the calibration pass, which is why the production
    code generator unrolls loops — the static analysis then sees every
    address.

    A stride below 1, a sampling code outside NDSUBSAMP's or NDUPSAMP's
    modes, or a pooling window that does not fit its plane (NDSUBSAMP)
    or its stride (NDUPSAMP's max and avg modes), raises
    :class:`SimulationError` naming the opcode and operand: the access
    table, calibration and the engine's decoder refuse it alike.
    """
    op = instr.opcode
    o = instr.named_operands()
    if any(is_reg_operand(v) for v in instr.operands):
        raise SimulationError(
            f"{op.value} uses register-indirect operands; accesses are "
            "only known at execution time"
        )
    if "stride" in o:  # NDCONV, NDSUBSAMP, NDUPSAMP
        check_stride(op.value, o["stride"])
    reads: List[Access] = []
    writes: List[Access] = []

    if op is Opcode.NDCONV:
        h, w = unpack_shape(o["in_size"])
        k, _ = unpack_shape(o["kernel_size"])
        out_h = _conv_out_extent_words(h, k, o["stride"], o["pad"])
        out_w = _conv_out_extent_words(w, k, o["stride"], o["pad"])
        reads.append((o["in_port"], o["in_addr"], h * w))
        reads.append((o["in_port"], o["kernel_addr"], k * k))
        writes.append((o["out_port"], o["out_addr"], out_h * out_w))
    elif op is Opcode.MATMUL:
        rows, cols = unpack_shape(o["in2_size"])
        _, n = unpack_shape(o["in1_size"])
        reads.append((o["in1_port"], o["in1_addr"], n))
        reads.append((o["in2_port"], o["in2_addr"], rows * cols))
        writes.append((o["out_port"], o["out_addr"], rows))
    elif op is Opcode.NDACTFN:
        reads.append((o["port"], o["in_addr"], o["size"]))
        writes.append((o["out_port"], o["out_addr"], o["size"]))
    elif op is Opcode.NDACTBP:
        reads.append((o["port"], o["err_addr"], o["size"]))
        reads.append((o["port"], o["err_addr"] + o["size"], o["size"]))
        writes.append((o["out_port"], o["out_addr"], o["size"]))
    elif op is Opcode.NDSUBSAMP:
        h, w = unpack_shape(o["in_size"])
        check_window(
            op.value, o["window"], min(h, w), f"to fit its {h}x{w} plane"
        )
        check_code(op, o, "samp_type", CODE_TO_SAMP, "a sampling")
        out_h = (h - o["window"]) // o["stride"] + 1
        out_w = (w - o["window"]) // o["stride"] + 1
        reads.append((o["port"], o["in_addr"], h * w))
        writes.append((o["out_port"], o["out_addr"], out_h * out_w))
    elif op is Opcode.NDUPSAMP:
        h, w = unpack_shape(o["in_size"])
        stride, samp = o["stride"], o["samp_type"]
        mode = check_code(
            op, o, "samp_type", UPSAMP_MODES, "an up-sampling"
        )
        if mode is not None:
            check_window(
                f"{op.value} samp_type={samp}", o["window"], stride,
                f"(the stride) to spread {mode.value} windows",
            )
        reads.append((o["port"], o["in_addr"], h * w))
        if samp == UPSAMP_ZERO_INSERT:
            out = ((h - 1) * stride + 1) * ((w - 1) * stride + 1)
        else:
            out = h * stride * w * stride
            if mode is PoolMode.MAX:  # max routing reads the original
                reads.append((o["port"], o["in_addr"] + h * w, out))
        writes.append((o["out_port"], o["out_addr"], out))
    elif op is Opcode.NDACCUM:
        reads.append((o["port"], o["src_addr"], o["size"]))
        writes.append((o["port"], o["dst_addr"], o["size"]))
    elif op is Opcode.VECMUL:
        reads.append((o["port"], o["in1_addr"], o["size"]))
        reads.append((o["port"], o["in2_addr"], o["size"]))
        writes.append((o["port"], o["out_addr"], o["size"]))
    elif op is Opcode.WUPDATE:
        reads.append((o["port"], o["grad_addr"], o["size"]))
        writes.append((o["port"], o["weight_addr"], o["size"]))
    elif op in (Opcode.DMALOAD, Opcode.DMASTORE):
        reads.append((o["src_port"], o["src_addr"], o["size"]))
        writes.append((o["dst_port"], o["dst_addr"], o["size"]))
    elif op is Opcode.PREFETCH:
        writes.append((o["dst_port"], o["dst_addr"], o["size"]))
    return reads, writes


def calibrate_trackers(
    programs: Sequence[Program],
    external_updates: Optional[Dict[Tuple[int, int], int]] = None,
    external_reads: Optional[Dict[Tuple[int, int], int]] = None,
    table: Optional[AccessTable] = None,
) -> int:
    """Rewrite every MEMTRACK / DMA_MEMTRACK with statically counted
    accesses.

    ``external_updates`` / ``external_reads`` add host-side accesses the
    programs cannot see (e.g. the injected loss gradient), keyed by
    ``(port, addr)`` of the armed range.  ``table`` is the
    :class:`AccessTable` of ``programs`` when the caller already built
    one; otherwise one is built here.

    Returns the number of trackers calibrated.  Raises
    :class:`ProgramError` if an armed range is empty, if two armed
    ranges overlap (the hardware cannot disambiguate them) or if an
    armed range receives no accesses at all (a dead tracker is a
    compiler bug), and :class:`SimulationError` if an instruction's
    operands are register references.
    """
    if table is None:
        table = AccessTable(programs)
    external_updates = external_updates or {}
    external_reads = external_reads or {}
    arms = table.arms

    for arm in arms:
        if arm.size < 1:
            raise ProgramError(
                f"empty tracker range (size {arm.size}): "
                f"{table.programs[arm.prog].tile}@{arm.pc} "
                f"port {arm.port} addr {arm.addr}"
            )
    # Sorted by start, two arms overlap only if some neighbours do.  The
    # error names the first overlapping pair in arming order.
    for _, starts, ends in table.index.values():
        if any(start < end for start, end in zip(starts[1:], ends)):
            a, b = next(
                (a, b) for i, a in enumerate(arms) for b in arms[i + 1:]
                if a.port == b.port
                and b.addr < a.addr + a.size and a.addr < b.addr + b.size
            )
            raise ProgramError(
                f"overlapping trackers: {table.programs[a.prog].tile}@{a.pc}"
                f" and {table.programs[b.prog].tile}@{b.pc} "
                f"(port {a.port}, [{a.addr}, {a.addr + a.size}) vs "
                f"[{b.addr}, {b.addr + b.size}))"
            )
    if table.indirect:
        prog, pc = table.indirect[0]
        raise SimulationError(
            f"{table.programs[prog][pc].opcode.value} uses "
            "register-indirect operands; accesses are only known at "
            "execution time"
        )

    # Count every planned access against the armed ranges.
    updates = [0] * len(arms)
    reads = [0] * len(arms)
    covering = table.covering
    for rows in table.accesses:
        for _, row_reads, row_writes in rows:
            for port, addr, count in row_reads:
                for i in covering(port, addr, count):
                    reads[i] += 1
            for port, addr, count in row_writes:
                for i in covering(port, addr, count):
                    updates[i] += 1

    for i, arm in enumerate(arms):
        program = table.programs[arm.prog]
        key = (arm.port, arm.addr)
        num_updates = updates[i] + external_updates.get(key, 0)
        num_reads = reads[i] + external_reads.get(key, 0)
        if num_updates == 0:
            raise ProgramError(
                f"dead tracker (never written): {program.tile}"
                f"@{arm.pc} port {arm.port} addr {arm.addr}"
            )
        old = program[arm.pc]
        o = old.named_operands()
        o["num_updates"] = num_updates
        o["num_reads"] = num_reads
        program.instructions[arm.pc] = make(
            old.opcode, comment=old.comment, **o
        )
    return len(arms)


#: Opcodes a superop may cover.  Everything else — scalar/control,
#: tracker arms, VECMUL and the other low-count ops — stays on the
#: per-instruction path.
_FUSABLE = frozenset((
    Opcode.DMALOAD, Opcode.NDCONV, Opcode.NDACCUM, Opcode.NDACTFN,
    Opcode.MATMUL, Opcode.NDSUBSAMP,
))

#: Minimum instructions for a run-style superop to be worth the gate.
_MIN_RUN = 2


class _Span:
    """A matched superop candidate before externality analysis."""

    __slots__ = ("kind", "start", "end", "params")

    def __init__(self, kind: str, start: int, end: int, params: dict):
        self.kind = kind
        self.start = start
        self.end = end
        self.params = params


# ---------------------------------------------------------------------------
# Pattern matching
# ---------------------------------------------------------------------------
def _parse_load_run(instrs: Sequence[Instruction], start: int) -> Optional[_Span]:
    n = len(instrs)
    j = start
    dmas: List[Tuple[int, int, int, int, int, int]] = []
    while j < n and instrs[j].opcode is Opcode.DMALOAD:
        o = instrs[j].named_operands()
        dmas.append((
            o["src_port"], o["src_addr"], o["dst_port"], o["dst_addr"],
            o["size"], int(bool(o["is_accum"])),
        ))
        j += 1
    if j - start < _MIN_RUN:
        return None
    return _Span("load_run", start, j, {"dmas": tuple(dmas)})


def _parse_conv_block(
    instrs: Sequence[Instruction], start: int
) -> Optional[_Span]:
    """Match ``(NDCONV+ NDACCUM)+ NDACTFN`` — one conv layer slice."""
    n = len(instrs)
    o0 = instrs[start].named_operands()
    if o0["is_accum"]:
        return None
    in_port, out_port = o0["in_port"], o0["out_port"]
    in_size, kern_size = o0["in_size"], o0["kernel_size"]
    stride, pad = o0["stride"], o0["pad"]
    h, w = unpack_shape(in_size)
    k, _ = unpack_shape(kern_size)
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    out_size = out_h * out_w
    if out_size <= 0:
        return None
    pre_base = o0["out_addr"]
    features: List[List[Tuple[int, int]]] = []
    bias_addrs: List[int] = []
    i = start
    while i < n and instrs[i].opcode is Opcode.NDCONV:
        o = instrs[i].named_operands()
        expected_out = pre_base + len(features) * out_size
        if (
            o["is_accum"]
            or o["in_port"] != in_port or o["out_port"] != out_port
            or o["in_size"] != in_size or o["kernel_size"] != kern_size
            or o["stride"] != stride or o["pad"] != pad
            or o["out_addr"] != expected_out
        ):
            return None
        sources = [(o["in_addr"], o["kernel_addr"])]
        i += 1
        while i < n and instrs[i].opcode is Opcode.NDCONV:
            o = instrs[i].named_operands()
            if not o["is_accum"]:
                break  # next feature's first source
            if (
                o["in_port"] != in_port or o["out_port"] != out_port
                or o["in_size"] != in_size or o["kernel_size"] != kern_size
                or o["stride"] != stride or o["pad"] != pad
                or o["out_addr"] != expected_out
            ):
                return None
            sources.append((o["in_addr"], o["kernel_addr"]))
            i += 1
        if i >= n or instrs[i].opcode is not Opcode.NDACCUM:
            return None
        o = instrs[i].named_operands()
        if (
            o["port"] != out_port or o["dst_addr"] != expected_out
            or o["size"] != out_size
        ):
            return None
        bias_addrs.append(o["src_addr"])
        features.append(sources)
        i += 1
        if i < n and instrs[i].opcode is Opcode.NDACTFN:
            break
    if not features or i >= n or instrs[i].opcode is not Opcode.NDACTFN:
        return None
    o = instrs[i].named_operands()
    n_features = len(features)
    if (
        o["port"] != out_port or o["in_addr"] != pre_base
        or o["size"] != n_features * out_size
    ):
        return None
    bias_base = bias_addrs[0]
    if any(
        addr != bias_base + f * out_size for f, addr in enumerate(bias_addrs)
    ):
        return None
    # Per-step (ragged) source groups: step s covers every feature with
    # more than s sources, in feature order.
    max_sources = max(len(srcs) for srcs in features)
    steps = []
    for s in range(max_sources):
        feats = tuple(
            f for f, srcs in enumerate(features) if len(srcs) > s
        )
        steps.append((
            feats,
            tuple(features[f][s][0] for f in feats),
            tuple(features[f][s][1] for f in feats),
        ))
    if steps[0][0] != tuple(range(n_features)):
        return None
    return _Span("conv_block", start, i + 1, {
        "in_port": in_port, "out_port": out_port,
        "h": h, "w": w, "k": k, "stride": stride, "pad": pad,
        "out_size": out_size, "n_features": n_features,
        "pre_base": pre_base, "bias_base": bias_base,
        "fn_type": o["fn_type"],
        "home_port": o["out_port"], "home_addr": o["out_addr"],
        "steps": tuple(steps),
    })


def _parse_fc_block(
    instrs: Sequence[Instruction], start: int
) -> Optional[_Span]:
    """Match ``MATMUL NDACCUM NDACTFN`` — one FC layer slice."""
    if start + 2 >= len(instrs):
        return None
    mm, acc, act = instrs[start], instrs[start + 1], instrs[start + 2]
    if acc.opcode is not Opcode.NDACCUM or act.opcode is not Opcode.NDACTFN:
        return None
    om = mm.named_operands()
    rows, cols = unpack_shape(om["in2_size"])
    _, n = unpack_shape(om["in1_size"])
    if n != cols or om["is_accum"]:
        return None
    oa = acc.named_operands()
    of = act.named_operands()
    if (
        oa["port"] != om["out_port"] or oa["dst_addr"] != om["out_addr"]
        or oa["size"] != rows
        or of["port"] != om["out_port"] or of["in_addr"] != om["out_addr"]
        or of["size"] != rows
    ):
        return None
    return _Span("fc_block", start, start + 3, {
        "vec_port": om["in1_port"], "vec_addr": om["in1_addr"], "n": n,
        "mat_port": om["in2_port"], "mat_addr": om["in2_addr"],
        "rows": rows,
        "pre_port": om["out_port"], "pre_addr": om["out_addr"],
        "bias_addr": oa["src_addr"], "fn_type": of["fn_type"],
        "home_port": of["out_port"], "home_addr": of["out_addr"],
    })


def _parse_pool_run(
    instrs: Sequence[Instruction], start: int
) -> Optional[_Span]:
    """Match a run of NDSUBSAMPs, grouped into contiguous plane blocks."""
    n = len(instrs)
    j = start
    planes = []
    while j < n and instrs[j].opcode is Opcode.NDSUBSAMP:
        o = instrs[j].named_operands()
        h, w = unpack_shape(o["in_size"])
        planes.append((
            o["port"], o["in_addr"], h, w, o["window"], o["stride"],
            o["samp_type"], o["out_port"], o["out_addr"],
        ))
        j += 1
    if j - start < _MIN_RUN:
        return None
    # Coalesce planes that are contiguous in both source and destination
    # into (count > 1) groups — one pool_forward call per group.
    groups: List[Tuple[int, int, int, int, int, int, int, int, int, int]] = []
    for plane in planes:
        port, in_addr, h, w, window, stride, samp, out_port, out_addr = plane
        out_words = (
            ((h - window) // stride + 1) * ((w - window) // stride + 1)
        )
        if groups:
            g = groups[-1]
            (g_port, g_addr, g_count, g_h, g_w, g_win, g_str, g_samp,
             g_oport, g_oaddr) = g
            if (
                g_port == port and g_h == h and g_w == w
                and g_win == window and g_str == stride and g_samp == samp
                and g_oport == out_port
                and in_addr == g_addr + g_count * h * w
                and out_addr == g_oaddr + g_count * out_words
            ):
                groups[-1] = (
                    g_port, g_addr, g_count + 1, g_h, g_w, g_win, g_str,
                    g_samp, g_oport, g_oaddr,
                )
                continue
        groups.append((
            port, in_addr, 1, h, w, window, stride, samp, out_port,
            out_addr,
        ))
    return _Span("pool_run", start, j, {"groups": tuple(groups)})


def _match_spans(instrs: Sequence[Instruction]) -> List[_Span]:
    spans: List[_Span] = []
    i = 0
    n = len(instrs)
    while i < n:
        instr = instrs[i]
        op = instr.opcode
        span: Optional[_Span] = None
        if op in _FUSABLE:
            if op is Opcode.DMALOAD:
                span = _parse_load_run(instrs, i)
            elif op is Opcode.NDCONV:
                span = _parse_conv_block(instrs, i)
            elif op is Opcode.MATMUL:
                span = _parse_fc_block(instrs, i)
            elif op is Opcode.NDSUBSAMP:
                span = _parse_pool_run(instrs, i)
        if span is not None:
            spans.append(span)
            i = span.end
        else:
            i += 1
    return spans


# ---------------------------------------------------------------------------
# Externality analysis
# ---------------------------------------------------------------------------
def _annotate_superops(table: AccessTable) -> int:
    """Match spans, classify tracker ranges, attach superops to the
    programs of ``table`` (whose arms calibration has accepted).

    Returns the number of instructions covered by superops (0 when the
    program set is unanalyzable and fusion is skipped entirely).
    """
    if table.indirect:
        return 0  # register-indirect operands: cannot analyze
    programs = table.programs
    arms = table.arms
    covering = table.covering
    spans_by_prog = [_match_spans(prog.instructions) for prog in programs]
    covered_by_prog = []
    for spans in spans_by_prog:
        covered: Dict[int, int] = {}
        for si, span in enumerate(spans):
            for pc in range(span.start, span.end):
                covered[pc] = si
        covered_by_prog.append(covered)

    # Pass 1: every data access marks each armed range it overlaps as
    # internal (same program, inside a span) or external.  An arm's
    # last span is the latest (program, span) that touches it.
    internal = [True] * len(arms)
    last_span: List[Optional[Tuple[int, int]]] = [None] * len(arms)
    for pi, rows in enumerate(table.accesses):
        covered = covered_by_prog[pi]
        for pc, reads, writes in rows:
            span_idx = covered.get(pc)
            for port, addr, count in reads + writes:
                for a in covering(port, addr, count):
                    if span_idx is None or arms[a].prog != pi:
                        internal[a] = False
                    elif last_span[a] is None or last_span[a] < (
                        pi, span_idx
                    ):
                        last_span[a] = (pi, span_idx)
    expires: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
    for arm, inside, last in zip(arms, internal, last_span):
        if inside and last is not None:
            expires.setdefault(last, []).append(
                (arm.port, arm.addr, arm.size)
            )

    # Pass 2: build the external quad lists and expire sets per span.
    fused_instrs = 0
    for pi, prog in enumerate(programs):
        spans = spans_by_prog[pi]
        if not spans:
            prog.superops = ()
            continue
        ext_reads: List[List[Tuple[int, int, int]]] = [[] for _ in spans]
        ext_writes: List[List[Tuple[int, int, int]]] = [[] for _ in spans]
        covered = covered_by_prog[pi]
        for pc, reads, writes in table.accesses[pi]:
            si = covered.get(pc)
            if si is None:
                continue
            for quads, out in ((reads, ext_reads), (writes, ext_writes)):
                for port, addr, count in quads:
                    hit = covering(port, addr, count)
                    if hit and all(internal[a] for a in hit):
                        continue  # internal: expired at span end
                    if hit:
                        out[si].append((port, addr, count))
                    # no tracker ever arms this range: drop the quad
        superops = []
        for si, span in enumerate(spans):
            superops.append(SuperOp(
                kind=span.kind,
                start=span.start,
                end=span.end,
                external_reads=tuple(ext_reads[si]),
                external_writes=tuple(ext_writes[si]),
                expire=tuple(sorted(expires.get((pi, si), ()))),
                params=tuple(sorted(span.params.items())),
            ))
            fused_instrs += span.end - span.start
        prog.superops = tuple(superops)
    return fused_instrs


# ---------------------------------------------------------------------------
# The row-based access table, program verifier and fusion blocks
# ---------------------------------------------------------------------------
class AccessTable:
    """Every gated access and armed range of one program set.

    Build it once the pcs are final and share it for the rest of the
    compile; it holds no tracker counts, so calibration does not
    invalidate it.  It is large (a tuple per data instruction), so it
    lives no longer than the compile that built it.
    """

    def __init__(self, programs: Sequence[Program]) -> None:
        self.programs = list(programs)
        #: Per program, ``(pc, reads, writes)`` of each data instruction
        #: whose operands are all immediates.
        self.accesses: List[List[Tuple[int, List[Access], List[Access]]]] = []
        #: ``(prog, pc)`` of every instruction with an operand carrying
        #: the register flag (negative immediates read the same way), in
        #: program order: their accesses are known only at execution.
        self.indirect: List[Tuple[int, int]] = []
        #: Every MEMTRACK / DMA_MEMTRACK, in arming order.
        self.arms: List[ArmedRange] = []
        #: Per program, the coverage code of each read, and of each
        #: write, of :attr:`accesses` in order (:meth:`arms_of` reads
        #: one).  :func:`calibrate_trackers` resolves them once it has
        #: accepted the arms; None until then.
        self.read_arms: Optional[List[array]] = None
        self.write_arms: Optional[List[array]] = None
        #: The arms of each access that covers more than one, by code.
        self.several: List[Tuple[int, ...]] = []
        for prog, program in enumerate(self.programs):
            rows = []
            for pc, instr in enumerate(program.instructions):
                op = instr.opcode
                if op in _DATA_OPCODES:
                    try:
                        reads, writes = instruction_accesses(instr)
                    except SimulationError:
                        if not has_register_operand(instr.operands):
                            raise
                        self.indirect.append((prog, pc))
                        continue
                    rows.append((pc, reads, writes))
                    continue
                if op is Opcode.MEMTRACK or op is Opcode.DMA_MEMTRACK:
                    addr, port, size = instr.operands[:3]
                    if op is Opcode.DMA_MEMTRACK:
                        port = instr.operands[5]  # target
                    self.arms.append(ArmedRange(prog, pc, port, addr, size))
                if has_register_operand(instr.operands):
                    self.indirect.append((prog, pc))
            self.accesses.append(rows)
        #: Per port: the arms' indices sorted by address, and their
        #: starts and ends in the same order.
        self.index: Dict[int, Tuple[List[int], List[int], List[int]]] = {}
        by_port: Dict[int, List[int]] = {}
        for i, arm in enumerate(self.arms):
            by_port.setdefault(arm.port, []).append(i)
        for port, ids in by_port.items():
            ids.sort(key=lambda i: self.arms[i].addr)
            self.index[port] = (
                ids,
                [self.arms[i].addr for i in ids],
                [self.arms[i].addr + self.arms[i].size for i in ids],
            )

    def covering(self, port: int, addr: int, count: int) -> List[int]:
        """Indices of the arms on ``port`` that ``[addr, addr + count)``
        overlaps, in address order.

        Exact once calibration has accepted the arms: every size is at
        least 1 and no two overlap, so the ends ascend with the starts
        and the covered arms form one contiguous run.
        """
        entry = self.index.get(port)
        if entry is None:
            return []
        ids, starts, ends = entry
        first = bisect_right(ends, addr)
        return ids[first:bisect_left(starts, addr + count, first)]

    def resolve_coverage(self) -> None:
        """Resolve :attr:`read_arms` and :attr:`write_arms`: one
        :meth:`covering` per access, kept as one machine word."""
        covering = self.covering
        several = self.several = []
        self.read_arms, self.write_arms = [], []
        for rows in self.accesses:
            for column, per_program in ((1, self.read_arms),
                                        (2, self.write_arms)):
                codes = array("l")
                for port, addr, count in chain.from_iterable(
                    map(itemgetter(column), rows)
                ):
                    hit = covering(port, addr, count)
                    if len(hit) == 1:
                        codes.append(hit[0])
                    elif not hit:
                        codes.append(NO_ARM)
                    else:
                        several.append(tuple(hit))
                        codes.append(NO_ARM - len(several))
                per_program.append(codes)

    def arms_of(self, code: int) -> Sequence[int]:
        """The arms a coverage code names, in address order."""
        if code >= 0:
            return (code,)
        return () if code == NO_ARM else self.several[NO_ARM - 1 - code]


def _merged(
    regions: Iterable[Tuple[int, int, int]],
) -> Dict[int, Tuple[List[int], List[int]]]:
    """Per port, the written words as sorted, disjoint, non-adjacent
    intervals: their starts and their ends."""
    spans: Dict[int, List[Tuple[int, int]]] = {}
    for port, addr, count in regions:
        if count > 0:
            spans.setdefault(port, []).append((addr, addr + count))
    merged: Dict[int, Tuple[List[int], List[int]]] = {}
    for port, intervals in spans.items():
        intervals.sort()
        starts, ends = [intervals[0][0]], [intervals[0][1]]
        for start, end in intervals[1:]:
            if start <= ends[-1]:
                ends[-1] = max(ends[-1], end)
            else:
                starts.append(start)
                ends.append(end)
        merged[port] = (starts, ends)
    return merged


def _unwritten(
    starts: List[int], ends: List[int], addr: int, count: int
) -> Tuple[int, int]:
    """(how many words of ``[addr, addr + count)`` no interval covers,
    the first of them)."""
    end = addr + count
    i = bisect_right(ends, addr)
    missing, first, pos = 0, addr, addr
    while pos < end:
        if i < len(starts) and starts[i] <= pos:
            pos = ends[i]
            i += 1
            continue
        gap_end = min(end, starts[i]) if i < len(starts) else end
        if not missing:
            first = pos
        missing += gap_end - pos
        pos = gap_end
    return missing, first


def verify_programs(
    programs: Sequence[Program],
    shape: MachineShape,
    preloaded: Sequence[Tuple[int, int, int]] = (),
    host_writes: Sequence[Tuple[int, int, int]] = (),
    table: Optional[AccessTable] = None,
) -> List[Issue]:
    """Check a program set; returns the list of findings (empty = ok).

    ``preloaded`` lists (port, addr, words) regions written at machine
    build (weights, biases, the input image's home blocks);
    ``host_writes`` lists regions the host injects between phases.
    ``table`` is the :class:`AccessTable` of ``programs`` when the
    caller already built one; otherwise one is built here.
    """
    if table is None:
        table = AccessTable(programs)
    issues: List[Issue] = []
    valid_port, words = shape.valid_port, shape.words_per_tile

    # 1. Addressing envelope, reads before writes.  Register-indirect
    # instructions are not in the table: they are checked at execution.
    envelope: Tuple[List[Issue], List[Issue]] = ([], [])
    for program, rows in zip(table.programs, table.accesses):
        tile = program.tile
        for pc, row_reads, row_writes in rows:
            for found, quads in ((envelope[0], row_reads),
                                 (envelope[1], row_writes)):
                for port, addr, count in quads:
                    if port == EXTERNAL_PORT:
                        continue
                    if not valid_port(port):
                        found.append(Issue(
                            tile, pc, f"port {port} does not exist"
                        ))
                    elif addr < 0 or addr + count > words:
                        found.append(Issue(
                            tile, pc,
                            f"range [{addr}, {addr + count}) exceeds the "
                            f"{words}-word scratchpad of tile {port}",
                        ))
    issues.extend(envelope[0])
    issues.extend(envelope[1])

    # 2. No reads of never-written scratchpad.  Written intervals are
    # disjoint and apart, so a read one of them holds is fully written.
    written = _merged(chain(
        preloaded, host_writes,
        (
            quad
            for rows in table.accesses
            for _, _, row_writes in rows
            for quad in row_writes
            if quad[0] != EXTERNAL_PORT
        ),
    ))
    nowhere: Tuple[List[int], List[int]] = ([], [])
    for program, rows in zip(table.programs, table.accesses):
        for pc, row_reads, _ in rows:
            for port, addr, count in row_reads:
                if port == EXTERNAL_PORT:
                    continue
                starts, ends = written.get(port, nowhere)
                i = bisect_right(ends, addr)
                if (
                    i < len(starts) and starts[i] <= addr
                    and addr + count <= ends[i]
                ):
                    continue
                missing, first = _unwritten(starts, ends, addr, count)
                if missing:
                    issues.append(Issue(
                        program.tile, pc,
                        f"reads {missing} never-written word(s) of tile "
                        f"{port} starting at {first}",
                    ))

    # 3. Every arm names a scratchpad range the engine can track.  A
    # negative immediate carries the register flag but is no register.
    for prog, pc, port, addr, size in table.arms:
        if any(v >= 0 and is_reg_operand(v) for v in (port, addr, size)):
            continue  # register-indirect: checked at execution
        tile = table.programs[prog].tile
        if port == EXTERNAL_PORT:
            issues.append(Issue(
                tile, pc, "arms a tracker on external memory"
            ))
        elif not shape.valid_port(port):
            issues.append(Issue(
                tile, pc, f"tracker port {port} does not exist"
            ))
        elif addr < 0 or addr + size > shape.words_per_tile:
            issues.append(Issue(
                tile, pc,
                f"tracked range [{addr}, {addr + size}) exceeds the "
                f"{shape.words_per_tile}-word scratchpad of tile {port}",
            ))

    # 4. Tracker-file capacity per tile.
    armed: Dict[int, int] = {}
    for arm in table.arms:
        armed[arm.port] = armed.get(arm.port, 0) + 1
    for port, count in armed.items():
        if count > shape.trackers_per_tile:
            issues.append(Issue(
                "<set>", -1,
                f"tile {port} arms {count} trackers; the tracker file "
                f"holds {shape.trackers_per_tile}",
            ))
    return issues


def _blocks(table: AccessTable, pi: int, spans: Sequence[_Span]):
    """Program ``pi``'s access rows a block at a time: each span's rows,
    and the rows between spans.  Yields ``(span index or None, rows,
    read codes, write codes)``: a block's rows are contiguous, in pc
    order, and so are the coverage codes of their reads and writes."""
    rows = table.accesses[pi]
    pcs = list(map(itemgetter(0), rows))
    read_at = [0, *accumulate(map(len, map(itemgetter(1), rows)))]
    write_at = [0, *accumulate(map(len, map(itemgetter(2), rows)))]
    bounds = []
    row = 0
    for si, span in enumerate(spans):
        lo = bisect_left(pcs, span.start, row)
        hi = bisect_left(pcs, span.end, lo)
        bounds += [(None, row, lo), (si, lo, hi)]
        row = hi
    bounds.append((None, row, len(rows)))
    reads, writes = table.read_arms[pi], table.write_arms[pi]
    for si, lo, hi in bounds:
        if lo < hi:
            yield (
                si, rows[lo:hi], reads[read_at[lo]:read_at[hi]],
                writes[write_at[lo]:write_at[hi]],
            )
