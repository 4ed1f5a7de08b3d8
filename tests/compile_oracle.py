"""The compiler's static analysis before it read each instruction's
operands by position and each access's tracker coverage once, kept as a
test oracle.

Until then, :func:`instruction_accesses` unpacked an instruction's
operands into a dict by name, :func:`calibrate_trackers` asked
:meth:`~repro.compiler.trackers.AccessTable.covering` for every access,
and fusion's :func:`_annotate_superops` asked it again in each of its
two passes, matching spans over named operands.  The functions below
are those verbatim (``check_code`` with its dict signature, which the
old :func:`instruction_accesses` calls).  They read an
:class:`~repro.compiler.trackers.AccessTable` only through its
``programs``, ``accesses``, ``arms``, ``index``, ``indirect`` and
``covering``.  ``tests/test_compile_oracle.py`` checks that the
compiler computes the same accesses, tracker counts and superops.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler.trackers import AccessTable
from repro.dnn.layers import PoolMode
from repro.errors import ProgramError, SimulationError
from repro.isa.instructions import Instruction, Opcode, make
from repro.isa.program import Program, SuperOp
from repro.sim.machine import (
    Access,
    CODE_TO_SAMP,
    UPSAMP_MODES,
    UPSAMP_ZERO_INSERT,
    _conv_out_extent_words,
    check_stride,
    check_window,
    is_reg_operand,
    unpack_shape,
)


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
