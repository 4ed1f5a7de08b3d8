"""Superop fusion: collapse straight-line instruction runs for the engine.

The code generator emits each layer as a long straight-line sequence of
immediate-operand data instructions — per-feature staging DMAs, one
NDCONV per (feature, source) pair, a bias NDACCUM per feature, one
block-wide NDACTFN.  The engine's pre-decoded fast path still pays a
per-instruction toll for every one of them: closure dispatch, tracker
gating, and — dominating the profile — the decode itself.

This pass pattern-matches those sequences *at compile time* into
:class:`~repro.isa.program.SuperOp` entries attached to each program:

* ``load_run`` — a run of 2+ DMALOADs (input staging, concat/slice
  copies, eltwise accumulation copies);
* ``conv_block`` — a whole convolution layer slice: ``(NDCONV+
  NDACCUM)`` per feature, closed by the block-wide NDACTFN;
* ``fc_block`` — MATMUL + bias NDACCUM + NDACTFN;
* ``pool_run`` — a run of NDSUBSAMPs, pre-grouped into contiguous
  same-shape plane blocks.

For every superop the pass also performs a whole-machine dataflow
analysis over the armed MEMTRACK ranges: a tracker range accessed
*only* from inside fused superops of the program that armed it is
**internal** — its per-quad consumes are unobservable, so the engine
force-expires it when the superop completes (the exact per-instruction
end state).  Every other access stays an **external** quad, peeked and
consumed one at a time so shared-tracker handshakes between tiles are
bit-identical to per-instruction execution.  Accesses to ranges no
tracker ever arms are dropped from the gate entirely.  The analysis
reads the accesses, arms and each access's coverage (resolved by
calibration) from the lowering's
:class:`~repro.compiler.trackers.AccessTable` as whole columns, each
access tagged with the span holding it; a set with any
register-indirect operand is not fused at all, so the matchers see
immediates only, and read them by position.

The pass rewrites no instructions: with fusion off (or an engine that
ignores superops) the same programs execute unchanged.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.passes.manager import Pass, PassContext, PassStats
from repro.compiler.ir import MappingIR
from repro.compiler.trackers import NO_ARM, Accesses, AccessTable
from repro.isa.instructions import (
    DMALOAD, MATMUL, NDACCUM, NDACTFN, NDCONV, NDSUBSAMP, OPERAND_NAMES,
    Instruction,
)
from repro.isa.program import SuperOp
from repro.sim.machine import Access, unpack_shape

#: The opcodes a superop may cover.  Everything else — scalar/control,
#: tracker arms, VECMUL and the other low-count ops — stays on the
#: per-instruction path.
_FUSABLE = frozenset((DMALOAD, NDCONV, NDACCUM, NDACTFN, MATMUL, NDSUBSAMP))

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
#: An NDCONV's layout operands: in_port, in_size, kernel_size, stride,
#: pad and out_port.  A conv block's NDCONVs agree on all of them.
_conv_layout = itemgetter(*(
    OPERAND_NAMES[NDCONV].index(name) for name in (
        "in_port", "in_size", "kernel_size", "stride", "pad", "out_port",
    )
))


def _parse_load_run(instrs: Sequence[Instruction], start: int) -> Optional[_Span]:
    n = len(instrs)
    j = start
    dmas: List[Tuple[int, int, int, int, int, int]] = []
    while j < n and instrs[j].opcode is DMALOAD:
        src_addr, src_port, dst_addr, dst_port, size, accum = (
            instrs[j].operands
        )
        dmas.append((
            src_port, src_addr, dst_port, dst_addr, size, int(bool(accum)),
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
    first = instrs[start].operands
    (_, in_port, in_size, _, kern_size, stride, pad, pre_base, out_port,
     accum) = first
    if accum:
        return None
    layout = _conv_layout(first)
    h, w = unpack_shape(in_size)
    k, _ = unpack_shape(kern_size)
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    out_size = out_h * out_w  # >= 1: the table refuses larger kernels
    features: List[List[Tuple[int, int]]] = []
    bias_addrs: List[int] = []
    i = start
    while i < n and instrs[i].opcode is NDCONV:
        operands = instrs[i].operands
        in_addr, _, _, kernel_addr, _, _, _, out_addr, _, accum = operands
        expected_out = pre_base + len(features) * out_size
        if (
            accum or _conv_layout(operands) != layout
            or out_addr != expected_out
        ):
            return None
        sources = [(in_addr, kernel_addr)]
        i += 1
        while i < n and instrs[i].opcode is NDCONV:
            operands = instrs[i].operands
            in_addr, _, _, kernel_addr, _, _, _, out_addr, _, accum = (
                operands
            )
            if not accum:
                break  # next feature's first source
            if (
                _conv_layout(operands) != layout
                or out_addr != expected_out
            ):
                return None
            sources.append((in_addr, kernel_addr))
            i += 1
        if i >= n or instrs[i].opcode is not NDACCUM:
            return None
        src_addr, port, size, dst_addr = instrs[i].operands
        if port != out_port or dst_addr != expected_out or size != out_size:
            return None
        bias_addrs.append(src_addr)
        features.append(sources)
        i += 1
        if i < n and instrs[i].opcode is NDACTFN:
            break
    if not features or i >= n or instrs[i].opcode is not NDACTFN:
        return None
    fn_type, act_in, port, size, home_addr, home_port = instrs[i].operands
    n_features = len(features)
    if (
        port != out_port or act_in != pre_base
        or size != n_features * out_size
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
        "fn_type": fn_type,
        "home_port": home_port, "home_addr": home_addr,
        "steps": tuple(steps),
    })


def _parse_fc_block(
    instrs: Sequence[Instruction], start: int
) -> Optional[_Span]:
    """Match ``MATMUL NDACCUM NDACTFN`` — one FC layer slice."""
    if start + 2 >= len(instrs):
        return None
    mm, acc, act = instrs[start], instrs[start + 1], instrs[start + 2]
    if acc.opcode is not NDACCUM or act.opcode is not NDACTFN:
        return None
    (vec_addr, vec_port, vec_size, mat_addr, mat_port, mat_size, pre_addr,
     pre_port, accum) = mm.operands
    rows, _ = unpack_shape(mat_size)
    _, n = unpack_shape(vec_size)  # the matrix's width (table-checked)
    if accum:
        return None
    bias_addr, acc_port, acc_size, acc_dst = acc.operands
    fn_type, act_in, act_port, act_size, home_addr, home_port = act.operands
    if (
        acc_port != pre_port or acc_dst != pre_addr or acc_size != rows
        or act_port != pre_port or act_in != pre_addr or act_size != rows
    ):
        return None
    return _Span("fc_block", start, start + 3, {
        "vec_port": vec_port, "vec_addr": vec_addr, "n": n,
        "mat_port": mat_port, "mat_addr": mat_addr,
        "rows": rows,
        "pre_port": pre_port, "pre_addr": pre_addr,
        "bias_addr": bias_addr, "fn_type": fn_type,
        "home_port": home_port, "home_addr": home_addr,
    })


def _parse_pool_run(
    instrs: Sequence[Instruction], start: int
) -> Optional[_Span]:
    """Match a run of NDSUBSAMPs, grouped into contiguous plane blocks."""
    n = len(instrs)
    j = start
    planes = []
    while j < n and instrs[j].opcode is NDSUBSAMP:
        (samp, in_addr, port, in_size, window, stride, out_addr,
         out_port) = instrs[j].operands
        h, w = unpack_shape(in_size)
        planes.append((
            port, in_addr, h, w, window, stride, samp, out_port, out_addr,
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
            if op is DMALOAD:
                span = _parse_load_run(instrs, i)
            elif op is NDCONV:
                span = _parse_conv_block(instrs, i)
            elif op is MATMUL:
                span = _parse_fc_block(instrs, i)
            elif op is NDSUBSAMP:
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
def _span_of(accesses: Accesses, spans_by_prog) -> np.ndarray:
    """Per access, the index of the span of its program holding its
    pc, or -1."""
    span = np.full(len(accesses.pc), -1, np.int64)
    for pi, spans in enumerate(spans_by_prog):
        lo, hi = accesses.at[pi], accesses.at[pi + 1]
        if not spans or lo == hi:
            continue
        pcs = accesses.pc[lo:hi]
        starts = np.array([s.start for s in spans], np.int64)
        ends = np.array([s.end for s in spans], np.int64)
        si = np.searchsorted(starts, pcs, "right") - 1
        inside = (si >= 0) & (pcs < ends[si])
        span[lo:hi] = np.where(inside, si, -1)
    return span


def _annotate_superops(table: AccessTable) -> int:
    """Match spans, classify tracker ranges, attach superops to the
    programs of ``table`` (whose arms calibration has accepted, and whose
    coverage it has resolved).

    Returns the number of instructions covered by superops (0 when the
    program set is unanalyzable and fusion is skipped entirely).
    """
    if table.indirect:
        return 0  # register-indirect operands: cannot analyze
    programs = table.programs
    arms = table.arms
    spans_by_prog = [_match_spans(prog.instructions) for prog in programs]
    kinds = (table.reads, table.writes)
    codes = (table.read_arms, table.write_arms)
    spans = [_span_of(accesses, spans_by_prog) for accesses in kinds]

    # Pass 1: every data access marks each armed range it overlaps as
    # internal (same program, inside a span) or external.  An arm's
    # last span is the latest span of its program that touches it.
    # Each (access, arm) pair: an access covering one arm is one pair,
    # and one covering several (a rare code) is expanded.
    arm_of, prog_of, span_of = [], [], []
    for accesses, code, span in zip(kinds, codes, spans):
        one = code >= 0
        arm_of.append(code[one])
        prog_of.append(accesses.prog[one])
        span_of.append(span[one])
        for i in np.flatnonzero(code < NO_ARM).tolist():
            covered = table.arms_of(int(code[i]))
            arm_of.append(np.array(covered, np.int64))
            prog_of.append(np.full(len(covered), accesses.prog[i]))
            span_of.append(np.full(len(covered), span[i]))
    arm_of, prog_of, span_of = map(np.concatenate, (arm_of, prog_of, span_of))
    arm_prog = np.array([arm.prog for arm in arms], np.int64)
    own = (span_of >= 0) & (arm_prog[arm_of] == prog_of)
    internal = np.ones(len(arms), bool)
    internal[arm_of[~own]] = False
    last_span = np.full(len(arms), -1, np.int64)
    np.maximum.at(last_span, arm_of[own], span_of[own])
    expires: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
    for arm, inside, last in zip(arms, internal.tolist(), last_span.tolist()):
        if inside and last >= 0:
            expires.setdefault((arm.prog, last), []).append(
                (arm.port, arm.addr, arm.size)
            )

    # Pass 2: build the external quad lists and expire sets per span.
    # A quad over internal ranges is expired at its span's end, and one
    # over ranges no tracker ever arms is dropped.
    external: List[Dict[Tuple[int, int], Tuple[Access, ...]]] = []
    for accesses, code, span in zip(kinds, codes, spans):
        ext = code >= 0
        ext[ext] = ~internal[code[ext]]
        for i in np.flatnonzero(code < NO_ARM).tolist():
            ext[i] = not internal[list(table.arms_of(int(code[i])))].all()
        at = np.flatnonzero(ext & (span >= 0))
        quads = accesses.quads(at)
        keys = list(zip(accesses.prog[at].tolist(), span[at].tolist()))
        cuts = [0, *(np.flatnonzero(
            np.diff(accesses.prog[at]) | np.diff(span[at])
        ) + 1).tolist(), len(at)]
        external.append({
            keys[lo]: tuple(quads[lo:hi])
            for lo, hi in zip(cuts, cuts[1:]) if lo < hi
        })
    ext_reads, ext_writes = external
    fused_instrs = 0
    for pi, prog in enumerate(programs):
        superops = []
        for si, span in enumerate(spans_by_prog[pi]):
            superops.append(SuperOp(
                kind=span.kind,
                start=span.start,
                end=span.end,
                external_reads=ext_reads.get((pi, si), ()),
                external_writes=ext_writes.get((pi, si), ()),
                expire=tuple(sorted(expires.get((pi, si), ()))),
                params=tuple(sorted(span.params.items())),
            ))
            fused_instrs += span.end - span.start
        prog.superops = tuple(superops)
    return fused_instrs


class FusePass(Pass):
    """Attach superop fusion plans to the lowered programs."""

    name = "fuse"

    def run(
        self, ir: MappingIR, ctx: PassContext, stats: PassStats
    ) -> MappingIR:
        programs = list(ctx.programs)
        if not programs:
            return ir
        fused = _annotate_superops(ctx.accesses)
        total = sum(len(p.instructions) for p in programs)
        stats.notes["fused_instructions"] = fused
        stats.notes["superops"] = sum(len(p.superops) for p in programs)
        stats.notes["coverage"] = round(fused / total, 4) if total else 0.0
        return ir
