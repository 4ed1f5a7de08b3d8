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
:class:`~repro.compiler.trackers.AccessTable`, a span at a time; a set
with any register-indirect operand is not fused at all, so the
matchers see immediates only, and read them by position.

The pass rewrites no instructions: with fusion off (or an engine that
ignores superops) the same programs execute unchanged.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain, compress
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler.passes.manager import Pass, PassContext, PassStats
from repro.compiler.ir import MappingIR
from repro.compiler.trackers import AccessTable
from repro.isa.instructions import OPERAND_NAMES, Instruction, Opcode
from repro.isa.program import SuperOp
from repro.sim.machine import Access, unpack_shape

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
#: An NDCONV's layout operands: in_port, in_size, kernel_size, stride,
#: pad and out_port.  A conv block's NDCONVs agree on all of them.
_conv_layout = itemgetter(*(
    OPERAND_NAMES[Opcode.NDCONV].index(name) for name in (
        "in_port", "in_size", "kernel_size", "stride", "pad", "out_port",
    )
))


def _parse_load_run(instrs: Sequence[Instruction], start: int) -> Optional[_Span]:
    n = len(instrs)
    j = start
    dmas: List[Tuple[int, int, int, int, int, int]] = []
    while j < n and instrs[j].opcode is Opcode.DMALOAD:
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
    out_size = out_h * out_w
    if out_size <= 0:
        return None
    features: List[List[Tuple[int, int]]] = []
    bias_addrs: List[int] = []
    i = start
    while i < n and instrs[i].opcode is Opcode.NDCONV:
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
        while i < n and instrs[i].opcode is Opcode.NDCONV:
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
        if i >= n or instrs[i].opcode is not Opcode.NDACCUM:
            return None
        src_addr, port, size, dst_addr = instrs[i].operands
        if port != out_port or dst_addr != expected_out or size != out_size:
            return None
        bias_addrs.append(src_addr)
        features.append(sources)
        i += 1
        if i < n and instrs[i].opcode is Opcode.NDACTFN:
            break
    if not features or i >= n or instrs[i].opcode is not Opcode.NDACTFN:
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
    if acc.opcode is not Opcode.NDACCUM or act.opcode is not Opcode.NDACTFN:
        return None
    (vec_addr, vec_port, vec_size, mat_addr, mat_port, mat_size, pre_addr,
     pre_port, accum) = mm.operands
    rows, cols = unpack_shape(mat_size)
    _, n = unpack_shape(vec_size)
    if n != cols or accum:
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
    while j < n and instrs[j].opcode is Opcode.NDSUBSAMP:
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
    arms_of = table.arms_of
    spans_by_prog = [_match_spans(prog.instructions) for prog in programs]

    # Pass 1: every data access marks each armed range it overlaps as
    # internal (same program, inside a span) or external.  An arm's
    # last span is the latest span of its program that touches it.
    internal = [True] * len(arms)
    last_span: List[Optional[int]] = [None] * len(arms)
    for pi, spans in enumerate(spans_by_prog):
        for si, _, reads, writes in _blocks(table, pi, spans):
            for code in set(reads).union(writes):
                for a in arms_of(code):
                    if si is None or arms[a].prog != pi:
                        internal[a] = False
                    else:
                        last_span[a] = si
    expires: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
    for arm, inside, last in zip(arms, internal, last_span):
        if inside and last is not None:
            expires.setdefault((arm.prog, last), []).append(
                (arm.port, arm.addr, arm.size)
            )

    # Pass 2: build the external quad lists and expire sets per span.
    # A quad over internal ranges is expired at its span's end, and one
    # over ranges no tracker ever arms is dropped.
    fused_instrs = 0
    for pi, prog in enumerate(programs):
        spans = spans_by_prog[pi]
        if not spans:
            prog.superops = ()
            continue
        ext_reads: List[Tuple[Access, ...]] = [()] * len(spans)
        ext_writes: List[Tuple[Access, ...]] = [()] * len(spans)
        for si, rows, reads, writes in _blocks(table, pi, spans):
            if si is None:
                continue
            external = {
                code for code in set(reads).union(writes)
                if not all(internal[a] for a in arms_of(code))
            }
            if external:
                for column, codes, out in (
                    (1, reads, ext_reads), (2, writes, ext_writes),
                ):
                    out[si] = tuple(compress(
                        chain.from_iterable(map(itemgetter(column), rows)),
                        map(external.__contains__, codes),
                    ))
        superops = []
        for si, span in enumerate(spans):
            superops.append(SuperOp(
                kind=span.kind,
                start=span.start,
                end=span.end,
                external_reads=ext_reads[si],
                external_writes=ext_writes[si],
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
