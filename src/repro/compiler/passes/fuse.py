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
reads the accesses and arms from the lowering's
:class:`~repro.compiler.trackers.AccessTable`; a set with any
register-indirect operand is not fused at all, so the matchers see
immediates only.

The pass rewrites no instructions: with fusion off (or an engine that
ignores superops) the same programs execute unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler.passes.manager import Pass, PassContext, PassStats
from repro.compiler.ir import MappingIR
from repro.compiler.trackers import AccessTable
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import SuperOp
from repro.sim.machine import unpack_shape

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
