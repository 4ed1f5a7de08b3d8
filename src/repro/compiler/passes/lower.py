"""Lower: turn scheduled IR ops into per-tile ISA programs.

This is the one emission module behind the forward and the training
compiler.  Every op in ``ir.schedule`` lowers to one program through
:class:`EngineEmitter`:

* **trackers** — every MEMTRACK is armed with placeholder counts, and
  :class:`LowerPass` builds the finished programs' access table
  (:class:`~repro.compiler.trackers.AccessTable`, left on the context
  for fusion and the verifier) and calibrates through it
  (:func:`~repro.compiler.trackers.calibrate_trackers`) to fill in the
  exact update/read numbers — the paper's premise that each location's
  access sequence "can be ascertained at compile time" (Sec 3.2.4),
  made a program.  Fan-out to several consumers, the backward wave's
  extra readers of FP outputs, and the host-injected loss gradient
  (passed in as an external update) need no hand bookkeeping;
* **training** — when the IR carries BP/WG ops, error regions are
  allocated before any FP emission (allocation order determines
  addresses), and each WG op also emits its deferred weight-update
  program in minibatch mode.

The FP bodies use the general DAG forms: per-feature source lists for
grouped/table convolutions and block-searching pool reads.  Comments
are part of the disassembly, so the golden byte-identity tests pin
them too.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.compiler.ir import IROp, MappingIR, Phase
from repro.compiler.partition import FeatureHome
from repro.compiler.passes.manager import Pass, PassContext, PassStats
from repro.compiler.templates import (
    Preload,
    align_prologues,
    arm_placeholder_tracker,
    port_of,
)
from repro.compiler.trackers import AccessTable, calibrate_trackers
from repro.dnn.layers import (
    ConcatSpec,
    ConvSpec,
    EltwiseMulSpec,
    FCSpec,
    GlobalPoolSpec,
    LayerKind,
    PoolMode,
    PoolSpec,
    SliceSpec,
)
from repro.dnn.network import LayerNode
from repro.errors import MappingError
from repro.isa.instructions import Instruction, Opcode, make
from repro.isa.program import Program
from repro.sim.engine import (
    ACT_CODES,
    SAMP_CODES,
    UPSAMP_ZERO_INSERT,
)
from repro.sim.machine import pack_shape


class EngineEmitter:
    """Emits one ISA program per scheduled IR op."""

    def __init__(self, ir: MappingIR, ctx: PassContext) -> None:
        self.ir = ir
        self.net = ctx.net
        self.model = ctx.model
        self.partition = ctx.partition
        self.rows = ctx.rows
        self.minibatch = ctx.minibatch
        self.lr_num, self.lr_denom = ctx.learning_rate
        self.training = any(op.phase is not Phase.FP for op in ir.ops)
        self.preloads: List[Preload] = []
        self.programs: List[Program] = []
        self.update_programs: List[Program] = []
        self.err_injection: Optional[Tuple[int, int, int]] = None
        #: err[L] home blocks; allocated before FP emission so the
        #: address map is independent of the schedule.
        self._err_blocks: Dict[str, List[Tuple[FeatureHome, int]]] = {}
        if self.training:
            self._alloc_err_blocks()

    # ------------------------------------------------------------------
    def _port(self, col: int, row: int) -> int:
        return port_of(self.rows, col, row)

    def _home(self, layer: str, row: int) -> FeatureHome:
        for block in self.partition.blocks_of(layer):
            if block.row == row:
                return block
        raise MappingError(f"no home block for {layer} at row {row}")

    # ------------------------------------------------------------------
    def emit(self, op: IROp) -> None:
        """Lower one scheduled op to its program."""
        if op.kind == "inject":
            self.programs.append(self._emit_injection_tracker())
            return
        node = self.net[op.layer]
        if op.phase is Phase.FP:
            if node.kind is LayerKind.INPUT:
                return  # host-written pseudo-op
            self.programs.append(self._emit_fp(node, self._home(
                op.layer, op.row
            )))
        elif op.phase is Phase.BP:
            if node.kind is LayerKind.SAMP:
                self.programs.append(self._emit_pool_bp(node, op.row))
            else:
                self.programs.append(self._emit_bp(node, op.row))
        else:
            self.programs.append(self._emit_wg(node, self._home(
                op.layer, op.row
            )))

    def _emit_fp(self, node: LayerNode, home: FeatureHome) -> Program:
        spec = node.spec
        if isinstance(spec, ConvSpec):
            return self._emit_conv_fp(node, home)
        if isinstance(spec, FCSpec):
            return self._emit_fc_fp(node, home)
        if isinstance(spec, (PoolSpec, GlobalPoolSpec)):
            return self._emit_pool_fp(node, home)
        if isinstance(spec, ConcatSpec):
            return self._emit_concat(node, home)
        if isinstance(spec, SliceSpec):
            return self._emit_slice(node, home)
        return self._emit_eltwise(node, home)

    # ------------------------------------------------------------------
    # Shared tracker/staging emission
    # ------------------------------------------------------------------
    def _out_tracker(
        self, prog: Program, node: LayerNode, home: FeatureHome, col: int
    ) -> None:
        """Arm the tracker guarding a home output block."""
        arm_placeholder_tracker(
            prog, self._port(col, home.row), home.address,
            home.feature_count * home.feature_words, f"{node.name} outputs",
        )

    def _copy_features(
        self,
        body: List[Instruction],
        src: LayerNode,
        feature_lo: int,
        feature_hi: int,
        dst_port: int,
        dst_addr: int,
        accum: int = 0,
        src_feature_offset: int = 0,
    ) -> None:
        """DMA features [feature_lo, feature_hi) of ``src`` (offset by
        ``src_feature_offset`` in the source's own numbering) into a
        contiguous destination, one DMA per overlapping source block."""
        src_col = self.partition.column_of[src.name]
        fwords = src.output_shape.feature_size
        for block in self.partition.blocks_of(src.name):
            lo = max(feature_lo + src_feature_offset, block.first_feature)
            hi = min(
                feature_hi + src_feature_offset,
                block.first_feature + block.feature_count,
            )
            if lo >= hi:
                continue
            body.append(make(
                Opcode.DMALOAD,
                src_addr=block.feature_address(lo),
                src_port=self._port(src_col, block.row),
                dst_addr=dst_addr
                + (lo - src_feature_offset - feature_lo) * fwords,
                dst_port=dst_port,
                size=(hi - lo) * fwords,
                is_accum=accum,
                comment=f"copy {src.name}[{lo}:{hi}]",
            ))

    def _stage_all(
        self,
        prog: Program,
        body: List[Instruction],
        src: LayerNode,
        col: int,
        row: int,
        tag: str,
    ) -> int:
        """Stage every feature of ``src`` into tile (col-1, row) under
        one tracker; returns the staging base address."""
        total = src.output_shape.elements
        base = self.partition.allocator(col - 1, row).alloc(
            f"{tag}/stage@r{row}", total
        )
        port = self._port(col - 1, row)
        arm_placeholder_tracker(
            prog, port, base, total, f"staged {src.name}"
        )
        self._copy_features(body, src, 0, src.output_shape.count, port, base)
        return base

    # ------------------------------------------------------------------
    # FP bodies
    # ------------------------------------------------------------------
    def _emit_conv_fp(self, node: LayerNode, home: FeatureHome) -> Program:
        spec = node.spec
        assert isinstance(spec, ConvSpec)
        src = self.net[node.input_names[0]]
        col = self.partition.column_of[node.name]
        in_shape = node.input_shapes[0]
        out_size = node.output_shape.feature_size
        k = spec.kernel
        weights = self.model.state[node.name].weights
        bias = self.model.state[node.name].bias

        row = home.row
        left = self._port(col - 1, row)
        right = self._port(col, row)
        prog = Program(tile=f"{node.name}@c{col}r{row}")
        body: List[Instruction] = []

        # Trackers (prologue).
        self._out_tracker(prog, node, home, col)
        stage_base = self._stage_all(prog, body, src, col, row, node.name)

        # Pre-activation region plus a preserved bias-broadcast
        # region: the first NDCONV per output overwrites stale data,
        # so the same programs re-run image after image.
        alloc = self.partition.allocator(col, row)
        pre_base = alloc.alloc(
            f"{node.name}/pre@r{row}", home.feature_count * out_size
        )
        bias_base = alloc.alloc(
            f"{node.name}/bias@r{row}", home.feature_count * out_size
        )
        self.preloads.append(Preload(
            col, row, bias_base,
            np.repeat(
                bias[home.first_feature:
                     home.first_feature + home.feature_count],
                out_size,
            ),
        ))
        arm_placeholder_tracker(
            prog, right, pre_base, home.feature_count * out_size,
            f"{node.name} partial sums",
        )

        # Each output feature's input sources as (global input index,
        # kernel plane index): tables store kernels densely at the
        # *global* input index (masked-dense layout), groups at the
        # *within-group* index.  For plain groups=1 convolutions this
        # is the identity enumeration of every input feature.
        def sources_of(feature: int):
            if spec.connection_table is not None:
                return [
                    (g, g) for g in spec.connection_table[feature]
                ]
            per_out = node.output_shape.count // spec.groups
            in_per = in_shape.count // spec.groups
            group = feature // per_out
            return [
                (group * in_per + local, local)
                for local in range(in_per)
            ]

        kwords = k * k
        kernel_slots = sum(
            len(sources_of(home.first_feature + f_local))
            for f_local in range(home.feature_count)
        )
        kern_base = self.partition.allocator(col - 1, row).alloc(
            f"{node.name}/kernels@r{row}", kernel_slots * kwords
        )
        # Pack kernels ragged: for output f, one k*k kernel per
        # connected source, in source order.  Dense weights store
        # (out, in/groups, k, k): source index within the group (or
        # within the table row) selects the kernel plane.
        packed = []
        for f_local in range(home.feature_count):
            feature = home.first_feature + f_local
            for _, plane in sources_of(feature):
                packed.append(weights[feature, plane])
        self.preloads.append(Preload(
            col - 1, row, kern_base, np.stack(packed)
        ))

        # Body: batch convolution, Fig 9 steps 1-2, then bias.
        fwords = in_shape.feature_size
        slot = 0
        for f_local in range(home.feature_count):
            feature = home.first_feature + f_local
            for i, (g, _) in enumerate(sources_of(feature)):
                body.append(make(
                    Opcode.NDCONV,
                    in_addr=stage_base + g * fwords,
                    in_port=left,
                    in_size=pack_shape(in_shape.height, in_shape.width),
                    kernel_addr=kern_base + slot * kwords,
                    kernel_size=pack_shape(k, k),
                    stride=spec.stride,
                    pad=spec.pad,
                    out_addr=pre_base + f_local * out_size,
                    out_port=right,
                    is_accum=int(i > 0),
                ))
                slot += 1
            body.append(make(
                Opcode.NDACCUM,
                src_addr=bias_base + f_local * out_size,
                port=right,
                size=out_size,
                dst_addr=pre_base + f_local * out_size,
            ))
        # Step 4: activation into the home block.
        body.append(make(
            Opcode.NDACTFN,
            fn_type=ACT_CODES.get(spec.activation, 0),
            in_addr=pre_base,
            port=right,
            size=home.feature_count * out_size,
            out_addr=home.address,
            out_port=right,
        ))
        prog.extend(body)
        prog.append(make(Opcode.HALT))
        return prog

    def _emit_fc_fp(self, node: LayerNode, home: FeatureHome) -> Program:
        spec = node.spec
        assert isinstance(spec, FCSpec)
        src = self.net[node.input_names[0]]
        col = self.partition.column_of[node.name]
        in_elems = node.input_shapes[0].elements
        weights = self.model.state[node.name].weights
        bias = self.model.state[node.name].bias

        row = home.row
        left = self._port(col - 1, row)
        right = self._port(col, row)
        prog = Program(tile=f"{node.name}@c{col}r{row}")
        body: List[Instruction] = []
        self._out_tracker(prog, node, home, col)
        stage_base = self._stage_all(prog, body, src, col, row, node.name)

        alloc = self.partition.allocator(col, row)
        pre_base = alloc.alloc(
            f"{node.name}/pre@r{row}", home.feature_count
        )
        bias_base = alloc.alloc(
            f"{node.name}/bias@r{row}", home.feature_count
        )
        self.preloads.append(Preload(
            col, row, bias_base,
            bias[home.first_feature:
                 home.first_feature + home.feature_count].copy(),
        ))
        arm_placeholder_tracker(
            prog, right, pre_base, home.feature_count,
            f"{node.name} pre-activation",
        )

        w_base = self.partition.allocator(col - 1, row).alloc(
            f"{node.name}/weights@r{row}",
            home.feature_count * in_elems,
        )
        self.preloads.append(Preload(
            col - 1, row, w_base,
            weights[home.first_feature:
                    home.first_feature + home.feature_count].reshape(-1),
        ))

        body.append(make(
            Opcode.MATMUL,
            in1_addr=stage_base,
            in1_port=left,
            in1_size=pack_shape(1, in_elems),
            in2_addr=w_base,
            in2_port=left,
            in2_size=pack_shape(home.feature_count, in_elems),
            out_addr=pre_base,
            out_port=right,
            is_accum=0,
        ))
        body.append(make(
            Opcode.NDACCUM,
            src_addr=bias_base,
            port=right,
            size=home.feature_count,
            dst_addr=pre_base,
        ))
        body.append(make(
            Opcode.NDACTFN,
            fn_type=ACT_CODES.get(spec.activation, 0),
            in_addr=pre_base,
            port=right,
            size=home.feature_count,
            out_addr=home.address,
            out_port=right,
        ))
        prog.extend(body)
        prog.append(make(Opcode.HALT))
        return prog

    def _emit_pool_fp(self, node: LayerNode, home: FeatureHome) -> Program:
        spec = node.spec
        src = self.net[node.input_names[0]]
        src_col = self.partition.column_of[src.name]
        col = self.partition.column_of[node.name]
        in_shape = node.input_shapes[0]
        if isinstance(spec, PoolSpec):
            window, stride, mode = (
                spec.window, spec.effective_stride, spec.mode
            )
        else:
            assert isinstance(spec, GlobalPoolSpec)
            window = stride = in_shape.height
            mode = spec.mode
        src_blocks = self.partition.blocks_of(src.name)

        def src_location(feature: int) -> Tuple[int, int]:
            for block in src_blocks:
                if (block.first_feature <= feature
                        < block.first_feature + block.feature_count):
                    return (
                        self._port(src_col, block.row),
                        block.feature_address(feature),
                    )
            raise MappingError(f"feature {feature} unplaced in {src.name}")

        row = home.row
        right = self._port(col, row)
        prog = Program(tile=f"{node.name}@c{col}r{row}")
        self._out_tracker(prog, node, home, col)
        pad = spec.pad if isinstance(spec, PoolSpec) else 0
        if pad:
            # Padded pooling (forward only — legalize enforces pad <
            # window, and MAX additionally a non-negative input):
            # stage each source plane into the interior of a padded
            # (ph, pw) scratch plane on the left-neighbour tile, then
            # pool the staged planes unpadded.  The scratch block is
            # preloaded with zeros at machine build and only its
            # interiors are ever rewritten, so the borders stay 0.0 —
            # equal to the reference's 0.0 AVG fill exactly, and to its
            # -inf MAX fill for the non-negative inputs legalize
            # admits.  All row DMAs are emitted before all NDSUBSAMPs
            # so the fusion pass sees one fat load run and one fat
            # pool run.
            h, w = in_shape.height, in_shape.width
            ph, pw = h + 2 * pad, w + 2 * pad
            left = self._port(col - 1, row)
            stage_words = home.feature_count * ph * pw
            base = self.partition.allocator(col - 1, row).alloc(
                f"{node.name}/padstage@r{row}", stage_words,
            )
            self.preloads.append(Preload(
                col - 1, row, base, np.zeros(stage_words, np.float32),
            ))
            arm_placeholder_tracker(
                prog, left, base, stage_words,
                f"{node.name} padded staging",
            )
            body: List[Instruction] = []
            for f_local in range(home.feature_count):
                src_port, src_addr = src_location(
                    home.first_feature + f_local
                )
                plane = base + f_local * ph * pw
                for y in range(h):
                    body.append(make(
                        Opcode.DMALOAD,
                        src_addr=src_addr + y * w,
                        src_port=src_port,
                        dst_addr=plane + (y + pad) * pw + pad,
                        dst_port=left,
                        size=w,
                        is_accum=0,
                    ))
            for f_local in range(home.feature_count):
                body.append(make(
                    Opcode.NDSUBSAMP,
                    samp_type=SAMP_CODES[mode],
                    in_addr=base + f_local * ph * pw,
                    port=left,
                    in_size=pack_shape(ph, pw),
                    window=window,
                    stride=stride,
                    out_addr=home.address + f_local * home.feature_words,
                    out_port=right,
                ))
            prog.extend(body)
            prog.append(make(Opcode.HALT))
            return prog
        for f_local in range(home.feature_count):
            src_port, src_addr = src_location(home.first_feature + f_local)
            prog.append(make(
                Opcode.NDSUBSAMP,
                samp_type=SAMP_CODES[mode],
                in_addr=src_addr,
                port=src_port,
                in_size=pack_shape(in_shape.height, in_shape.width),
                window=window,
                stride=stride,
                out_addr=home.address + f_local * home.feature_words,
                out_port=right,
            ))
        prog.append(make(Opcode.HALT))
        return prog

    def _emit_concat(self, node: LayerNode, home: FeatureHome) -> Program:
        col = self.partition.column_of[node.name]
        sources = [self.net[s] for s in node.input_names]
        offsets = []
        offset = 0
        for src in sources:
            offsets.append(offset)
            offset += src.output_shape.count
        row = home.row
        right = self._port(col, row)
        prog = Program(tile=f"{node.name}@c{col}r{row}")
        body: List[Instruction] = []
        self._out_tracker(prog, node, home, col)
        lo, hi = home.first_feature, (
            home.first_feature + home.feature_count
        )
        for src, src_offset in zip(sources, offsets):
            s_lo = max(lo, src_offset)
            s_hi = min(hi, src_offset + src.output_shape.count)
            if s_lo >= s_hi:
                continue
            self._copy_features(
                body, src,
                feature_lo=s_lo - src_offset,
                feature_hi=s_hi - src_offset,
                dst_port=right,
                dst_addr=home.address
                + (s_lo - lo) * home.feature_words,
            )
        prog.extend(body)
        prog.append(make(Opcode.HALT))
        return prog

    def _emit_slice(self, node: LayerNode, home: FeatureHome) -> Program:
        spec = node.spec
        assert isinstance(spec, SliceSpec)
        col = self.partition.column_of[node.name]
        src = self.net[node.input_names[0]]
        row = home.row
        right = self._port(col, row)
        prog = Program(tile=f"{node.name}@c{col}r{row}")
        body: List[Instruction] = []
        self._out_tracker(prog, node, home, col)
        self._copy_features(
            body, src,
            feature_lo=home.first_feature,
            feature_hi=home.first_feature + home.feature_count,
            dst_port=right,
            dst_addr=home.address,
            src_feature_offset=spec.start,
        )
        prog.extend(body)
        prog.append(make(Opcode.HALT))
        return prog

    def _emit_eltwise(self, node: LayerNode, home: FeatureHome) -> Program:
        spec = node.spec
        col = self.partition.column_of[node.name]
        sources = [self.net[s] for s in node.input_names]
        row = home.row
        right = self._port(col, row)
        words = home.feature_count * home.feature_words
        prog = Program(tile=f"{node.name}@c{col}r{row}")
        body: List[Instruction] = []
        self._out_tracker(prog, node, home, col)
        alloc = self.partition.allocator(col, row)
        lo = home.first_feature
        hi = home.first_feature + home.feature_count

        if isinstance(spec, EltwiseMulSpec):
            acc1 = alloc.alloc(f"{node.name}/opA@r{row}", words)
            acc2 = alloc.alloc(f"{node.name}/opB@r{row}", words)
            arm_placeholder_tracker(prog, right, acc1, words, "operand A")
            arm_placeholder_tracker(prog, right, acc2, words, "operand B")
            self._copy_features(body, sources[0], lo, hi, right, acc1)
            self._copy_features(body, sources[1], lo, hi, right, acc2)
            body.append(make(
                Opcode.VECMUL,
                in1_addr=acc1, in2_addr=acc2, port=right,
                size=words, out_addr=home.address,
            ))
        else:
            # Element-wise sum (possibly >2 operands) or standalone
            # activation (one operand): accumulate then activate.
            acc = alloc.alloc(f"{node.name}/acc@r{row}", words)
            arm_placeholder_tracker(prog, right, acc, words, "accumulator")
            for i, src in enumerate(sources):
                self._copy_features(
                    body, src, lo, hi, right, acc, accum=int(i > 0)
                )
            fn = spec.activation  # type: ignore[attr-defined]
            body.append(make(
                Opcode.NDACTFN,
                fn_type=ACT_CODES[fn],
                in_addr=acc,
                port=right,
                size=words,
                out_addr=home.address,
                out_port=right,
            ))
        prog.extend(body)
        prog.append(make(Opcode.HALT))
        return prog

    # ------------------------------------------------------------------
    # Training bookkeeping
    # ------------------------------------------------------------------
    def _pred(self, node: LayerNode) -> LayerNode:
        return self.net[node.input_names[0]]

    def _is_weighted(self, node: LayerNode) -> bool:
        return node.kind in (LayerKind.CONV, LayerKind.FC)

    def _alloc_err_blocks(self) -> None:
        """Allocate err[L] regions mirroring each layer's home blocks."""
        for node in self.net:
            if node.kind is LayerKind.INPUT:
                continue
            col = self.partition.column_of[node.name]
            entries: List[Tuple[FeatureHome, int]] = []
            for home in self.partition.blocks_of(node.name):
                addr = self.partition.allocator(col, home.row).alloc(
                    f"{node.name}/err@r{home.row}",
                    home.feature_count * home.feature_words,
                )
                entries.append((home, addr))
            self._err_blocks[node.name] = entries

    def _err_block(self, layer: str, row: int) -> Tuple[FeatureHome, int]:
        for home, addr in self._err_blocks[layer]:
            if home.row == row:
                return home, addr
        raise MappingError(f"no err block for {layer} at row {row}")

    def _emit_injection_tracker(self) -> Program:
        """The output layer's error tracker: armed in its own program so
        the host's injection is the counted single update."""
        final = self.net.output
        fin_home, fin_addr = self._err_block(final.name, 0)
        port = self._port(
            self.partition.column_of[final.name], fin_home.row
        )
        size = fin_home.feature_count * fin_home.feature_words
        prog = Program(tile="err-injection-tracker")
        arm_placeholder_tracker(
            prog, port, fin_addr, size, "loss gradient injection point"
        )
        prog.append(make(Opcode.HALT))
        self.err_injection = (port, fin_addr, size)
        return prog

    # ------------------------------------------------------------------
    # BP of weighted layers
    # ------------------------------------------------------------------
    def _stage_err(
        self, prog: Program, body: List[Instruction], node: LayerNode,
        col: int, row: int, tag: str,
    ) -> int:
        """Stage all of err[node] into tile (col, row); returns base."""
        blocks = self._err_blocks[node.name]
        fwords = node.output_shape.feature_size
        total = node.output_shape.count * fwords
        base = self.partition.allocator(col, row).alloc(
            f"{tag}/errstage@r{row}", total
        )
        port = self._port(col, row)
        arm_placeholder_tracker(
            prog, port, base, total, f"staged err[{node.name}]"
        )
        for home, addr in blocks:
            body.append(make(
                Opcode.DMALOAD,
                src_addr=addr,
                src_port=self._port(col, home.row),
                dst_addr=base + home.first_feature * fwords,
                dst_port=port,
                size=home.feature_count * fwords,
                is_accum=0,
                comment=f"stage err[{node.name}] block r{home.row}",
            ))
        return base

    def _emit_mask(
        self, prog: Program, body: List[Instruction], pred: LayerNode,
        raw_base: int, pred_home: FeatureHome, pred_col: int,
    ) -> None:
        """Copy activations beside the raw error and apply NDACTBP."""
        words = pred_home.feature_count * pred_home.feature_words
        port = self._port(pred_col, pred_home.row)
        _, err_addr = self._err_block(pred.name, pred_home.row)
        act = pred.spec.activation  # type: ignore[attr-defined]
        body.append(make(
            Opcode.DMALOAD,
            src_addr=pred_home.address,
            src_port=port,
            dst_addr=raw_base + words,
            dst_port=port,
            size=words,
            is_accum=0,
            comment=f"copy {pred.name} activations for masking",
        ))
        body.append(make(
            Opcode.NDACTBP,
            fn_type=ACT_CODES.get(act, 0),
            err_addr=raw_base,
            port=port,
            size=words,
            out_addr=err_addr,
            out_port=port,
            comment=f"mask err[{pred.name}] with {act.value}'",
        ))

    def _arm_raw_and_err(
        self, prog: Program, pred: LayerNode, raw_base: int,
        pred_home: FeatureHome, pred_col: int,
    ) -> None:
        """Trackers for the raw region (+act copy) and the masked err."""
        words = pred_home.feature_count * pred_home.feature_words
        port = self._port(pred_col, pred_home.row)
        arm_placeholder_tracker(
            prog, port, raw_base, words, f"raw err[{pred.name}]"
        )
        arm_placeholder_tracker(
            prog, port, raw_base + words, words,
            f"{pred.name} activation copy",
        )
        _, err_addr = self._err_block(pred.name, pred_home.row)
        arm_placeholder_tracker(
            prog, port, err_addr, words, f"err[{pred.name}]"
        )

    def _emit_bp(self, node: LayerNode, row: int) -> Program:
        """BP of a weighted layer: produce err for its predecessor."""
        pred = self._pred(node)
        col = self.partition.column_of[node.name]
        pred_col = col - 1
        pred_masked = self._is_weighted(pred)
        pred_home = self._home(pred.name, row)

        prog = Program(tile=f"bp:{node.name}@r{row}")
        body: List[Instruction] = []
        words = pred_home.feature_count * pred_home.feature_words
        pred_port = self._port(pred_col, row)

        if pred_masked:
            raw_base = self.partition.allocator(pred_col, row).alloc(
                f"{node.name}/raw@r{row}", 2 * words
            )
            self._arm_raw_and_err(prog, pred, raw_base, pred_home, pred_col)
            target_addr = raw_base
        else:
            # Predecessor is a pool: write into err[pred] directly.
            _, target_addr = self._err_block(pred.name, row)
            arm_placeholder_tracker(
                prog, pred_port, target_addr, words,
                f"err[{pred.name}] (unmasked)",
            )

        if node.kind is LayerKind.CONV:
            self._emit_conv_bp(
                prog, body, node, pred, pred_home, col, row, target_addr
            )
        else:
            self._emit_fc_bp(
                prog, body, node, pred, pred_home, col, row, target_addr
            )

        if pred_masked:
            self._emit_mask(prog, body, pred, target_addr, pred_home,
                            pred_col)
        prog.extend(body)
        prog.append(make(Opcode.HALT))
        return prog

    def _dilate_errors(
        self, prog: Program, body: List[Instruction], node: LayerNode,
        col: int, row: int, stage_base: int, tag: str,
    ) -> Tuple[int, int, int]:
        """Zero-insert every staged error feature of a strided layer.

        Returns (dilated base address, dilated height, dilated width);
        for stride 1 the staged region is returned untouched."""
        spec = node.spec
        assert isinstance(spec, ConvSpec)
        out_shape = node.output_shape
        if spec.stride == 1:
            return stage_base, out_shape.height, out_shape.width
        s_ = spec.stride
        dh = (out_shape.height - 1) * s_ + 1
        dw = (out_shape.width - 1) * s_ + 1
        err_words = out_shape.feature_size
        dil_words = dh * dw
        port = self._port(col, row)
        dil_base = self.partition.allocator(col, row).alloc(
            f"{tag}/dilated@r{row}", out_shape.count * dil_words
        )
        arm_placeholder_tracker(
            prog, port, dil_base, out_shape.count * dil_words,
            f"dilated err[{node.name}]",
        )
        for f in range(out_shape.count):
            body.append(make(
                Opcode.NDUPSAMP,
                samp_type=UPSAMP_ZERO_INSERT,
                in_addr=stage_base + f * err_words,
                port=port,
                in_size=pack_shape(out_shape.height, out_shape.width),
                window=1,
                stride=s_,
                out_addr=dil_base + f * dil_words,
                out_port=port,
                comment=f"dilate err f={f} (stride {s_})",
            ))
        return dil_base, dh, dw

    def _emit_conv_bp(
        self, prog: Program, body: List[Instruction], node: LayerNode,
        pred: LayerNode, pred_home: FeatureHome, col: int, row: int,
        target_addr: int,
    ) -> None:
        spec = node.spec
        assert isinstance(spec, ConvSpec)
        out_shape = node.output_shape
        k = spec.kernel
        pad_bp = k - 1 - spec.pad
        # A strided layer's NDCONVs read zero-inserted copies of the
        # staged error features rather than the features themselves.
        stage_base = self._stage_err(
            prog, body, node, col, row, f"bp:{node.name}"
        )
        stage_base, eff_h, eff_w = self._dilate_errors(
            prog, body, node, col, row, stage_base, f"bp:{node.name}"
        )
        # Rotated kernels for the targets this row computes.
        weights = self.model.state[node.name].weights
        rot = weights[:, :, ::-1, ::-1]
        g0 = pred_home.first_feature
        kern = np.ascontiguousarray(
            rot[:, g0 : g0 + pred_home.feature_count]
        )  # (out_c, block, k, k)
        kwords = k * k
        kern_base = self.partition.allocator(col, row).alloc(
            f"bp:{node.name}/rotkernels@r{row}", kern.size
        )
        self.preloads.append(Preload(col, row, kern_base, kern.reshape(-1)))

        err_fwords = eff_h * eff_w
        for g_local in range(pred_home.feature_count):
            for f in range(out_shape.count):
                body.append(make(
                    Opcode.NDCONV,
                    in_addr=stage_base + f * err_fwords,
                    in_port=self._port(col, row),
                    in_size=pack_shape(eff_h, eff_w),
                    kernel_addr=kern_base
                    + (f * pred_home.feature_count + g_local) * kwords,
                    kernel_size=pack_shape(k, k),
                    stride=1,
                    pad=pad_bp,
                    out_addr=target_addr
                    + g_local * pred_home.feature_words,
                    out_port=self._port(col - 1, row),
                    is_accum=int(f > 0),
                    comment=f"bp partial g={g0 + g_local} f={f}",
                ))

    def _emit_fc_bp(
        self, prog: Program, body: List[Instruction], node: LayerNode,
        pred: LayerNode, pred_home: FeatureHome, col: int, row: int,
        target_addr: int,
    ) -> None:
        out_count = node.output_shape.count
        stage_base = self._stage_err(
            prog, body, node, col, row, f"bp:{node.name}"
        )
        # W^T rows for the flattened range this predecessor block spans.
        weights = self.model.state[node.name].weights  # (out, in)
        fwords = pred_home.feature_words
        flat0 = pred_home.first_feature * fwords
        flat1 = flat0 + pred_home.feature_count * fwords
        wt = np.ascontiguousarray(weights[:, flat0:flat1].T)
        wt_base = self.partition.allocator(col, row).alloc(
            f"bp:{node.name}/wt@r{row}", wt.size
        )
        self.preloads.append(Preload(col, row, wt_base, wt.reshape(-1)))
        body.append(make(
            Opcode.MATMUL,
            in1_addr=stage_base,
            in1_port=self._port(col, row),
            in1_size=pack_shape(1, out_count),
            in2_addr=wt_base,
            in2_port=self._port(col, row),
            in2_size=pack_shape(flat1 - flat0, out_count),
            out_addr=target_addr,
            out_port=self._port(col - 1, row),
            is_accum=0,
            comment=f"bp matmul W^T rows [{flat0}, {flat1})",
        ))

    # ------------------------------------------------------------------
    # BP of pool layers: up-sample the error through the window
    # ------------------------------------------------------------------
    def _emit_pool_bp(self, node: LayerNode, row: int) -> Program:
        pred = self._pred(node)
        spec = node.spec
        col = self.partition.column_of[node.name]
        pred_col = col - 1
        in_shape = node.input_shapes[0]
        if isinstance(spec, PoolSpec):
            window = spec.window
        else:
            window = in_shape.height
        out_shape = node.output_shape
        mode = getattr(spec, "mode", PoolMode.AVG)

        err_home, err_addr = self._err_block(node.name, row)
        pred_home = self._home(pred.name, row)
        words = pred_home.feature_count * pred_home.feature_words
        prog = Program(tile=f"bp:{node.name}@r{row}")
        body: List[Instruction] = []
        raw_base = self.partition.allocator(pred_col, row).alloc(
            f"{node.name}/raw@r{row}", 2 * words
        )
        self._arm_raw_and_err(prog, pred, raw_base, pred_home, pred_col)
        err_words = err_home.feature_words
        orig_words = pred_home.feature_words
        if mode is PoolMode.MAX:
            # Per-feature work slots [error | original feature]: the
            # NDUPSAMP max mode recomputes the argmax from the
            # original and routes the error to it.
            slot = err_words + orig_words
            work_base = self.partition.allocator(col, row).alloc(
                f"{node.name}/maxwork@r{row}",
                err_home.feature_count * slot,
            )
            arm_placeholder_tracker(
                prog, self._port(col, row), work_base,
                err_home.feature_count * slot,
                f"{node.name} max-routing slots",
            )
            # All slot fills first, then all routings: the block's
            # tracker must see every update before its first read
            # (the reads sit later in this same program).
            for f_local in range(err_home.feature_count):
                feature = err_home.first_feature + f_local
                body.append(make(
                    Opcode.DMALOAD,
                    src_addr=err_addr + f_local * err_words,
                    src_port=self._port(col, row),
                    dst_addr=work_base + f_local * slot,
                    dst_port=self._port(col, row),
                    size=err_words,
                    is_accum=0,
                    comment=f"stage pooled err f={feature}",
                ))
                body.append(make(
                    Opcode.DMALOAD,
                    src_addr=pred_home.feature_address(feature),
                    src_port=self._port(pred_col, row),
                    dst_addr=work_base + f_local * slot + err_words,
                    dst_port=self._port(col, row),
                    size=orig_words,
                    is_accum=0,
                    comment=f"stage original f={feature} for argmax",
                ))
            for f_local in range(err_home.feature_count):
                feature = err_home.first_feature + f_local
                body.append(make(
                    Opcode.NDUPSAMP,
                    samp_type=SAMP_CODES[PoolMode.MAX],
                    in_addr=work_base + f_local * slot,
                    port=self._port(col, row),
                    in_size=pack_shape(
                        out_shape.height, out_shape.width
                    ),
                    window=window,
                    stride=window,
                    out_addr=raw_base
                    + f_local * pred_home.feature_words,
                    out_port=self._port(pred_col, row),
                    comment=f"route err to maxima f={feature}",
                ))
        else:
            for f_local in range(err_home.feature_count):
                body.append(make(
                    Opcode.NDUPSAMP,
                    samp_type=SAMP_CODES[PoolMode.AVG],
                    in_addr=err_addr + f_local * err_words,
                    port=self._port(col, row),
                    in_size=pack_shape(
                        out_shape.height, out_shape.width
                    ),
                    window=window,
                    stride=window,
                    out_addr=raw_base
                    + f_local * pred_home.feature_words,
                    out_port=self._port(pred_col, row),
                    comment="upsample err "
                            f"f={err_home.first_feature + f_local}",
                ))
        self._emit_mask(prog, body, pred, raw_base, pred_home, pred_col)
        prog.extend(body)
        prog.append(make(Opcode.HALT))
        return prog

    # ------------------------------------------------------------------
    # WG: weight gradients + in-place SGD update
    # ------------------------------------------------------------------
    def _emit_wg(self, node: LayerNode, home: FeatureHome) -> Program:
        col = self.partition.column_of[node.name]
        row = home.row
        left = self._port(col - 1, row)
        prog = Program(tile=f"wg:{node.name}@r{row}")
        body: List[Instruction] = []

        # Copy this row's error block beside the weights so NDCONV /
        # MATMUL can read it from the same port as its other operand.
        _, err_addr = self._err_block(node.name, row)
        err_words = home.feature_count * node.output_shape.feature_size
        werr_base = self.partition.allocator(col - 1, row).alloc(
            f"wg:{node.name}/err@r{row}", err_words
        )
        arm_placeholder_tracker(
            prog, left, werr_base, err_words, f"wg err copy [{node.name}]"
        )
        body.append(make(
            Opcode.DMALOAD,
            src_addr=err_addr,
            src_port=self._port(col, row),
            dst_addr=werr_base,
            dst_port=left,
            size=err_words,
            is_accum=0,
            comment=f"copy err[{node.name}] block for WG",
        ))

        if node.kind is LayerKind.CONV:
            grad_words = self._emit_conv_wg(
                prog, body, node, home, col, row, werr_base
            )
            weight_block = f"{node.name}/kernels@r{row}"
        else:
            grad_words = self._emit_fc_wg(
                prog, body, node, home, col, row, werr_base
            )
            weight_block = f"{node.name}/weights@r{row}"

        weight_base, _ = self.partition.allocator(
            col - 1, row
        ).lookup(weight_block)
        grad_base, _ = self.partition.allocator(col - 1, row).lookup(
            f"wg:{node.name}/grads@r{row}"
        )
        update = make(
            Opcode.WUPDATE,
            weight_addr=weight_base,
            grad_addr=grad_base,
            port=left,
            size=grad_words,
            lr_num=self.lr_num,
            lr_denom=self.lr_denom * self.minibatch,
            comment=f"SGD update {node.name} block r{row}",
        )
        if self.minibatch == 1:
            body.append(update)
        else:
            upd_prog = Program(tile=f"upd:{node.name}@r{row}")
            upd_prog.append(update)
            upd_prog.append(make(Opcode.HALT))
            self.update_programs.append(upd_prog)
        prog.extend(body)
        prog.append(make(Opcode.HALT))
        return prog

    def _emit_conv_wg(
        self, prog: Program, body: List[Instruction], node: LayerNode,
        home: FeatureHome, col: int, row: int, werr_base: int,
    ) -> int:
        spec = node.spec
        assert isinstance(spec, ConvSpec)
        in_shape = node.input_shapes[0]
        out_shape = node.output_shape
        k = spec.kernel
        left = self._port(col - 1, row)
        stage_base, _ = self.partition.allocator(col - 1, row).lookup(
            f"{node.name}/stage@r{row}"
        )
        fwords = in_shape.feature_size
        err_fwords = out_shape.feature_size
        eff_h, eff_w = out_shape.height, out_shape.width
        if spec.stride > 1:
            # Correlating with the *dilated* error recovers the strided
            # gradient; dilate this block's error copies in place.
            s_ = spec.stride
            eff_h = (out_shape.height - 1) * s_ + 1
            eff_w = (out_shape.width - 1) * s_ + 1
            dil_words = eff_h * eff_w
            dil_base = self.partition.allocator(col - 1, row).alloc(
                f"wg:{node.name}/dilated@r{row}",
                home.feature_count * dil_words,
            )
            arm_placeholder_tracker(
                prog, left, dil_base, home.feature_count * dil_words,
                f"wg dilated err [{node.name}]",
            )
            for f_local in range(home.feature_count):
                body.append(make(
                    Opcode.NDUPSAMP,
                    samp_type=UPSAMP_ZERO_INSERT,
                    in_addr=werr_base + f_local * err_fwords,
                    port=left,
                    in_size=pack_shape(out_shape.height, out_shape.width),
                    window=1,
                    stride=s_,
                    out_addr=dil_base + f_local * dil_words,
                    out_port=left,
                    comment=f"wg dilate f={home.first_feature + f_local}",
                ))
            werr_base = dil_base
            err_fwords = dil_words
        kwords = k * k
        grad_words = home.feature_count * in_shape.count * kwords
        grad_base = self.partition.allocator(col - 1, row).alloc(
            f"wg:{node.name}/grads@r{row}", grad_words
        )
        arm_placeholder_tracker(
            prog, left, grad_base, grad_words, f"{node.name} weight gradients"
        )
        accumulate = int(self.minibatch > 1)
        for f_local in range(home.feature_count):
            for g in range(in_shape.count):
                body.append(make(
                    Opcode.NDCONV,
                    in_addr=stage_base + g * fwords,
                    in_port=left,
                    in_size=pack_shape(in_shape.height, in_shape.width),
                    kernel_addr=werr_base + f_local * err_fwords,
                    kernel_size=pack_shape(eff_h, eff_w),
                    stride=1,
                    pad=spec.pad,
                    out_addr=grad_base
                    + (f_local * in_shape.count + g) * kwords,
                    out_port=left,
                    is_accum=accumulate,
                    comment=f"grad f={home.first_feature + f_local} in={g}",
                ))
        return grad_words

    def _emit_fc_wg(
        self, prog: Program, body: List[Instruction], node: LayerNode,
        home: FeatureHome, col: int, row: int, werr_base: int,
    ) -> int:
        in_elems = node.input_shapes[0].elements
        left = self._port(col - 1, row)
        stage_base, _ = self.partition.allocator(col - 1, row).lookup(
            f"{node.name}/stage@r{row}"
        )
        grad_words = home.feature_count * in_elems
        grad_base = self.partition.allocator(col - 1, row).alloc(
            f"wg:{node.name}/grads@r{row}", grad_words
        )
        arm_placeholder_tracker(
            prog, left, grad_base, grad_words, f"{node.name} weight gradients"
        )
        # Outer product, one output row at a time: grads[f, :] =
        # err[f] * input — realised as MATMUL(input-as-matrix, err[f]).
        accumulate = int(self.minibatch > 1)
        for f_local in range(home.feature_count):
            body.append(make(
                Opcode.MATMUL,
                in1_addr=werr_base + f_local,
                in1_port=left,
                in1_size=pack_shape(1, 1),
                in2_addr=stage_base,
                in2_port=left,
                in2_size=pack_shape(in_elems, 1),
                out_addr=grad_base + f_local * in_elems,
                out_port=left,
                is_accum=accumulate,
                comment=f"grad row f={home.first_feature + f_local}",
            ))
        return grad_words


class LowerPass(Pass):
    """Emit one program per scheduled op; align, calibrate, validate."""

    name = "lower"

    def run(self, ir: MappingIR, ctx: PassContext,
            stats: PassStats) -> MappingIR:
        emitter = EngineEmitter(ir, ctx)
        by_name = {op.name: op for op in ir.ops}
        for name in ir.schedule:
            emitter.emit(by_name[name])
        programs = emitter.programs
        # The host's loss-gradient write is the one update no program
        # makes.  The minibatch update programs run once per minibatch,
        # outside the per-image tracker epochs, so they stay out of the
        # count.
        injected = {}
        if emitter.err_injection is not None:
            port, addr, _ = emitter.err_injection
            injected[(port, addr)] = 1
            ctx.extra["err_injection"] = emitter.err_injection
            ctx.host_writes = [emitter.err_injection]
        all_programs = programs + emitter.update_programs
        if all_programs:
            align_prologues(all_programs)
        # Alignment only pads ahead of the prologues and reads no
        # counts, so the table is built once every pc is final.
        table = AccessTable(programs)
        calibrate_trackers(programs, external_updates=injected, table=table)
        for program in all_programs:
            program.validate()
        ctx.programs = programs
        ctx.accesses = table
        ctx.update_programs = emitter.update_programs
        ctx.preloads = emitter.preloads
        stats.notes["programs"] = len(all_programs)
        stats.notes["instructions"] = sum(len(p) for p in all_programs)
        return ir
