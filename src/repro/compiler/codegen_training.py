"""Training code generation: FP + BP + WG + weight update on the engine.

This extends the forward compiler to the full training iteration of the
paper's Fig 3: beside each layer's FP program, it emits

* a **BP program** that back-propagates the error to the predecessor —
  convolving error features with rotated kernels (conv), multiplying by
  the transposed weights (FC), or up-sampling (SAMP) — and masks the
  result with the predecessor's activation derivative (NDACTBP);
* a **WG program** that correlates the layer's staged FP inputs with its
  error features to produce weight gradients (NDCONV with the error as
  the kernel for CONV layers; per-output-row MATMULs realising the
  outer product for FC layers) and applies them in place with WUPDATE.

In the paper the FP, BP, and WG programs of a layer run on the three
CompHeavy tiles of its column group; here each gets its own CompTile on
the engine machine, synchronised purely through MEMTRACK trackers — a
direct functional test of the Sec 3.2.4 scheme on a dataflow with both
directions active.

The BP/WG emission lives in the shared lowering
(:mod:`repro.compiler.passes.lower`): this compiler builds the
tile-level IR with all three phases and drives the same pipeline as the
forward compiler; the lowering allocates the error regions, emits the
deferred weight-update programs in minibatch mode, and calibrates every
tracker — FP, BP and WG alike — from a static access analysis of the
finished programs, so the backward wave's extra readers of FP outputs
are counted like any others.

The loss gradient at the network output is computed by the host between
the FP and BP phases (the paper computes it in the final FP tiles) and
injected through a tracker-counted write, which is what un-blocks the
whole backward wave; calibration counts it as the one external update.

Scope: chains (every layer has at most one consumer) of ``groups=1``
convolutions (strided ones included — their BP and WG dilate the error
by zero-insertion), max or average pooling with window == stride, never
right after another pooling layer (max routing recomputes the argmax
from the stored features), FC layers and a softmax+cross-entropy head;
SGD with frozen biases (see DESIGN.md) — per image, or with gradient
accumulation over a minibatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.arch.chip import ChipConfig
from repro.compiler.codegen import CompiledForward, ForwardCompiler
from repro.compiler.ir import Phase
from repro.dnn.layers import ConvSpec
from repro.dnn.network import Network
from repro.errors import MappingError, SimulationError
from repro.functional import tensor_ops as ops
from repro.functional.reference import ReferenceModel
from repro.sim.engine import Engine, RunReport
from repro.sim.machine import Machine


@dataclass
class CompiledTraining:
    """Training programs plus a persistent machine for SGD iterations."""

    forward: CompiledForward
    err_port: int
    err_addr: int
    err_size: int
    lr_num: int
    lr_denom: int
    minibatch: int = 1
    update_tiles: frozenset = frozenset()
    _machine: Optional[Machine] = None
    _engine: Optional[Engine] = None

    @property
    def network(self) -> Network:
        return self.forward.network

    @property
    def instruction_count(self) -> int:
        return self.forward.instruction_count

    def _ensure_machine(self) -> Engine:
        if self._engine is None:
            self._machine = self.forward.build_machine()
            self._engine = Engine(self._machine)
        return self._engine

    def read_weights(self, layer: str) -> np.ndarray:
        """Current (possibly trained) weights of a layer, from the
        machine's scratchpads, in the reference layout."""
        engine = self._ensure_machine()
        machine = engine.machine
        net = self.network
        node = net[layer]
        part = self.forward.partition
        col = part.column_of[layer]
        blocks: List[np.ndarray] = []
        for home in part.blocks_of(layer):
            alloc = part.allocator(col - 1, home.row)
            if isinstance(node.spec, ConvSpec):
                base, words = alloc.lookup(f"{layer}/kernels@r{home.row}")
            else:
                base, words = alloc.lookup(f"{layer}/weights@r{home.row}")
            tile = machine.mem_tile(machine.mem_tile_id(col - 1, home.row))
            blocks.append(tile.read(base, words).copy())
        flat = np.concatenate(blocks)
        if isinstance(node.spec, ConvSpec):
            spec = node.spec
            in_c = node.input_shapes[0].count
            return flat.reshape(-1, in_c, spec.kernel, spec.kernel)
        return flat.reshape(node.output_shape.count, -1)

    def train_step(
        self, image: np.ndarray, label: int
    ) -> Tuple[np.ndarray, float, RunReport]:
        """One SGD iteration on the engine: FP, host loss gradient,
        BP/WG, in-place weight update.  Returns (softmax output, loss,
        run statistics).

        In minibatch mode this runs one *accumulation* pass (gradients
        add into the resident gradient regions; weights do not move) —
        call :meth:`apply_update` after a minibatch of steps, or use
        :meth:`train_minibatch`.

        A label outside the output's classes raises
        :class:`~repro.errors.ShapeError` before anything runs."""
        ops.check_label(label, self.network.output.output_shape.elements)
        engine = self._ensure_machine()
        machine = engine.machine
        self.forward.load_image(machine, image)
        machine.reset_programs()

        # Phase 1: forward propagation; BP/WG tiles block on their first
        # tracker-gated access until the loss gradient arrives.
        fp_report = engine.run(
            raise_on_deadlock=False,
            exclude_tiles=self.update_tiles or None,
        )
        output = self.forward.read_output(machine)
        loss, grad = ops.softmax_cross_entropy(output, label)

        # Phase 2: inject dLoss/dpre at the output and run BP/WG/update.
        engine.inject(self.err_port, self.err_addr, grad.astype(np.float32))
        bp_report = engine.run(
            raise_on_deadlock=True, exclude_tiles=self.update_tiles or None
        )
        report = RunReport(
            cycles=bp_report.cycles,
            instructions=fp_report.instructions + bp_report.instructions,
            rounds=fp_report.rounds + bp_report.rounds,
            blocked_reads=bp_report.blocked_reads,
            blocked_writes=bp_report.blocked_writes,
            busy_cycles=bp_report.busy_cycles,
        )
        return output, loss, report

    def apply_update(self) -> None:
        """Run the weight-update programs (minibatch mode): one SGD step
        from the accumulated gradients, which WUPDATE also clears."""
        if not self.update_tiles:
            raise SimulationError(
                "per-image compilation has no deferred update programs"
            )
        engine = self._ensure_machine()
        for tile in self.update_tiles:
            engine.machine.comp_tiles[tile].pc = 0
            engine.machine.comp_tiles[tile].halted = False
            engine.machine.comp_tiles[tile].blocked = False
        engine.run(raise_on_deadlock=True, only_tiles=set(self.update_tiles))

    def train_minibatch(
        self, images: np.ndarray, labels
    ) -> Tuple[float, int]:
        """One full minibatch iteration (Sec 2.2): accumulate FP/BP/WG
        over every image, then update the weights once.  Returns
        (mean loss, correct classifications)."""
        if len(images) != self.minibatch:
            raise SimulationError(
                f"compiled for minibatch {self.minibatch}, got "
                f"{len(images)} images"
            )
        if len(labels) != len(images):
            raise SimulationError(
                f"{len(images)} images but {len(labels)} labels"
            )
        # Check every label before the first image accumulates.
        for label in labels:
            ops.check_label(
                int(label), self.network.output.output_shape.elements
            )
        losses = []
        correct = 0
        for image, label in zip(images, labels):
            out, loss, _ = self.train_step(
                image.astype(np.float32), int(label)
            )
            losses.append(loss)
            correct += int(out.argmax() == int(label))
        self.apply_update()
        return float(np.mean(losses)), correct


class TrainingCompiler(ForwardCompiler):
    """Compiles FP + BP + WG + update programs for a chain network.

    With ``minibatch > 1`` the WG programs *accumulate* gradients across
    images (the Sec 2.2 semantics: "their gradients are accumulated
    together to update the network weights") and the SGD update moves to
    separate weight-update programs that run once per minibatch with the
    learning rate scaled by 1/minibatch.
    """

    scope = "training"
    phases = (Phase.FP, Phase.BP, Phase.WG)
    # Fusion only models the forward fast path; training programs keep
    # per-instruction execution (BP/WG grammars are out of fusion scope).
    supports_fusion = False

    def __init__(
        self,
        net: Network,
        model: ReferenceModel,
        chip: Optional[ChipConfig] = None,
        rows: int = 2,
        learning_rate: Tuple[int, int] = (1, 100),
        minibatch: int = 1,
    ) -> None:
        if minibatch < 1:
            raise MappingError("minibatch must be >= 1")
        lr_num, lr_denom = learning_rate
        # WUPDATE divides by its denominator, and a negative immediate
        # would decode as a register operand.
        if lr_num < 0 or lr_denom < 1:
            raise MappingError(
                f"learning rate {lr_num}/{lr_denom} needs a numerator "
                ">= 0 and a denominator >= 1"
            )
        super().__init__(net, model, chip, rows)
        self.lr_num, self.lr_denom = lr_num, lr_denom
        self.minibatch = minibatch

    # ------------------------------------------------------------------
    def compile_training(self) -> CompiledTraining:
        ctx = self._run_pipeline(
            minibatch=self.minibatch,
            learning_rate=(self.lr_num, self.lr_denom),
        )
        err_port, err_addr, err_size = ctx.extra["err_injection"]
        forward = CompiledForward(
            network=self.net,
            chip=self.chip,
            rows=self.rows,
            partition=self.partition,
            programs=ctx.programs + ctx.update_programs,
            preloads=self.preloads,
            output_blocks=self.partition.blocks_of(self.net.output.name),
            ir=self.ir,
            pass_stats=self.pass_stats,
        )
        forward.verify(host_writes=[(err_port, err_addr, err_size)])

        return CompiledTraining(
            forward=forward,
            err_port=err_port,
            err_addr=err_addr,
            err_size=err_size,
            lr_num=self.lr_num,
            lr_denom=self.lr_denom,
            minibatch=self.minibatch,
            update_tiles=frozenset(
                p.tile for p in ctx.update_programs
            ),
        )


def compile_training(
    net: Network,
    model: ReferenceModel,
    chip: Optional[ChipConfig] = None,
    rows: int = 2,
    learning_rate: Tuple[int, int] = (1, 100),
    minibatch: int = 1,
) -> CompiledTraining:
    """Compile a full training iteration for the engine.

    ``minibatch > 1`` compiles the gradient-accumulation variant: WG
    programs add into resident gradient regions and deferred update
    programs apply one scaled SGD step per minibatch."""
    return TrainingCompiler(
        net, model, chip, rows, learning_rate, minibatch
    ).compile_training()
