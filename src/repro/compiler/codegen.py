"""Code generation: compile a network's forward pass to ISA programs.

This is the engine-facing half of the compiler (the paper's phase B,
Fig 13): given a network and a parameterised reference model,
:class:`ForwardCompiler` emits one ScaleDeep program per CompHeavy
tile, arranges the memory image (home feature blocks, staged inputs,
kernels, biases), and arms the MEMTRACK trackers that synchronise
producers with consumers.

The emission itself lives in the pass pipeline
(:mod:`repro.compiler.passes`): this module partitions the network over
the engine machine, builds the tile-level IR, drives ``legalize ->
place-check -> tracker-assign -> schedule -> lower -> fuse`` and wraps
the emitted programs in :class:`CompiledForward`.  The lowering arms
every tracker with placeholder counts and calibrates them from a static
access analysis of the finished programs.  The generated code follows
the CONV-layer-FP recipe of Fig 9, every address resolved statically
(the data flow of a DNN is known at compile time — the property the
whole synchronization scheme rests on), so loops are unrolled.

:func:`repro.compiler.codegen_dag.compile_dag_forward` is the forward
entry point; the training compiler
(:mod:`repro.compiler.codegen_training`) subclasses
:class:`ForwardCompiler` with its own scope and IR phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.arch.chip import ChipConfig
from repro.arch.presets import conv_chip
from repro.compiler.ir import MappingIR, Phase, build_tile_ir
from repro.compiler.partition import (
    FeatureHome,
    StatePartition,
    partition_graph,
)
from repro.compiler.passes.fuse import FusePass
from repro.compiler.passes.legalize import LegalizePass, check_scope
from repro.compiler.passes.lower import LowerPass
from repro.compiler.passes.manager import (
    PassContext,
    PassManager,
    PassStats,
)
from repro.compiler.passes.place_check import PlaceCheckPass
from repro.compiler.passes.schedule import SchedulePass
from repro.compiler.passes.tracker_assign import TrackerAssignPass
from repro.compiler.templates import Preload
from repro.dnn.network import Network
from repro.errors import MappingError, ShapeError
from repro.functional.reference import ReferenceModel
from repro.isa.program import Program
from repro.sim.engine import Engine, RunReport
from repro.sim.machine import Machine


@dataclass
class CompiledForward:
    """Programs plus the recipe to build a fresh machine for each run."""

    network: Network
    chip: ChipConfig
    rows: int
    partition: StatePartition
    programs: List[Program]
    preloads: List[Preload]
    output_blocks: List[FeatureHome]
    #: The compiled tile-level IR and per-pass statistics (None/empty
    #: for hand-assembled program sets).
    ir: Optional[MappingIR] = None
    pass_stats: List[PassStats] = field(default_factory=list)

    def build_machine(self) -> Machine:
        """A fresh machine with weights/biases preloaded."""
        machine = Machine(self.chip, self.partition.mem_columns, self.rows)
        for pre in self.preloads:
            tile = machine.mem_tile(machine.mem_tile_id(pre.col, pre.row))
            tile.write(pre.addr, pre.data, accumulate=False)
        for program in self.programs:
            machine.load_program(program)
        return machine

    def load_image(self, machine: Machine, image: np.ndarray) -> None:
        """Write one ``(C, H, W)`` input image into column 0's home
        blocks of ``machine``.  Any other shape raises
        :class:`~repro.errors.ShapeError` — a short or flat image would
        otherwise leave stale words in the blocks it does not reach."""
        shape = self.network.input.output_shape
        if image.shape != (shape.count, shape.height, shape.width):
            raise ShapeError(
                f"input shape {image.shape} != network input {shape}"
            )
        for home in self.partition.blocks_of(self.network.input.name):
            tile = machine.mem_tile(machine.mem_tile_id(0, home.row))
            block = image[
                home.first_feature : home.first_feature + home.feature_count
            ]
            tile.write(home.address, block, accumulate=False)

    def read_output(self, machine: Machine) -> np.ndarray:
        """A copy of the network's output vector from ``machine``."""
        col = self.partition.column_of[self.network.output.name]
        return np.concatenate([
            machine.mem_tile(machine.mem_tile_id(col, home.row))
            .read(home.address, home.feature_count * home.feature_words)
            .copy()
            for home in self.output_blocks
        ])

    def run(
        self, image: np.ndarray, fused: bool = True
    ) -> Tuple[np.ndarray, RunReport]:
        """Execute the forward pass on one image; returns (output vector,
        run statistics).  ``fused=False`` runs one op-table entry per
        instruction instead of the superops — outputs, instruction
        counts and busy cycles stay bit-identical to fused runs, but
        superops compress stall rounds, so makespan
        ``cycles``/``rounds``/blocked counts may differ (see
        :class:`~repro.sim.engine.RunReport`)."""
        machine = self.build_machine()
        self.load_image(machine, image)
        report = Engine(machine, fused=fused).run()
        return self.read_output(machine), report

    @property
    def instruction_count(self) -> int:
        return sum(len(p) for p in self.programs)

    def machine_shape(self):
        """The addressing envelope for the static verifier."""
        from repro.compiler.verifier import MachineShape

        return MachineShape(
            mem_tiles=self.partition.mem_columns * self.rows,
            words_per_tile=self.chip.mem_tile.capacity_bytes // 4,
            trackers_per_tile=self.chip.mem_tile.tracker_count,
        )

    def preloaded_regions(self):
        """(port, addr, words) regions written at machine build: the
        compiler's preloads plus the input image's home blocks."""
        regions = [
            (pre.col * self.rows + pre.row, pre.addr, pre.data.size)
            for pre in self.preloads
        ]
        for home in self.partition.blocks_of(self.network.input.name):
            regions.append((
                home.row,  # mem column 0
                home.address,
                home.feature_count * home.feature_words,
            ))
        return regions

    def verify(self, host_writes=(), table=None):
        """Run the static verifier over this compiled set (raises on
        any finding).  ``table`` is the compile's
        :class:`~repro.compiler.trackers.AccessTable` of
        :attr:`programs`, if it has one."""
        from repro.compiler.verifier import assert_verified

        assert_verified(
            self.programs, self.machine_shape(),
            preloaded=self.preloaded_regions(), host_writes=host_writes,
            table=table,
        )

    def runner(self) -> "ForwardRunner":
        """A persistent-machine runner for streaming many images: the
        machine is built once, weights stay resident, and programs are
        rewound per image (the steady-state operation of Sec 3.2.3,
        minus the inter-image overlap)."""
        return ForwardRunner(self)


class ForwardRunner:
    """Streams images through one compiled forward pass (fused)."""

    def __init__(self, compiled: CompiledForward) -> None:
        self.compiled = compiled
        self.machine = compiled.build_machine()
        self.engine = Engine(self.machine, fused=True)
        self.images_run = 0

    def __call__(self, image: np.ndarray) -> Tuple[np.ndarray, RunReport]:
        self.compiled.load_image(self.machine, image)
        self.machine.reset_programs()
        report = self.engine.run()
        self.images_run += 1
        return self.compiled.read_output(self.machine), report


class ForwardCompiler:
    """Compiles FP programs for one (network, model) pair.

    The network may be any DAG in the ``dag`` legalization scope; it is
    partitioned over the engine machine one layer per mem column.
    Subclasses select the legalization *scope* and the IR *phases* —
    everything else is the shared pass pipeline.
    """

    scope = "dag"
    phases: Tuple[Phase, ...] = (Phase.FP,)
    #: Whether this compiler's programs may carry superop fusion plans.
    #: The training compiler opts out: its programs re-run over shared
    #: regions across FP/BP/WG phases, outside the forward-only
    #: dataflow analysis the fusion pass performs.
    supports_fusion = True

    def __init__(
        self,
        net: Network,
        model: ReferenceModel,
        chip: Optional[ChipConfig] = None,
        rows: int = 2,
    ) -> None:
        if model.net is not net:
            raise MappingError("model must be built from the same network")
        if rows < 1:
            raise MappingError(f"rows must be >= 1, got {rows}")
        # Scope violations surface at construction (the pipeline's
        # legalize pass re-checks).
        check_scope(self.scope, net)
        self.net = net
        self.model = model
        self.chip = chip or conv_chip()
        self.rows = rows
        self.partition = partition_graph(
            net, rows, self.chip.mem_tile.capacity_bytes // 4
        )
        self.preloads: List[Preload] = []
        self.ir: Optional[MappingIR] = None
        self.pass_stats: List[PassStats] = []

    # ------------------------------------------------------------------
    def _pipeline(self) -> PassManager:
        passes = [
            LegalizePass(self.scope),
            PlaceCheckPass(),
            TrackerAssignPass(),
            SchedulePass(),
            LowerPass(),
        ]
        if self.supports_fusion:
            passes.append(FusePass())
        return PassManager(passes)

    def _run_pipeline(
        self,
        minibatch: int = 1,
        learning_rate: Tuple[int, int] = (1, 100),
    ) -> PassContext:
        ir = build_tile_ir(
            self.net, self.partition, self.rows,
            phases=self.phases, minibatch=minibatch,
        )
        ctx = PassContext(
            net=self.net,
            model=self.model,
            chip=self.chip,
            partition=self.partition,
            rows=self.rows,
            minibatch=minibatch,
            learning_rate=learning_rate,
        )
        self.ir, self.pass_stats = self._pipeline().run(ir, ctx)
        self.preloads = ctx.preloads
        return ctx

    def compile(self) -> CompiledForward:
        """Compile and statically verify the forward programs."""
        ctx = self._run_pipeline()
        compiled = CompiledForward(
            network=self.net,
            chip=self.chip,
            rows=self.rows,
            partition=self.partition,
            programs=ctx.programs,
            preloads=self.preloads,
            output_blocks=self.partition.blocks_of(self.net.output.name),
            ir=self.ir,
            pass_stats=self.pass_stats,
        )
        compiled.verify(table=ctx.accesses)
        return compiled
