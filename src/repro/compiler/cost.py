"""Per-layer cost model: cycles, utilization cascade and link traffic.

This is the compiler's cost model, shared with the analytical performance
simulator.  For a layer mapped onto a set of chip columns it estimates,
per training step, the cycles spent in each subsystem — 2D-PE arrays,
MemHeavy SFUs, comp-mem links, mem-mem links and external memory — and
the stage cost is their maximum (the nested pipeline of Sec 3.2.3
overlaps them).

The utilization model follows the four-factor cascade the paper uses to
explain Fig 19:

1. *column granularity* — layers are allocated whole columns, so the
   2D-PE share can deviate from the FLOPs-proportional ideal;
2. *feature distribution* — features are spread over the column's
   MemHeavy tiles; a non-multiple count leaves tiles idle;
3. *array residue* — feature rows and output-feature batches that are
   not multiples of the array rows/lanes idle part of the array (array
   reconfigurability mitigates this);
4. *instruction overhead* — loop control and data-transfer instructions
   (a calibrated constant here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.arch.chip import ChipConfig, ChipKind
from repro.arch.tiles import ArrayConfig, array_utilization
from repro.dnn.analysis import (
    Kernel,
    LayerStepProfile,
    Step,
    profile,
)
from repro.dnn.layers import ConvSpec, LayerKind
from repro.dnn.network import LayerNode
from repro.errors import MappingError

#: Calibrated fraction of array cycles doing useful work after loop
#: control / pointer arithmetic / data-movement instructions (the paper's
#: fourth utilization-loss factor: 0.42 -> 0.35 overall, i.e. ~0.83).
INSTRUCTION_OVERHEAD_FACTOR = 0.83

#: Winograd F(2x2, 3x3) reduces the multiplies of a 3x3 stride-1
#: convolution by 2.25x; transform overheads eat part of it, so the
#: realised array-FLOPs reduction is modelled at 1.8x (the ratio
#: Maxwell-era implementations achieved).  Sec 6.1: "SCALEDEEP
#: implementations currently do not use Winograd, and we do not find
#: any fundamental bottlenecks in doing so".
WINOGRAD_REALIZED_FACTOR = 1.8


@dataclass(frozen=True)
class UtilizationCascade:
    """The multiplicative utilization-loss factors for one layer step."""

    feature_distribution: float
    array_residue: float
    instruction_overhead: float

    @property
    def achieved(self) -> float:
        """Product of all factors: achieved / allocated 2D-PE FLOPs."""
        return (
            self.feature_distribution
            * self.array_residue
            * self.instruction_overhead
        )


@dataclass(frozen=True)
class TrafficSummary:
    """Bytes moved per image by one layer step, by link class."""

    comp_mem_bytes: float
    mem_mem_bytes: float
    ext_mem_bytes: float


@dataclass(frozen=True)
class StepCost:
    """Cost of one layer's FP, BP or WG step on its allocated columns."""

    layer: str
    step: Step
    columns: int
    compute_cycles: float  # 2D-PE array bound
    sfu_cycles: float  # MemHeavy SFU bound
    comp_mem_link_cycles: float
    mem_mem_link_cycles: float
    ext_mem_cycles: float
    utilization: UtilizationCascade
    traffic: TrafficSummary
    array_config: Optional[ArrayConfig] = None

    @property
    def cycles(self) -> float:
        """Pipeline-stage latency: the slowest overlapped subsystem."""
        return max(
            self.compute_cycles,
            self.sfu_cycles,
            self.comp_mem_link_cycles,
            self.mem_mem_link_cycles,
            self.ext_mem_cycles,
            1.0,
        )

    @property
    def bound_by(self) -> str:
        """Which subsystem limits this stage."""
        bounds = {
            "compute": self.compute_cycles,
            "sfu": self.sfu_cycles,
            "comp-mem-link": self.comp_mem_link_cycles,
            "mem-mem-link": self.mem_mem_link_cycles,
            "ext-mem": self.ext_mem_cycles,
        }
        return max(bounds, key=lambda k: bounds[k])


def _bytes_per_cycle(bandwidth_bytes_per_s: float, frequency_hz: float) -> float:
    return bandwidth_bytes_per_s / frequency_hz


def step_cost(
    node_frequency_hz: float,
    chip: ChipConfig,
    layer: LayerNode,
    step: Step,
    columns: int,
    dtype_bytes: int,
    weights_on_chip: bool,
    store_features_offchip: bool = True,
    instruction_overhead: float = INSTRUCTION_OVERHEAD_FACTOR,
    weight_reuse_batch: int = 1,
    step_tile_multiplier: int = 1,
    winograd: bool = False,
) -> StepCost:
    """Estimate the cost of one (layer, step) stage on ``columns`` columns.

    ``store_features_offchip`` models the training requirement that FP
    features of all layers are staged to external memory and fetched back
    for the WG step (Sec 3.2.3, "Nested Pipelining").

    ``weight_reuse_batch`` amortises weight streaming over a batch of
    inputs — the wheel's FC batching (Sec 3.3.1) fetches layer weights
    once per batch, dividing their traffic by the batch size.

    ``step_tile_multiplier`` widens the CompHeavy resources serving this
    step: during evaluation the BP and WG tiles also perform FP
    (Sec 6.1), i.e. a multiplier of 3.

    ``winograd`` applies the F(2x2, 3x3) arithmetic reduction to 3x3
    stride-1 convolutions — the future-work extension Sec 6.1 mentions.
    """
    if columns < 1:
        raise MappingError(
            f"layer {layer.name!r} needs at least one column, got {columns}"
        )
    if weight_reuse_batch < 1 or step_tile_multiplier < 1:
        raise MappingError(
            "weight_reuse_batch and step_tile_multiplier must be >= 1"
        )
    prof: LayerStepProfile = profile(layer, step, dtype_bytes)
    tiles = columns * chip.rows  # MemHeavy tiles / CompHeavy tiles per step
    comp_tiles = tiles * step_tile_multiplier
    comp = chip.comp_tile
    mem = chip.mem_tile
    weight_bytes = prof.weight_bytes / weight_reuse_batch

    # ------------------------------------------------------------------
    # Which tensor do this step's "features" refer to?
    #   FP computes output features; BP computes input errors; WG sweeps
    #   output positions to produce per-kernel gradients.
    # ------------------------------------------------------------------
    in_shape = layer.input_shapes[0] if layer.input_shapes else layer.output_shape
    out_shape = layer.output_shape
    if layer.kind is LayerKind.FC:
        # The FC input/error vector streams along the array rows.
        if step is Step.FP:
            features, feature_rows = out_shape.count, in_shape.elements
        elif step is Step.BP:
            features, feature_rows = in_shape.count, out_shape.elements
        else:
            features, feature_rows = out_shape.count, in_shape.elements
    elif step is Step.FP:
        features, feature_rows = out_shape.count, in_shape.height
    elif step is Step.BP:
        # BP runs one convolution per output-error feature (with rotated
        # kernels); partial input errors accumulate in the MemHeavy tiles,
        # so the parallelism is over the output features.
        features, feature_rows = out_shape.count, out_shape.height
    else:  # WG: one gradient tensor per output feature's kernels
        features, feature_rows = out_shape.count, in_shape.height

    # ------------------------------------------------------------------
    # Compute cycles on the 2D-PE arrays (ND_CONV / MATMUL kernels).
    # ------------------------------------------------------------------
    array_flops = prof.flops_by_kernel.get(Kernel.ND_CONV, 0) + prof.flops_by_kernel.get(
        Kernel.MATMUL, 0
    ) + prof.flops_by_kernel.get(Kernel.VEC_ELT_MUL, 0)
    if winograd and layer.kind is LayerKind.CONV:
        spec = layer.spec
        assert isinstance(spec, ConvSpec)
        if spec.kernel == 3 and spec.stride == 1:
            conv_part = prof.flops_by_kernel.get(Kernel.ND_CONV, 0)
            array_flops -= conv_part * (1.0 - 1.0 / WINOGRAD_REALIZED_FACTOR)
    if features >= comp_tiles:
        per_tile_features = math.ceil(features / comp_tiles)
        feature_util = features / (per_tile_features * comp_tiles)
        rows_per_tile = max(1, feature_rows)
    else:
        # STEP4: when there are fewer features than tiles, a MemHeavy
        # tile holds part of a feature (the initial-CONV-layer case) and
        # the feature's rows split across the tiles serving it.
        splits = max(1, comp_tiles // features)
        rows_per_tile = max(1, math.ceil(max(1, feature_rows) / splits))
        per_tile_features = 1
        feature_util = (features * max(1, feature_rows)) / (
            comp_tiles * rows_per_tile
        )
    if array_flops:
        array_cfg, array_util = comp.best_configuration(
            rows_per_tile, per_tile_features
        )
    else:
        array_cfg, array_util = None, 1.0

    cascade = UtilizationCascade(
        feature_distribution=feature_util,
        array_residue=array_util,
        instruction_overhead=instruction_overhead,
    )
    # Dot products execute on the FMA lanes; the 1D accumulator column
    # serves the partial-output accumulation and adds no MAC capacity.
    peak_per_cycle = comp_tiles * 2 * comp.fma_count
    compute_cycles = (
        array_flops / (peak_per_cycle * cascade.achieved)
        if array_flops
        else 0.0
    )

    # ------------------------------------------------------------------
    # SFU cycles on the MemHeavy tiles (accumulate / activation / samp).
    # ------------------------------------------------------------------
    sfu_flops = sum(
        prof.flops_by_kernel.get(k, 0)
        for k in (Kernel.ND_ACCUM, Kernel.ACT_FN, Kernel.SAMPLING)
    )
    sfu_cycles = sfu_flops / (tiles * mem.flops_per_cycle) if sfu_flops else 0.0

    # ------------------------------------------------------------------
    # Link traffic (per image, this step).
    # ------------------------------------------------------------------
    in_bytes = in_shape.elements * dtype_bytes
    out_bytes = out_shape.elements * dtype_bytes
    if layer.kind is LayerKind.CONV and array_flops:
        # Inputs re-stream once per output-feature batch within a tile;
        # one partial output per (input feature, output element) pair is
        # written to (and accumulated in) the right MemHeavy tile.
        spec = layer.spec
        assert isinstance(spec, ConvSpec)
        lanes = comp.cols * comp.lanes if array_cfg is None else (
            array_cfg.lanes * array_cfg.splits
        )
        batches = math.ceil(per_tile_features / max(1, lanes))
        partials = out_shape.elements * (in_shape.count // spec.groups)
        comp_mem_bytes = (in_bytes * batches + partials * dtype_bytes)
        # Accumulating partial outputs vertically to the home row takes
        # (rows - 1) hops and horizontally across the unit's columns
        # (columns - 1) hops, then outputs distribute to their home
        # tiles; inputs arrive from the previous layer's columns.
        mem_mem_bytes = (
            out_bytes * (chip.rows - 1 + max(0, columns - 1) + 1.0)
            + in_bytes
        )
    elif layer.kind is LayerKind.FC and array_flops:
        # Weights stream through the array once; features are tiny.
        comp_mem_bytes = float(in_bytes + out_bytes + weight_bytes)
        mem_mem_bytes = float(in_bytes + out_bytes)
    else:
        comp_mem_bytes = 0.0
        mem_mem_bytes = float(in_bytes + out_bytes)

    ext_bytes = 0.0
    if not weights_on_chip:
        ext_bytes += weight_bytes
    if store_features_offchip and layer.kind in (LayerKind.CONV, LayerKind.FC):
        # FP stages its outputs to external memory; WG fetches them back.
        if step is Step.FP:
            ext_bytes += out_bytes
        elif step is Step.WG:
            ext_bytes += in_bytes

    # ------------------------------------------------------------------
    # Link-bound cycle terms.  Each CompHeavy tile has two comp-mem links
    # (left/right); each MemHeavy tile has ~2 usable mem-mem links after
    # accounting for shared edges; external bandwidth is the chip's,
    # shared in proportion to the columns this layer owns.
    # ------------------------------------------------------------------
    comp_mem_bpc = _bytes_per_cycle(chip.links.comp_mem, node_frequency_hz)
    mem_mem_bpc = _bytes_per_cycle(chip.links.mem_mem, node_frequency_hz)
    ext_bpc = _bytes_per_cycle(
        chip.links.external_memory_total, node_frequency_hz
    )

    comp_mem_link_cycles = comp_mem_bytes / (comp_tiles * 2 * comp_mem_bpc)
    mem_mem_link_cycles = mem_mem_bytes / (tiles * 2 * mem_mem_bpc)
    ext_share = ext_bpc * columns / chip.cols
    ext_mem_cycles = ext_bytes / ext_share if ext_bytes else 0.0

    return StepCost(
        layer=layer.name,
        step=step,
        columns=columns,
        compute_cycles=compute_cycles,
        sfu_cycles=sfu_cycles,
        comp_mem_link_cycles=comp_mem_link_cycles,
        mem_mem_link_cycles=mem_mem_link_cycles,
        ext_mem_cycles=ext_mem_cycles,
        utilization=cascade,
        traffic=TrafficSummary(comp_mem_bytes, mem_mem_bytes, ext_bytes),
        array_config=array_cfg,
    )


def layer_stage_cycles(
    node_frequency_hz: float,
    chip: ChipConfig,
    layer: LayerNode,
    columns: int,
    dtype_bytes: int,
    weights_on_chip: bool,
    training: bool = True,
) -> float:
    """Worst-case stage latency across the steps a layer runs.

    During training, a layer's FP, BP and WG run on separate CompHeavy
    tiles as independent pipeline stages; the layer's contribution to the
    pipeline bottleneck is the slowest of the three.
    """
    steps = (Step.FP, Step.BP, Step.WG) if training else (Step.FP,)
    return max(
        step_cost(
            node_frequency_hz, chip, layer, step, columns, dtype_bytes,
            weights_on_chip, store_features_offchip=training,
        ).cycles
        for step in steps
    )
