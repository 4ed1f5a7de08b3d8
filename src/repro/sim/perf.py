"""Analytical performance simulator for the nested pipeline (Sec 3.2.3).

Given a workload mapping, this model computes the steady-state throughput
of the two-level nested pipeline: every mapping unit contributes three
concurrent stages (FP, BP, WG on their dedicated CompHeavy tiles), the
FcLayer hubs contribute the batched FC stages, and the pipeline runs at
the pace of its slowest stage.  :class:`Pipeline` turns the stages into
one copy's pipeline — stage times, beat, bottleneck and fill — which
the Fig 10 schedule, the tile profiles, serving latency and the fault
sampler all read.  From the same per-stage cost model it
derives 2D-PE utilization (Fig 16/19), link utilization for every level
of the grid-wheel-ring hierarchy (Fig 21), and average power /
processing efficiency (Fig 20).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.arch.chip import ChipKind
from repro.arch.node import NodeConfig
from repro.arch.power import PowerDraw, node_power_model
from repro.arch.system import Parallelism, SystemConfig
from repro.compiler.cost import StepCost, step_cost
from repro.compiler.mapping import UnitAllocation, WorkloadMapping
from repro.dnn.analysis import Step, profile_network
from repro.dnn.layers import LayerKind
from repro.dnn.network import Network
from repro.errors import SimulationError
from repro.faults.model import FaultMask
from repro.telemetry.core import get_telemetry

#: Default minibatch: the paper aggregates gradients per minibatch; 256
#: is the conventional ImageNet minibatch of its era.
DEFAULT_MINIBATCH = 256

#: Fraction of minibatch gradient-sync traffic visible as steady-state
#: arc/ring load (the rest overlaps with compute).
WEIGHT_SYNC_OVERLAP = 0.25


@dataclass(frozen=True)
class StageReport:
    """One pipeline stage: a (unit, step) pair and its cost."""

    unit: str
    step: Step
    chip: str
    cost: StepCost

    @property
    def cycles(self) -> float:
        return self.cost.cycles


class Pipeline:
    """One copy's nested pipeline (Fig 10, Sec 3.2.3), built from a
    mapping's stage reports.

    ``stages`` come in report order (unit by unit, FP/BP/WG).  The
    pipeline's :attr:`stages` run in traversal order: every unit's FP
    stage in dataflow order, then (training) one stage per unit in
    reverse order, held by the slower of its BP and WG (they run
    concurrently on their own tiles).  :attr:`times` are the cycles each
    stage spends per image of one copy; an FcLayer hub serving
    ``hub_load`` copies holds each copy's image ``hub_load`` times its
    cycles.  The slowest stage is the :attr:`bottleneck` and sets the
    :attr:`beat` (on a tie, the first in report order, as the rate's
    ``min`` in :func:`_throughput` takes it); the first image through an
    empty pipeline takes the :attr:`fill`; ``n`` images take
    ``fill + (n - 1) * beat``, the closed form of the
    :func:`repro.sim.timeline.schedule` recurrence.
    """

    def __init__(
        self, stages: Sequence[StageReport], hub_load: float = 1.0
    ) -> None:
        if not stages:
            raise SimulationError("no pipeline stages to simulate")
        self.hub_load = hub_load
        forward = [s for s in stages if s.step is Step.FP]
        backward: Dict[str, StageReport] = {}
        for stage in stages:
            held = backward.get(stage.unit)
            if stage.step is not Step.FP and (
                held is None or stage.cycles > held.cycles
            ):
                backward[stage.unit] = stage
        self.stages = tuple(forward + list(reversed(backward.values())))
        self.times = tuple(map(self.time, self.stages))
        self.bottleneck = max(stages, key=self.time)
        self.beat = self.time(self.bottleneck)
        self.fill = 0.0
        for t in self.times:  # left to right: sum() compensates on 3.12
            self.fill += t

    def load(self, stage: StageReport) -> float:
        """Copies the tiles of ``stage`` serve: a ConvLayer stage belongs
        to one copy, an FcLayer hub serves :attr:`hub_load`."""
        return self.hub_load if stage.chip == ChipKind.FC.value else 1.0

    def time(self, stage: StageReport) -> float:
        """Cycles ``stage`` spends per image of one copy."""
        return stage.cycles * self.load(stage)


def _hub_load(mapping: WorkloadMapping) -> float:
    """Copies one FcLayer hub serves."""
    return mapping.copies / mapping.node.cluster_count


def evaluation_pipeline(mapping: WorkloadMapping) -> Pipeline:
    """One copy's evaluation pipeline: the FP stages alone, at the
    evaluation tile multiplier."""
    return Pipeline(
        _stage_reports(mapping, training=False, tile_multiplier=3),
        _hub_load(mapping),
    )


@dataclass(frozen=True)
class LinkUtilization:
    """Utilization of every link class (Fig 21's three panels)."""

    comp_mem: float
    mem_mem: float
    conv_ext: float
    fc_ext: float
    spoke: float
    arc: float
    ring: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "comp_mem": self.comp_mem,
            "mem_mem": self.mem_mem,
            "conv_ext": self.conv_ext,
            "fc_ext": self.fc_ext,
            "spoke": self.spoke,
            "arc": self.arc,
            "ring": self.ring,
        }


@dataclass(frozen=True)
class PerfResult:
    """Complete simulation result for one network on one node config."""

    network: str
    node: str
    mapping: WorkloadMapping
    training_images_per_s: float
    evaluation_images_per_s: float
    pe_utilization: float
    stages: Tuple[StageReport, ...]
    link_utilization: LinkUtilization
    average_power: PowerDraw
    gflops_per_watt: float
    achieved_tflops: float
    minibatch: int
    #: Cycles of one copy's evaluation pipeline (see
    #: :func:`evaluation_pipeline`): an image's fill and the beat.
    evaluation_fill: float
    evaluation_beat: float

    @property
    def training_pipeline(self) -> Pipeline:
        """One copy's training pipeline over :attr:`stages`."""
        return Pipeline(self.stages, _hub_load(self.mapping))

    @property
    def bottleneck(self) -> StageReport:
        return self.training_pipeline.bottleneck

    def describe(self) -> str:
        b = self.bottleneck
        return (
            f"{self.network} on {self.node}: "
            f"train {self.training_images_per_s:,.0f} img/s, "
            f"eval {self.evaluation_images_per_s:,.0f} img/s, "
            f"PE util {self.pe_utilization:.2f}, "
            f"{self.achieved_tflops:.1f} TFLOP/s sustained, "
            f"{self.gflops_per_watt:.0f} GFLOPs/W "
            f"(bottleneck: {b.unit}/{b.step.value}, {b.cost.bound_by})"
        )


def _derate_cost(cost: StepCost, derate: float) -> StepCost:
    """Fold a tile-slow fault into a stage cost.

    The columns of a stage advance in lockstep (features distribute
    across the columns and partial outputs merge — the STEP4/5 state
    partitioning), so a derated column paces the whole stage: every
    cycle term stretches by ``1 / derate``.
    """
    if derate >= 1.0:
        return cost
    scale = 1.0 / max(derate, 1e-9)
    return replace(
        cost,
        compute_cycles=cost.compute_cycles * scale,
        sfu_cycles=cost.sfu_cycles * scale,
        comp_mem_link_cycles=cost.comp_mem_link_cycles * scale,
        mem_mem_link_cycles=cost.mem_mem_link_cycles * scale,
        ext_mem_cycles=cost.ext_mem_cycles * scale,
    )


def _merge_costs(costs: List[StepCost], alloc: UnitAllocation) -> StepCost:
    """Sum the member costs of a multi-member unit into one stage cost."""
    if len(costs) == 1:
        return costs[0]
    from repro.compiler.cost import TrafficSummary  # local: avoid cycle

    first = costs[0]
    return StepCost(
        layer=alloc.unit,
        step=first.step,
        columns=alloc.columns,
        compute_cycles=sum(c.compute_cycles for c in costs),
        sfu_cycles=sum(c.sfu_cycles for c in costs),
        comp_mem_link_cycles=sum(c.comp_mem_link_cycles for c in costs),
        mem_mem_link_cycles=sum(c.mem_mem_link_cycles for c in costs),
        ext_mem_cycles=sum(c.ext_mem_cycles for c in costs),
        utilization=max(
            (c.utilization for c in costs),
            key=lambda u: u.achieved,
        ),
        traffic=TrafficSummary(
            sum(c.traffic.comp_mem_bytes for c in costs),
            sum(c.traffic.mem_mem_bytes for c in costs),
            sum(c.traffic.ext_mem_bytes for c in costs),
        ),
        array_config=first.array_config,
    )


def _stage_reports(
    mapping: WorkloadMapping,
    training: bool,
    tile_multiplier: int,
) -> List[StageReport]:
    """Per-(unit, step) costs in report order: the ConvLayer units, then
    the FcLayer hub units, each with its FP (and BP, WG) stages.

    FC weight streaming amortises over the wheel/ring batch.  Members
    of a unit share its columns, so their latencies add.
    """
    node = mapping.node
    steps = tuple(Step) if training else (Step.FP,)
    sides = (
        (node.cluster.conv_chip, mapping.conv_allocations,
         dict(winograd=node.use_winograd)),
        (node.cluster.fc_chip, mapping.fc_allocations,
         dict(weight_reuse_batch=max(1, mapping.fc_batch_size))),
    )
    reports: List[StageReport] = []
    for chip, allocations, side_terms in sides:
        for alloc in allocations.values():
            for step in steps:
                costs = [
                    step_cost(
                        node.frequency_hz, chip, mapping.network[member],
                        step, alloc.columns, node.dtype_bytes,
                        alloc.weights_on_chip,
                        store_features_offchip=training,
                        step_tile_multiplier=tile_multiplier,
                        **side_terms,
                    )
                    for member in alloc.members
                ]
                merged = _merge_costs(costs, alloc)
                reports.append(StageReport(
                    alloc.unit, step, chip.kind.value,
                    _derate_cost(merged, alloc.derate),
                ))
    return reports


def _throughput(
    mapping: WorkloadMapping,
    pipeline: Pipeline,
    training: bool,
    minibatch: int,
) -> float:
    """Node images/s: the pipeline's bottleneck stage sets the pace.

    Each ConvLayer stage serves one copy, so its node-level rate scales
    by the copy count.  The FcLayer hubs jointly serve every image in
    the node — with model parallelism each hub computes a weight shard
    for all images, without it each hub computes full layers for its own
    cluster's images — so either way the node-level FC rate is
    ``cluster_count * freq / stage_cycles``.
    """
    node = mapping.node
    limiting = pipeline.bottleneck
    servers = (
        node.cluster_count if limiting.chip == ChipKind.FC.value
        else mapping.copies
    )
    images_per_s = servers * node.frequency_hz / limiting.cycles
    if training:
        # Pipeline drain at minibatch boundaries (Sec 3.2.3): each
        # minibatch pays one drain of the training pipeline (FP then
        # BP/WG, twice the unit count).
        images_per_s /= 1.0 + len(pipeline.stages) / minibatch
    return images_per_s


def _emit_stage_telemetry(
    tel,
    network: str,
    stages: List[StageReport],
    beat: float,
    train_rate: float,
    eval_rate: float,
    pe_util: float,
) -> None:
    """Report the analytical pipeline through the telemetry schema: one
    span per (unit, step) stage — all starting at 0, since the stages
    run concurrently in steady state — plus headline counters."""
    for stage in stages:
        cost = stage.cost
        tel.span(
            f"{stage.unit}/{stage.step.value}", "perf.stage",
            ("perf", f"{stage.unit}/{stage.step.value}"), 0.0,
            stage.cycles,
            network=network, chip=stage.chip, columns=cost.columns,
            bound_by=cost.bound_by,
            compute_cycles=cost.compute_cycles,
            sfu_cycles=cost.sfu_cycles,
            achieved_util=cost.utilization.achieved,
        )
        # Distribution metrics: per-stage latency histograms, split by
        # training step so ``repro stats`` reports p50/p95/p99 per class.
        tel.observe("perf.stage_cycles", stage.step.value, stage.cycles)
        tel.observe("perf.stage_cycles", "all", stage.cycles)
    group = f"perf/{network}"
    tel.record(group, "stages", len(stages))
    tel.record(group, "bottleneck_cycles", beat)
    tel.record(group, "train_images_per_s", train_rate)
    tel.record(group, "eval_images_per_s", eval_rate)
    tel.record(group, "pe_utilization", pe_util)
    tel.gauge(group, "bottleneck_cycles", beat)
    tel.gauge(group, "train_images_per_s", train_rate)
    tel.gauge(group, "eval_images_per_s", eval_rate)
    tel.gauge(group, "pe_utilization", pe_util)


# ---------------------------------------------------------------------------
# Utilization, traffic and power aggregation
# ---------------------------------------------------------------------------
def _array_flops_per_image(mapping: WorkloadMapping, training: bool) -> float:
    """FLOPs per image that execute on 2D-PE arrays (CONV/MATMUL/VEC)."""
    from repro.dnn.analysis import Kernel, profile

    steps = tuple(Step) if training else (Step.FP,)
    total = 0.0
    for node in mapping.network:
        if node.kind not in (LayerKind.CONV, LayerKind.FC):
            continue
        for step in steps:
            prof = profile(node, step, mapping.node.dtype_bytes)
            total += (
                prof.flops_by_kernel.get(Kernel.ND_CONV, 0)
                + prof.flops_by_kernel.get(Kernel.MATMUL, 0)
                + prof.flops_by_kernel.get(Kernel.VEC_ELT_MUL, 0)
            )
    return total


def _allocated_comp_flops_per_cycle(mapping: WorkloadMapping) -> float:
    """Peak FLOPs/cycle of the CompHeavy tiles allocated node-wide."""
    node = mapping.node
    conv = node.cluster.conv_chip
    fc = node.cluster.fc_chip
    conv_tiles = sum(
        a.columns * conv.rows * 3 for a in mapping.conv_allocations.values()
    ) * mapping.copies
    fc_tiles = sum(
        a.columns * fc.rows * 3 for a in mapping.fc_allocations.values()
    ) * node.cluster_count
    return (
        conv_tiles * conv.comp_tile.flops_per_cycle
        + fc_tiles * fc.comp_tile.flops_per_cycle
    )


def _span_crossings(columns: Sequence[int], span_cols: int) -> List[int]:
    """Indices of column-sequence units whose output crosses a
    ``span_cols`` boundary on the way to its consumer.

    A unit crosses when it straddles a boundary internally, or when it
    ends exactly on a boundary and a successor unit reads its output
    from the far side.  The trailing unit of the sequence never counts
    for ending on a boundary — there is no consumer beyond it.
    """
    if span_cols <= 0:
        return []
    crossings: List[int] = []
    start = 0
    for index, width in enumerate(columns):
        end = start + width
        straddles = start // span_cols != (end - 1) // span_cols
        on_edge = (
            index + 1 < len(columns)
            and (end - 1) // span_cols != end // span_cols
        )
        if straddles or on_edge:
            crossings.append(index)
        start = end
    return crossings


def _chip_boundary_bytes(mapping: WorkloadMapping, span_cols: int) -> float:
    """Feature+error bytes per image crossing every ``span_cols``-column
    boundary of the copy's column sequence (chip or cluster edges)."""
    allocs = list(mapping.conv_allocations.values())
    dtype = mapping.node.dtype_bytes
    crossed = 0.0
    for index in _span_crossings([a.columns for a in allocs], span_cols):
        # This unit's output may stay put; the *next* unit reads it
        # across the boundary.  Count its output once each way.
        out_elems = sum(
            mapping.network[m].output_shape.elements
            for m in allocs[index].members
        )
        crossed += 2.0 * out_elems * dtype
    return crossed


def _first_fc_input_bytes(mapping: WorkloadMapping) -> float:
    """Bytes of the feature vector each image ships to the FC hub."""
    if not mapping.fc_allocations:
        return 0.0
    first = next(iter(mapping.fc_allocations.values()))
    member = mapping.network[first.members[0]]
    if not member.input_shapes:
        return 0.0
    return member.input_shapes[0].elements * mapping.node.dtype_bytes


def _fc_feature_bytes(mapping: WorkloadMapping) -> float:
    """Total FC-side feature bytes per image (inputs + outputs)."""
    dtype = mapping.node.dtype_bytes
    total = 0.0
    for alloc in mapping.fc_allocations.values():
        for m in alloc.members:
            node = mapping.network[m]
            ins = node.input_shapes[0].elements if node.input_shapes else 0
            total += (ins + node.output_shape.elements) * dtype
    return total


def _link_utilization(
    mapping: WorkloadMapping,
    stages: List[StageReport],
    images_per_s: float,
    minibatch: int,
) -> LinkUtilization:
    node = mapping.node
    conv = node.cluster.conv_chip
    fc = node.cluster.fc_chip
    conv_stages = [s for s in stages if s.chip == conv.kind.value]
    fc_stages = [s for s in stages if s.chip == fc.kind.value]
    dtype = node.dtype_bytes
    per_copy_rate = images_per_s / max(1, mapping.copies)

    def clamp(x: float) -> float:
        return min(1.0, max(0.0, x))

    # --- on-chip links (per copy; identical across copies) -------------
    conv_comp_links = sum(
        a.columns * conv.rows * 3 * 2
        for a in mapping.conv_allocations.values()
    )
    conv_mem_links = sum(
        a.columns * conv.rows * 2 for a in mapping.conv_allocations.values()
    )
    comp_traffic = sum(s.cost.traffic.comp_mem_bytes for s in conv_stages)
    mem_traffic = sum(s.cost.traffic.mem_mem_bytes for s in conv_stages)
    comp_mem_util = clamp(
        per_copy_rate * comp_traffic
        / max(1.0, conv_comp_links * conv.links.comp_mem)
    )
    mem_mem_util = clamp(
        per_copy_rate * mem_traffic
        / max(1.0, conv_mem_links * conv.links.mem_mem)
    )

    # --- chip external memory ------------------------------------------
    ext_traffic = sum(s.cost.traffic.ext_mem_bytes for s in conv_stages)
    conv_ext_util = clamp(
        per_copy_rate * ext_traffic
        / max(
            1.0,
            mapping.conv_chips_per_copy * conv.links.external_memory_total,
        )
    )
    fc_ext_traffic = sum(s.cost.traffic.ext_mem_bytes for s in fc_stages)
    fc_ext_util = clamp(
        images_per_s * fc_ext_traffic
        / max(1.0, node.cluster_count * fc.links.external_memory_total)
    )

    # --- wheel spokes: FC inputs out, FC errors back --------------------
    spoke_bytes = 2.0 * _first_fc_input_bytes(mapping)
    spoke_util = clamp(
        per_copy_rate * spoke_bytes / max(1.0, node.cluster.spoke_bandwidth)
    )

    # --- wheel arcs: inter-chip CONV traffic + minibatch weight sync ----
    conv_weight_bytes = sum(
        mapping.network[m].weights
        for a in mapping.conv_allocations.values()
        for m in a.members
    ) * dtype
    arc_bytes = _chip_boundary_bytes(mapping, conv.cols)
    # Gradient accumulation pipelines around the wheel overlapped with
    # compute; only a fraction shows up as steady-state arc traffic.
    arc_bytes += WEIGHT_SYNC_OVERLAP * 2.0 * conv_weight_bytes / minibatch
    # Each chip boundary has its own arc link, so the crossings spread
    # over (chips_per_copy - 1) arcs.
    arc_links = max(1, min(mapping.conv_chips_per_copy, 4) - 1) if (
        mapping.conv_chips_per_copy > 1
    ) else 1
    if mapping.faults is not None:
        # Traffic of a down arc reroutes the long way round the rim,
        # concentrating on the surviving arcs of the worst-hit cluster.
        arc_links = max(
            1, arc_links - mapping.faults.worst_cluster_down_arcs
        )
    arc_util = clamp(
        per_copy_rate * arc_bytes
        / max(1.0, arc_links * node.cluster.arc_bandwidth)
    )

    # --- ring: model-parallel FC features, cross-cluster CONV traffic,
    #     and minibatch gradient accumulation --------------------------
    ring_bytes = 0.0
    if node.fc_model_parallel and mapping.fc_allocations:
        hubs = node.cluster_count
        ring_bytes += 2.0 * _fc_feature_bytes(mapping) * (hubs - 1) / hubs
    if mapping.clusters_per_copy > 1:
        ring_bytes += _chip_boundary_bytes(
            mapping, conv.cols * node.cluster.conv_chip_count
        )
    ring_bytes += WEIGHT_SYNC_OVERLAP * 2.0 * conv_weight_bytes / minibatch
    ring_links = node.cluster_count
    if mapping.faults is not None:
        # A cut ring degrades to a line; the traffic squeezes onto the
        # surviving links.
        ring_links = max(1, ring_links - len(mapping.faults.down_ring))
    ring_util = clamp(
        images_per_s * ring_bytes
        / max(1.0, ring_links * node.ring_bandwidth)
    )

    return LinkUtilization(
        comp_mem=comp_mem_util,
        mem_mem=mem_mem_util,
        conv_ext=conv_ext_util,
        fc_ext=fc_ext_util,
        spoke=spoke_util,
        arc=arc_util,
        ring=ring_util,
    )


def simulate(
    net: Network,
    node: NodeConfig,
    minibatch: int = DEFAULT_MINIBATCH,
    mapping: Optional[WorkloadMapping] = None,
    faults: Optional[FaultMask] = None,
) -> PerfResult:
    """Simulate training and evaluation of ``net`` on ``node``.

    Returns throughput, utilization, link utilization and power — the
    quantities behind Figs 16/17 (throughput + utilization), Fig 20
    (power/efficiency) and Fig 21 (bandwidth utilization).  With a
    ``faults`` mask (or a ``mapping`` made under one) the pipeline runs
    on the degraded machine: derated stages, rerouted arc/ring traffic.
    """
    if minibatch < 1:
        raise SimulationError(f"minibatch must be >= 1, got {minibatch}")
    if mapping is None:
        # Through the unified pipeline: the placement that arrives here
        # has passed IR verification (and was placed over the surviving
        # columns, when masked).
        from repro.compiler.pipeline import compile_network

        mapping = compile_network(net, node, faults=faults).mapping

    stages = _stage_reports(mapping, training=True, tile_multiplier=1)
    train_pipeline = Pipeline(stages, _hub_load(mapping))
    eval_pipeline = evaluation_pipeline(mapping)
    train_rate = _throughput(mapping, train_pipeline, True, minibatch)
    eval_rate = _throughput(mapping, eval_pipeline, False, minibatch)

    # 2D-PE utilization over the allocated CompHeavy tiles.
    useful = _array_flops_per_image(mapping, training=True) * train_rate
    capacity = _allocated_comp_flops_per_cycle(mapping) * node.frequency_hz
    pe_util = min(1.0, useful / capacity) if capacity else 0.0

    links = _link_utilization(mapping, stages, train_rate, minibatch)

    # Machine-level activity drives node power: compute activity relative
    # to the whole node's CompHeavy tiles, link activity from the on-chip
    # links that dominate interconnect power.
    node_comp_capacity = (
        node.comp_tile_count
        * node.cluster.conv_chip.comp_tile.flops_per_cycle  # dominant kind
        * node.frequency_hz
    )
    machine_util = min(1.0, useful / node_comp_capacity)
    link_activity = min(1.0, 0.5 * (links.comp_mem + links.mem_mem))
    draw = node_power_model().average(
        compute_utilization=machine_util,
        link_utilization=link_activity,
        memory_utilization=0.5,
    )
    training_flops = profile_network(net, node.dtype_bytes).training_flops
    achieved = training_flops * train_rate
    gflops_per_watt = achieved / draw.total_w / 1e9

    tel = get_telemetry()
    if tel.enabled:
        _emit_stage_telemetry(
            tel, net.name, stages, train_pipeline.beat, train_rate,
            eval_rate, pe_util,
        )

    return PerfResult(
        network=net.name,
        node=node.name,
        mapping=mapping,
        training_images_per_s=train_rate,
        evaluation_images_per_s=eval_rate,
        pe_utilization=pe_util,
        stages=tuple(stages),
        link_utilization=links,
        average_power=draw,
        gflops_per_watt=gflops_per_watt,
        achieved_tflops=achieved / 1e12,
        minibatch=minibatch,
        evaluation_fill=eval_pipeline.fill,
        evaluation_beat=eval_pipeline.beat,
    )


def simulate_suite(
    networks: Mapping[str, Network],
    node: NodeConfig,
    minibatch: int = DEFAULT_MINIBATCH,
) -> Dict[str, PerfResult]:
    """Simulate every network in ``networks`` on the same node config."""
    return {
        name: simulate(net, node, minibatch)
        for name, net in networks.items()
    }


# ---------------------------------------------------------------------------
# Multi-node scale-out (SystemConfig)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SystemPerfResult:
    """Scale-out overlay on a per-node :class:`PerfResult`.

    ``node_result`` is the unchanged single-node simulation; the system
    fields scale it with the strategy's communication terms.  For a
    1-node system every system quantity equals its per-node twin
    exactly (the byte-compatibility contract).
    """

    network: str
    system: str
    node_count: int
    strategy: str  # canonical ParallelismStrategy token
    node_result: PerfResult
    system_training_images_per_s: float
    system_evaluation_images_per_s: float
    internode_sync_s: float  # per minibatch, serialized
    sync_fraction: float  # of the training step time
    scaling_efficiency: float  # vs node_count perfectly-scaled nodes
    system_power_w: float
    system_gflops_per_watt: float
    minibatch: int

    @property
    def per_node_training_images_per_s(self) -> float:
        return self.system_training_images_per_s / self.node_count

    @property
    def per_node_evaluation_images_per_s(self) -> float:
        return self.system_evaluation_images_per_s / self.node_count

    @property
    def speedup(self) -> float:
        """Training speedup over one node."""
        return (
            self.system_training_images_per_s
            / self.node_result.training_images_per_s
        )

    def describe(self) -> str:
        return (
            f"{self.network} on {self.system} "
            f"({self.node_count} node(s), {self.strategy}): "
            f"system train "
            f"{self.system_training_images_per_s:,.0f} img/s "
            f"({self.per_node_training_images_per_s:,.0f} per node), "
            f"system eval "
            f"{self.system_evaluation_images_per_s:,.0f} img/s, "
            f"speedup {self.speedup:.2f}x over one node "
            f"({100 * self.scaling_efficiency:.0f}% scaling efficiency), "
            f"inter-node sync {self.internode_sync_s * 1e3:.2f} "
            f"ms/minibatch ({100 * self.sync_fraction:.0f}% of step), "
            f"system power {self.system_power_w / 1e3:.2f} kW"
        )


def _boundary_activation_bytes(mapping: WorkloadMapping) -> float:
    """Mean per-layer output bytes — the activation payload a model-
    parallel shard cut ships across the fabric for one image."""
    elems = [n.output_shape.elements for n in mapping.network]
    if not elems:
        return 0.0
    return sum(elems) / len(elems) * mapping.node.dtype_bytes


def simulate_system(
    net: Network,
    system: SystemConfig,
    minibatch: int = DEFAULT_MINIBATCH,
    node_result: Optional[PerfResult] = None,
) -> SystemPerfResult:
    """Scale a single-node simulation across ``system``'s nodes.

    The per-node pipeline model is reused untouched (``node_result``
    short-circuits it for callers that already simulated); on top sit
    the strategy's communication terms:

    * **data/hybrid**: each of the ``replicas`` groups works
      ``minibatch / replicas`` images, then the inter-node gradient
      all-reduce serializes at the minibatch boundary — throughput
      rolls off as the sync term grows against the shrinking per-
      replica compute slice;
    * **model/hybrid**: a replica spanning ``shards`` nodes pipelines
      layers across them — compute scales by the shard count until the
      fabric's activation bandwidth (features forward, errors backward)
      caps the rate;
    * evaluation has no gradient sync: replicas scale it linearly,
      shard groups are fabric-capped the same way.
    """
    from repro.sim.allreduce import internode_allreduce_cycles

    if node_result is None:
        node_result = simulate(net, system.node, minibatch)
    node = system.node
    freq = node.frequency_hz
    shards = system.model_shards
    replicas = system.replicas
    node_train = node_result.training_images_per_s
    node_eval = node_result.evaluation_images_per_s

    # One replica's rate across its shard nodes.
    if shards == 1:
        replica_train, replica_eval = node_train, node_eval
    else:
        act = _boundary_activation_bytes(node_result.mapping)
        fabric_images = (
            system.fabric_bandwidth / act if act > 0 else float("inf")
        )
        replica_train = min(shards * node_train, fabric_images / 2.0)
        replica_eval = min(shards * node_eval, fabric_images)

    # Inter-node gradient all-reduce: each replica's fabric endpoint
    # carries its 1/shards slice of the full model.
    weight_bytes = net.weight_count * node.dtype_bytes
    sync_cycles = internode_allreduce_cycles(
        weight_bytes / shards,
        replicas,
        system.fabric_bandwidth,
        freq,
        sync=system.strategy.gradient_sync,
        latency_s=system.fabric_latency_s,
    )
    sync_s = sync_cycles / freq

    if system.node_count == 1:
        # Exact identity with the single-node path (no float round
        # trips through the step-time inversion).
        system_train, system_eval = node_train, node_eval
        sync_fraction = 0.0
    else:
        compute_s = (minibatch / replicas) / replica_train
        step_s = compute_s + sync_s
        system_train = minibatch / step_s
        system_eval = replicas * replica_eval
        sync_fraction = sync_s / step_s

    efficiency = system_train / (system.node_count * node_train)
    power_w = node_result.average_power.total_w * system.node_count
    training_flops = profile_network(net, node.dtype_bytes).training_flops
    achieved = training_flops * system_train
    gflops_per_watt = achieved / power_w / 1e9

    tel = get_telemetry()
    if tel.enabled:
        group = f"system/{net.name}"
        tel.record(group, "nodes", system.node_count)
        tel.record(group, "system_train_images_per_s", system_train)
        tel.record(group, "system_eval_images_per_s", system_eval)
        tel.record(group, "scaling_efficiency", efficiency)
        tel.record(group, "internode_sync_s", sync_s)

    return SystemPerfResult(
        network=net.name,
        system=system.name,
        node_count=system.node_count,
        strategy=system.strategy.token,
        node_result=node_result,
        system_training_images_per_s=system_train,
        system_evaluation_images_per_s=system_eval,
        internode_sync_s=sync_s,
        sync_fraction=sync_fraction,
        scaling_efficiency=efficiency,
        system_power_w=power_w,
        system_gflops_per_watt=gflops_per_watt,
        minibatch=minibatch,
    )


# ---------------------------------------------------------------------------
# Fig 19: layer-wise utilization cascade
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class UnitUtilization:
    """Per-unit utilization cascade (one column group of Fig 19)."""

    unit: str
    columns: int
    pes: int
    ideal_pes: float
    column_peak_util: float  # allocated / ideal (may exceed 1)
    feature_distribution: float
    array_residue: float
    achieved: float


def utilization_report(mapping: WorkloadMapping) -> List[UnitUtilization]:
    """Reproduce Fig 19's utilization cascade for the conv-side units.

    ``column_peak_util`` is the paper's "Peak Util" row: the FLOPs-ideal
    2D-PE share divided by the allocated share (values above 1 mean the
    unit is over-provisioned and will idle; below 1 it throttles the
    pipeline).  The remaining factors multiply into the achieved 2D-PE
    utilization of each unit's FP tiles.
    """
    from repro.compiler.cost import step_cost as _step_cost

    node = mapping.node
    chip = node.cluster.conv_chip
    allocs = mapping.conv_allocations
    if not allocs:
        return []
    total_flops = sum(a.training_flops for a in allocs.values())
    total_pes = sum(
        a.columns * chip.rows * 3 * chip.comp_tile.pe_count
        for a in allocs.values()
    )
    rows: List[UnitUtilization] = []
    for alloc in allocs.values():
        pes = alloc.columns * chip.rows * 3 * chip.comp_tile.pe_count
        ideal = total_pes * alloc.training_flops / total_flops
        costs = [
            _step_cost(
                node.frequency_hz, chip, mapping.network[member], Step.FP,
                alloc.columns, node.dtype_bytes, alloc.weights_on_chip,
            )
            for member in alloc.members
        ]
        # FLOPs-weighted cascade over the unit's members.
        weights = [max(c.compute_cycles, 1.0) for c in costs]
        total_w = sum(weights)
        feat = sum(
            c.utilization.feature_distribution * w
            for c, w in zip(costs, weights)
        ) / total_w
        arr = sum(
            c.utilization.array_residue * w for c, w in zip(costs, weights)
        ) / total_w
        achieved = sum(
            c.utilization.achieved * w for c, w in zip(costs, weights)
        ) / total_w
        rows.append(
            UnitUtilization(
                unit=alloc.unit,
                columns=alloc.columns,
                pes=pes,
                ideal_pes=ideal,
                column_peak_util=pes / ideal if ideal else 1.0,
                feature_distribution=feat,
                array_residue=arr,
                achieved=achieved,
            )
        )
    return rows
