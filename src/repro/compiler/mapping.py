"""Workload mapping: STEP1-6 of the ScaleDeep compiler (paper Fig 13).

The mapper assigns every layer of a DNN to chip columns:

* STEP1 separates CONV/SAMP-side layers from FC-side layers and
  designates them to ConvLayer / FcLayer chips.  Non-weighted layers
  (SAMP, concat, element-wise joins, the input) are folded into the
  preceding weighted layer's allocation — its MemHeavy SFUs execute
  them — matching the paper's "C1/S1" grouping in Fig 19.  Parallel
  branch structures that join in a concatenation (GoogLeNet inception
  modules) are mapped as a single unit, which is how the paper counts
  them in Fig 15.
* STEP2 computes per-unit FLOPs.
* STEP3a computes the minimum columns each unit needs purely from
  memory capacity: the MemHeavy tiles must cumulatively hold two copies
  of the unit's features and errors plus two partial output batches.
  It then packs network copies over the surviving ConvLayer columns
  and bounds the FcLayer side by the worst hub's surviving columns.  A
  healthy node is the zero-fault case, where every column survives;
  under a fault mask each unit is also given concrete healthy column
  ids, a home column and a tile-slow derate.
* STEP3b load-balances the remaining columns: repeatedly grant one
  column to the unit with the highest stage latency, as long as the
  grant actually shortens it.
* STEP4/5 (state partitioning and compute assignment) are realised in
  the cost model's feature-distribution and array-configuration terms
  and, concretely for the functional engine, by
  :mod:`repro.compiler.partition`.
* STEP6 places weights on-chip where the allocated columns have spare
  scratchpad capacity, otherwise in external memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.arch.chip import ChipConfig, ChipKind
from repro.arch.node import NodeConfig
from repro.compiler.cost import layer_stage_cycles
from repro.dnn.analysis import Step, profile
from repro.dnn.layers import LayerKind
from repro.dnn.network import LayerNode, Network
from repro.errors import MappingError, UnmappableError
from repro.faults.model import FaultMask
from repro.telemetry.core import get_telemetry

#: Stop load-balancing a unit when an extra column improves its stage
#: latency by less than this fraction.
MIN_COLUMN_GAIN = 0.02


def default_group_key(layer_name: str) -> str:
    """Mapping-unit key: the prefix before the first underscore.

    Zoo networks name branch structures ``<module>_<branch>`` (e.g.
    ``inc4a_3x3``), so prefix grouping recovers the module.  Whether a
    prefix group is actually merged is decided structurally — see
    :func:`_split_layers`.
    """
    return layer_name.split("_", 1)[0]


@dataclass
class MappingUnit:
    """A set of layers mapped together onto one span of chip columns."""

    name: str
    members: List[LayerNode]  # weighted layers (CONV or FC)
    attached: List[LayerNode]  # SAMP / joins / input executed on SFUs

    @property
    def kind(self) -> LayerKind:
        return self.members[0].kind

    @property
    def layer_names(self) -> Tuple[str, ...]:
        return tuple(n.name for n in self.members)


@dataclass
class UnitAllocation:
    """Columns and weight placement for one mapping unit."""

    unit: str
    members: Tuple[str, ...]
    kind: LayerKind
    chip_kind: ChipKind
    columns: int
    min_columns: int
    weights_on_chip: bool
    attached: Tuple[str, ...] = ()
    training_flops: int = 0
    state_bytes: int = 0
    #: Placement under a fault mask: the concrete healthy global column
    #: ids assigned to this unit (empty on a healthy node), the
    #: re-elected home column (first healthy assigned column), and the
    #: throughput derate from tile-slow faults on the assignment.
    assigned_columns: Tuple[int, ...] = ()
    home_column: int = -1
    derate: float = 1.0

    def describe(self) -> str:
        where = "on-chip" if self.weights_on_chip else "ext-mem"
        attached = f" (+{','.join(self.attached)})" if self.attached else ""
        slow = f", derated x{self.derate:g}" if self.derate < 1.0 else ""
        return (
            f"{self.unit}{attached}: {self.columns} col"
            f"{'s' if self.columns != 1 else ''} on {self.chip_kind.value}, "
            f"weights {where}{slow}"
        )


@dataclass
class WorkloadMapping:
    """The result of mapping one network onto a node configuration."""

    network: Network
    node: NodeConfig
    conv_allocations: Dict[str, UnitAllocation]
    fc_allocations: Dict[str, UnitAllocation]
    conv_chips_per_copy: int
    clusters_per_copy: int
    copies: int
    #: Fault mask the mapping was remapped around (``None`` = healthy).
    faults: Optional[FaultMask] = None
    #: Dead columns the remap routed around inside the chips it uses.
    remapped_columns: int = 0

    @property
    def degraded(self) -> bool:
        return self.faults is not None and self.faults.degraded

    @property
    def conv_columns_per_copy(self) -> int:
        """Total ConvLayer-chip columns per network copy (Fig 16 'Cols')."""
        return sum(a.columns for a in self.conv_allocations.values())

    @property
    def fc_columns(self) -> int:
        return sum(a.columns for a in self.fc_allocations.values())

    @property
    def fc_batch_size(self) -> int:
        """Inputs batched per FC pass at each FcLayer hub (Sec 3.3)."""
        per_wheel = self.node.cluster.fc_batch_size(
            min(self.conv_chips_per_copy, self.node.cluster.conv_chip_count)
        )
        batch = per_wheel * self.node.fc_temporal_batch
        if self.node.fc_model_parallel:
            clusters = max(1, self.node.cluster_count // self.clusters_per_copy)
            batch *= clusters
        return batch

    def allocation_for(self, layer: str) -> UnitAllocation:
        """Look up the allocation hosting ``layer`` (member or attached)."""
        for table in (self.conv_allocations, self.fc_allocations):
            for alloc in table.values():
                if layer in alloc.members or layer in alloc.attached:
                    return alloc
        raise MappingError(
            f"layer {layer!r} is not mapped in network "
            f"{self.network.name!r}"
        )

    def describe(self) -> str:
        lines = [
            f"Mapping of {self.network.name} onto {self.node.name}:",
            f"  {self.conv_chips_per_copy} ConvLayer chip(s)/copy, "
            f"{self.clusters_per_copy} cluster(s)/copy, "
            f"{self.copies} cop{'ies' if self.copies != 1 else 'y'}, "
            f"{self.conv_columns_per_copy} conv columns/copy, "
            f"FC batch {self.fc_batch_size}",
        ]
        if self.degraded:
            lines.append(
                f"  degraded: {self.faults.fault_count} fault(s), "
                f"{self.remapped_columns} dead column(s) remapped around"
            )
        for alloc in self.conv_allocations.values():
            lines.append("  " + alloc.describe())
        for alloc in self.fc_allocations.values():
            lines.append("  " + alloc.describe())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# STEP1: build mapping units and split them between chip kinds
# ---------------------------------------------------------------------------
def _split_layers(
    net: Network,
) -> Tuple[List[MappingUnit], List[MappingUnit]]:
    """Group layers into mapping units for the conv and FC chip sides.

    A prefix group containing a CONCAT layer (the inception-module
    signature) is merged into one unit; all other weighted layers form
    singleton units.  Non-weighted layers attach to the unit of the most
    recent weighted layer (leading layers — the input — attach to the
    first unit).
    """
    # Which prefixes denote branch modules (contain a concat)?
    merged_prefixes = {
        default_group_key(n.name)
        for n in net
        if n.kind is LayerKind.CONCAT
    }

    conv_units: List[MappingUnit] = []
    fc_units: List[MappingUnit] = []
    by_key: Dict[str, MappingUnit] = {}
    leading: List[LayerNode] = []
    last_unit: Optional[MappingUnit] = None

    for node in net:
        if node.kind in (LayerKind.CONV, LayerKind.FC):
            key = default_group_key(node.name)
            if key in merged_prefixes and key in by_key:
                by_key[key].members.append(node)
                last_unit = by_key[key]
                continue
            unit = MappingUnit(
                name=key if key in merged_prefixes else node.name,
                members=[node],
                attached=list(leading),
            )
            leading = []
            if key in merged_prefixes:
                by_key[key] = unit
            (conv_units if node.kind is LayerKind.CONV else fc_units).append(
                unit
            )
            last_unit = unit
        else:
            if last_unit is None:
                leading.append(node)
            else:
                # Joins stay with their module even if interleaved.
                key = default_group_key(node.name)
                target = by_key.get(key, last_unit)
                target.attached.append(node)
                last_unit = target

    if leading:
        raise MappingError(
            f"network {net.name!r} has no weighted layers to map"
        )
    if not conv_units and not fc_units:
        raise MappingError(
            f"network {net.name!r} has no CONV or FC layers to map"
        )
    return conv_units, fc_units


def _unit_state_bytes(
    unit: MappingUnit, dtype_bytes: int, partial_batch: int
) -> int:
    """STEP3a memory requirement: two copies of features and errors plus
    two partial output-feature batches (pipeline double buffering)."""
    outputs = sum(
        n.output_shape.elements for n in unit.members + unit.attached
    )
    features_and_errors = 2 * 2 * outputs * dtype_bytes
    feature_size = max(
        n.output_shape.feature_size for n in unit.members
    )
    partials = 2 * partial_batch * feature_size * dtype_bytes
    return features_and_errors + partials


def _unit_stage_cycles(
    node: NodeConfig,
    chip: ChipConfig,
    unit: MappingUnit,
    columns: int,
) -> float:
    """Stage latency of a unit: members share the columns, so their
    stage latencies add (branches execute as successive batches).

    Weight placement follows STEP6's rule at this column count, so the
    load balancer sees the benefit of a column grant that lets weights
    (and their gradients) move on-chip."""
    dtype = node.dtype_bytes
    state = _unit_state_bytes(unit, dtype, chip.comp_tile.lanes)
    weights = sum(m.weights for m in unit.members) * dtype
    spare = columns * chip.mem_capacity_per_column - state
    on_chip = 2 * weights <= spare
    return sum(
        layer_stage_cycles(
            node.frequency_hz, chip, member, columns, dtype,
            weights_on_chip=on_chip,
        )
        for member in unit.members
    )


def _min_columns(unit: MappingUnit, dtype: int, chip: ChipConfig) -> int:
    """STEP3a: the fewest columns whose MemHeavy tiles hold the unit's
    state."""
    state = _unit_state_bytes(unit, dtype, chip.comp_tile.lanes)
    return max(1, math.ceil(state / chip.mem_capacity_per_column))


def map_network(
    net: Network,
    node: NodeConfig,
    faults: Optional[FaultMask] = None,
) -> WorkloadMapping:
    """Map ``net`` onto ``node`` following the paper's STEP1-6.

    A healthy node is the zero-fault case of one placement: network
    copies are packed over the surviving ConvLayer columns and the
    FcLayer budget is the worst hub's surviving columns.  Under a
    ``faults`` mask every unit is also given concrete healthy column
    ids (re-electing its home column past dead ones) and a tile-slow
    derate.  :class:`UnmappableError` is raised when the surviving
    capacity cannot host the network.
    """
    conv_chip = node.cluster.conv_chip
    fc_chip = node.cluster.fc_chip
    conv_units, fc_units = _split_layers(net)

    tel = get_telemetry()
    if tel.enabled:
        tel.instant(
            "step1.partition", "compiler", ("compiler", "STEP1"), 0,
            network=net.name,
            conv_units=[u.name for u in conv_units],
            fc_units=[u.name for u in fc_units],
        )

    dtype = node.dtype_bytes
    dead_fc = faults.dead_fc_columns if faults is not None else frozenset()
    fc_budget, fc_assign_ids = _fc_budget(net, node, fc_units, dead_fc)
    fc_allocs = _allocate_side(node, fc_chip, fc_units, fc_budget)

    # Minimum chips one copy needs from STEP3a's memory constraint.
    min_cols = sum(_min_columns(u, dtype, conv_chip) for u in conv_units)
    min_chips = max(1, math.ceil(min_cols / conv_chip.cols))
    if min_chips > node.cluster.conv_chip_count * node.cluster_count:
        raise MappingError(
            f"{net.name} needs {min_chips} ConvLayer chips but the node "
            f"only has {node.conv_chip_count}"
        )
    # A network without conv units occupies no ConvLayer columns, so
    # dead ones displace nothing.
    dead_conv = (
        faults.dead_conv_columns
        if faults is not None and conv_units else frozenset()
    )
    (chips_per_copy, clusters_per_copy, copies,
     conv_budget, conv_assign_ids, remapped) = _conv_footprint(
        net, node, min_cols, dead_conv
    )
    conv_allocs = _allocate_side(node, conv_chip, conv_units, conv_budget)
    if faults is not None:
        _assign_columns(
            conv_allocs, conv_assign_ids, faults.conv_speed, net.name
        )
        _assign_columns(
            fc_allocs, fc_assign_ids, faults.fc_speed, net.name
        )

    mapping = WorkloadMapping(
        network=net,
        node=node,
        conv_allocations=conv_allocs,
        fc_allocations=fc_allocs,
        conv_chips_per_copy=chips_per_copy,
        clusters_per_copy=clusters_per_copy,
        copies=copies,
        faults=faults,
        remapped_columns=remapped + (len(dead_fc) if fc_units else 0),
    )
    _place_weights(mapping)
    if tel.enabled:
        tel.instant(
            "step3a.footprint", "compiler", ("compiler", "STEP3a"), 0,
            network=net.name, min_columns=min_cols,
            chips_per_copy=chips_per_copy,
            clusters_per_copy=clusters_per_copy, copies=copies,
        )
        group = f"mapping/{net.name}"
        tel.record(group, "conv_units", len(conv_units))
        tel.record(group, "fc_units", len(fc_units))
        tel.record(group, "conv_columns_per_copy",
                   mapping.conv_columns_per_copy)
        tel.record(group, "fc_columns", mapping.fc_columns)
        tel.record(group, "copies", copies)
    return mapping


# ---------------------------------------------------------------------------
# STEP3a: the footprint over the surviving columns
# ---------------------------------------------------------------------------
def _greedy_spans(
    capacities: Sequence[int], group: int, need: int
) -> List[Tuple[List[int], int]]:
    """Greedily pack contiguous spans with capacity >= ``need``.

    Spans never cross a ``group`` boundary (a copy cannot straddle two
    wheels, or two non-adjacent cluster groups).  Returns
    ``(member indices, capacity)`` per span.  With every column alive
    this is the uniform ``group // ceil(need / cap)`` layout.
    """
    spans: List[Tuple[List[int], int]] = []
    for start in range(0, len(capacities), group):
        members: List[int] = []
        cap = 0
        for i in range(start, min(start + group, len(capacities))):
            members.append(i)
            cap += capacities[i]
            if cap >= need:
                spans.append((members, cap))
                members, cap = [], 0
    return spans


def _conv_footprint(
    net: Network,
    node: NodeConfig,
    min_cols: int,
    dead: FrozenSet[int],
) -> Tuple[int, int, int, int, List[int], int]:
    """Place network copies over the ConvLayer columns not in ``dead``.

    STEP3a fixes the footprint from the minimum column constraint
    ("Based on the minimum column constraint we determine the number of
    chips/chip clusters required to spatially map the DNN"): copies
    fill spans of chips inside one wheel, or spans of whole clusters
    when one wheel cannot hold a copy.  Returns ``(chips_per_copy,
    clusters_per_copy, copies, column_budget, assign_ids, remapped)``
    where ``assign_ids`` are the surviving global column ids of the
    first placement (the copy every unit's concrete assignment is
    expressed in) and ``remapped`` counts the dead columns routed
    around inside the chips the placements actually use.
    """
    wheel = node.cluster.conv_chip_count
    cols = node.cluster.conv_chip.cols
    healthy = [
        [c for c in range(chip * cols, (chip + 1) * cols) if c not in dead]
        for chip in range(node.conv_chip_count)
    ]
    caps = [len(h) for h in healthy]

    spans = _greedy_spans(caps, wheel, min_cols)
    if spans:
        clusters_per_copy = 1
        copies = len(spans)
        chips_per_copy = max(len(chips) for chips, _ in spans)
        budget = min(cap for _, cap in spans)
        used_chips = [i for chips, _ in spans for i in chips]
        first_chips = spans[0][0]
    else:
        cluster_caps = [
            sum(caps[c * wheel:(c + 1) * wheel])
            for c in range(node.cluster_count)
        ]
        cspans = _greedy_spans(cluster_caps, node.cluster_count, min_cols)
        if not cspans:
            raise UnmappableError(
                f"{net.name} needs {min_cols} ConvLayer columns in one "
                f"copy but only {sum(caps)} of {node.total_conv_columns} "
                f"columns survive {len(dead)} tile-dead fault(s): "
                f"capacity exhausted"
            )
        clusters_per_copy = max(len(cl) for cl, _ in cspans)
        chips_per_copy = clusters_per_copy * wheel
        copies = len(cspans)
        budget = min(cap for _, cap in cspans)
        used_chips = [
            chip
            for clusters, _ in cspans
            for cl in clusters
            for chip in range(cl * wheel, (cl + 1) * wheel)
        ]
        first_chips = [
            chip
            for cl in cspans[0][0]
            for chip in range(cl * wheel, (cl + 1) * wheel)
        ]

    remapped = sum(cols - caps[chip] for chip in used_chips)
    assign_ids = [c for chip in first_chips for c in healthy[chip]]
    tel = get_telemetry()
    if tel.enabled and remapped:
        tel.instant(
            "fault.remap", "faults", ("faults", "remap"), 0,
            network=net.name, dead_columns=remapped,
            copies=copies, chips_per_copy=chips_per_copy,
            column_budget=budget,
        )
        tel.count("faults", "remapped_columns", remapped)
    return (chips_per_copy, clusters_per_copy, copies, budget,
            assign_ids, remapped)


def _fc_budget(
    net: Network,
    node: NodeConfig,
    units: List[MappingUnit],
    dead: FrozenSet[int],
) -> Tuple[int, List[int]]:
    """The FcLayer column budget: the surviving columns of the worst hub
    (model parallelism shards the same allocation across every hub).
    Returns the budget and the worst hub's surviving global column ids.
    """
    chip = node.cluster.fc_chip
    cols = chip.cols
    hubs = [
        [c for c in range(hub * cols, (hub + 1) * cols) if c not in dead]
        for hub in range(node.cluster_count)
    ]
    worst = min(hubs, key=len)
    need = sum(_min_columns(u, node.dtype_bytes, chip) for u in units)
    if need > len(worst):
        raise UnmappableError(
            f"{net.name} needs {need} FcLayer columns per hub but only "
            f"{len(worst)} of {cols} survive on the worst hub after "
            f"{len(dead)} tile-dead fault(s): capacity exhausted"
        )
    return len(worst), worst


def _assign_columns(
    allocs: Dict[str, UnitAllocation],
    healthy_ids: Sequence[int],
    speed_of: Callable[[int], float],
    network: str,
) -> None:
    """Give every unit its concrete healthy columns, re-elect its home
    column, and fold tile-slow faults into a per-unit derate."""
    if not allocs or not healthy_ids:
        return
    tel = get_telemetry()
    pos = 0
    for index, alloc in enumerate(allocs.values()):
        span = tuple(healthy_ids[pos:pos + alloc.columns])
        pos += alloc.columns
        alloc.assigned_columns = span
        if not span:
            continue
        alloc.home_column = span[0]
        alloc.derate = min(speed_of(c) for c in span)
        if tel.enabled:
            tel.instant(
                "fault.assign", "faults", ("faults", "assign"), index,
                network=network, unit=alloc.unit,
                home_column=alloc.home_column,
                columns=len(span), derate=alloc.derate,
            )


# ---------------------------------------------------------------------------
# STEP2 + STEP3b: per-unit columns within the side's budget
# ---------------------------------------------------------------------------
def _allocate_side(
    node: NodeConfig,
    chip: ChipConfig,
    units: List[MappingUnit],
    column_budget: int,
) -> Dict[str, UnitAllocation]:
    """STEP2 + STEP3 for one chip side."""
    if not units:
        return {}
    dtype = node.dtype_bytes
    partial_batch = chip.comp_tile.lanes

    tel = get_telemetry()
    allocs: Dict[str, UnitAllocation] = {}
    for unit in units:
        state = _unit_state_bytes(unit, dtype, partial_batch)
        min_cols = max(1, math.ceil(state / chip.mem_capacity_per_column))
        if tel.enabled:
            tel.instant(
                "step3a.min_columns", "compiler",
                ("compiler", "STEP3a"), len(allocs),
                unit=unit.name, chip=chip.kind.value,
                state_bytes=state, min_columns=min_cols,
            )
        flops = sum(
            profile(n, step, dtype).flops
            for n in unit.members + unit.attached
            for step in Step
        )
        allocs[unit.name] = UnitAllocation(
            unit=unit.name,
            members=unit.layer_names,
            kind=unit.kind,
            chip_kind=chip.kind,
            columns=min_cols,
            min_columns=min_cols,
            weights_on_chip=False,
            attached=tuple(n.name for n in unit.attached),
            training_flops=flops,
            state_bytes=state,
        )

    # STEP3b: distribute the remaining columns, granting each to the
    # unit with the highest stage latency while the grant still helps.
    budget = column_budget - sum(a.columns for a in allocs.values())
    units_by_name = {u.name: u for u in units}

    def stage_cycles(unit_name: str, columns: int) -> float:
        return _unit_stage_cycles(
            node, chip, units_by_name[unit_name], columns
        )

    current = {
        name: stage_cycles(name, a.columns) for name, a in allocs.items()
    }
    grants = 0
    while budget > 0:
        ranked = sorted(current, key=lambda n: current[n], reverse=True)
        granted = False
        for name in ranked:
            # Lane/row quantisation makes the gain a step function of the
            # column count, so search ahead for the smallest grant that
            # actually helps instead of stalling on a plateau.
            base_cols = allocs[name].columns
            for extra in range(1, budget + 1):
                trial = stage_cycles(name, base_cols + extra)
                if trial < current[name] * (1 - MIN_COLUMN_GAIN):
                    allocs[name].columns = base_cols + extra
                    if tel.enabled:
                        tel.instant(
                            "step3b.grant", "compiler",
                            ("compiler", "STEP3b"), grants,
                            unit=name, extra_columns=extra,
                            columns=base_cols + extra,
                            stage_cycles_before=current[name],
                            stage_cycles_after=trial,
                        )
                        grants += 1
                    current[name] = trial
                    budget -= extra
                    granted = True
                    break
            if granted:
                break
        if not granted:
            break
    return allocs


def _place_weights(mapping: WorkloadMapping) -> None:
    """STEP6: decide on-chip vs external weight storage per unit."""
    node = mapping.node
    dtype = node.dtype_bytes
    net = mapping.network
    tel = get_telemetry()
    placed = 0

    for table, chip in (
        (mapping.conv_allocations, node.cluster.conv_chip),
        (mapping.fc_allocations, node.cluster.fc_chip),
    ):
        for alloc in table.values():
            weights = sum(net[m].weights for m in alloc.members) * dtype
            if chip.kind is ChipKind.FC and node.fc_model_parallel:
                # Model parallelism shards FC weights across the
                # clusters that share one network copy (Sec 3.3.2).
                shards = max(
                    1, node.cluster_count // mapping.clusters_per_copy
                )
                weights = math.ceil(weights / shards)
            capacity = alloc.columns * chip.mem_capacity_per_column
            spare = capacity - alloc.state_bytes
            # Weights and their gradients both live on-chip when chosen.
            alloc.weights_on_chip = 2 * weights <= spare
            if tel.enabled:
                tel.instant(
                    "step6.weight_placement", "compiler",
                    ("compiler", "STEP6"), placed,
                    unit=alloc.unit, chip=chip.kind.value,
                    weight_bytes=weights, spare_bytes=spare,
                    on_chip=alloc.weights_on_chip,
                )
                placed += 1
