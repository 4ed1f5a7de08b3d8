"""Differential tests: the one STEP3a against the healthy path it replaced.

``map_network`` places copies over the surviving columns and bounds the
FcLayer side by the worst hub's surviving columns; a healthy node is
the zero-fault case.  The oracle below is the healthy footprint it
replaced, kept verbatim: copies laid out uniformly as ``wheel //
min_chips`` per cluster (or whole clusters per copy), and an FcLayer
budget of ``ceil(need / cols) x cols`` columns however many chips that
takes.  Generated conv/pool/FC chains, with and without concat modules,
on SP, HP and resized ConvLayer chips must map field for field as the
oracle does wherever the oracle's FC columns fit one hub, and be
refused otherwise.
"""

import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.dse import DesignPoint
from repro.arch.presets import half_precision_node, single_precision_node
from repro.compiler.mapping import (
    WorkloadMapping,
    _allocate_side,
    _place_weights,
    _split_layers,
    _unit_state_bytes,
    map_network,
)
from repro.dnn import zoo
from repro.dnn.builder import NetworkBuilder
from repro.errors import MappingError, UnmappableError
from repro.faults.model import FaultKind, FaultSpec, sample_faults

PRESETS = (single_precision_node(), half_precision_node())


# ---------------------------------------------------------------------------
# Oracle: the healthy STEP3a footprint and FC budget rule it replaced
# ---------------------------------------------------------------------------
def _oracle_min_columns(units, node, chip):
    return sum(
        max(1, math.ceil(
            _unit_state_bytes(u, node.dtype_bytes, chip.comp_tile.lanes)
            / chip.mem_capacity_per_column
        ))
        for u in units
    )


def oracle_fc_budget(node, units):
    """Whole FcLayer chips' worth of columns, however many it takes."""
    chip = node.cluster.fc_chip
    total = _oracle_min_columns(units, node, chip)
    return max(1, math.ceil(total / chip.cols)) * chip.cols


def oracle_map_network(net, node):
    conv_chip = node.cluster.conv_chip
    fc_chip = node.cluster.fc_chip
    conv_units, fc_units = _split_layers(net)
    fc_allocs = _allocate_side(
        node, fc_chip, fc_units, oracle_fc_budget(node, fc_units)
    )
    min_cols = _oracle_min_columns(conv_units, node, conv_chip)
    wheel = node.cluster.conv_chip_count
    min_chips = max(1, math.ceil(min_cols / conv_chip.cols))
    if min_chips > wheel * node.cluster_count:
        raise MappingError(
            f"{net.name} needs {min_chips} ConvLayer chips but the node "
            f"only has {node.conv_chip_count}"
        )
    chips_per_copy = min_chips
    if chips_per_copy <= wheel:
        clusters_per_copy = 1
        copies = node.cluster_count * (wheel // chips_per_copy)
    else:
        clusters_per_copy = math.ceil(chips_per_copy / wheel)
        copies = node.cluster_count // clusters_per_copy
        chips_per_copy = clusters_per_copy * wheel
    conv_allocs = _allocate_side(
        node, conv_chip, conv_units, chips_per_copy * conv_chip.cols
    )
    mapping = WorkloadMapping(
        network=net,
        node=node,
        conv_allocations=conv_allocs,
        fc_allocations=fc_allocs,
        conv_chips_per_copy=chips_per_copy,
        clusters_per_copy=clusters_per_copy,
        copies=copies,
    )
    _place_weights(mapping)
    return mapping


def outcome(map_fn, net, node):
    """Every mapping field plus ``describe()``, or the error raised."""
    try:
        mapping = map_fn(net, node)
    except MappingError as exc:
        return type(exc).__name__, str(exc)
    form = {f.name: getattr(mapping, f.name) for f in fields(mapping)}
    return "ok", form, mapping.describe()


# ---------------------------------------------------------------------------
# Generated networks and nodes
# ---------------------------------------------------------------------------
WIDTHS = st.integers(1, 256)
#: Mostly small FC layers, sometimes wide enough to overflow a hub.
FC_WIDTHS = st.one_of(st.integers(1, 4096), st.integers(500_000, 8_000_000))


@st.composite
def networks(draw):
    b = NetworkBuilder("Gen")
    size = draw(st.sampled_from([4, 8, 16, 32, 64]))
    last = b.input(draw(st.integers(1, 3)), size)
    convs = draw(st.integers(0, 5))
    for i in range(convs):
        if draw(st.booleans()):
            # An inception-style module: ``<module>_<branch>`` names
            # joined by a concat map as one unit.
            left = b.conv(draw(WIDTHS), kernel=1, name=f"mod{i}_a",
                          inputs=[last])
            right = b.conv(draw(WIDTHS), kernel=3, pad=1,
                           name=f"mod{i}_b", inputs=[last])
            last = b.concat([left, right], name=f"mod{i}_cat")
        else:
            last = b.conv(
                draw(WIDTHS), kernel=draw(st.sampled_from([1, 3, 5])),
                same_pad=True, name=f"conv{i}", inputs=[last],
            )
        if size >= 2 and draw(st.booleans()):
            last = b.pool(2, name=f"pool{i}", inputs=[last])
            size //= 2
    for j in range(draw(st.integers(0 if convs else 1, 3))):
        last = b.fc(draw(FC_WIDTHS), name=f"fc{j}", inputs=[last])
    return b.build()


@st.composite
def nodes(draw):
    base = draw(st.sampled_from(PRESETS))
    if draw(st.booleans()):
        return base
    return DesignPoint(
        rows=draw(st.integers(2, 8)),
        cols=draw(st.integers(4, 20)),
        lanes=draw(st.sampled_from([1, 2, 4, 8])),
        mem_kb=draw(st.sampled_from([64, 128, 256, 512, 1024])),
    ).apply(base)


class TestAgainstHealthyOracle:
    @settings(max_examples=300, deadline=None)
    @given(networks(), nodes())
    def test_healthy_mapping_matches(self, net, node):
        """Field for field where the FC units fit one hub; a refusal
        naming the columns needed and the hub's columns otherwise."""
        _, fc_units = _split_layers(net)
        fc_chip = node.cluster.fc_chip
        need = _oracle_min_columns(fc_units, node, fc_chip)
        if need > fc_chip.cols:
            # The oracle's budget spans more than one hub.
            assert oracle_fc_budget(node, fc_units) > fc_chip.cols
            with pytest.raises(
                UnmappableError,
                match=f"needs {need} FcLayer columns per hub but only "
                      f"{fc_chip.cols} of {fc_chip.cols}",
            ):
                map_network(net, node)
            return
        assert outcome(map_network, net, node) == outcome(
            oracle_map_network, net, node
        )


def _unassigned(allocs):
    return {
        name: replace(a, assigned_columns=(), home_column=-1, derate=1.0)
        for name, a in allocs.items()
    }


class TestZeroFaultMask:
    @pytest.mark.parametrize("node", PRESETS, ids=lambda n: n.name)
    @pytest.mark.parametrize("name", ["AlexNet", "TinyMLP"])
    def test_maps_like_a_healthy_node(self, name, node):
        """Only ``faults`` and the concrete columns, homes and derates
        differ."""
        net = zoo.load(name)
        mask = sample_faults(FaultSpec(rate=0.0), node)
        assert mask.fault_count == 0
        healthy = map_network(net, node)
        masked = map_network(net, node, faults=mask)
        assert masked.faults is mask and healthy.faults is None
        allocs = {**masked.conv_allocations, **masked.fc_allocations}
        assert all(a.assigned_columns for a in allocs.values())
        assert all(a.home_column >= 0 for a in allocs.values())
        assert _unassigned(masked.conv_allocations) == (
            healthy.conv_allocations
        )
        assert _unassigned(masked.fc_allocations) == healthy.fc_allocations
        for field in fields(WorkloadMapping):
            if field.name not in (
                "faults", "conv_allocations", "fc_allocations"
            ):
                assert getattr(masked, field.name) == getattr(
                    healthy, field.name
                ), field.name


class TestNoConvUnits:
    @pytest.mark.parametrize("node", PRESETS, ids=lambda n: n.name)
    @pytest.mark.parametrize("seed", range(4))
    def test_dead_conv_columns_displace_nothing(self, node, seed):
        """A net with no conv units occupies no ConvLayer columns: dead
        ones leave its footprint alone and are not counted as routed
        around."""
        net = zoo.load("TinyMLP")
        mask = sample_faults(
            FaultSpec(rate=0.1, seed=seed,
                      kinds=(FaultKind.TILE_DEAD, FaultKind.TILE_SLOW)),
            node,
        )
        assert mask.dead_conv_columns
        healthy = map_network(net, node)
        masked = map_network(net, node, faults=mask)
        assert masked.remapped_columns == len(mask.dead_fc_columns)
        assert (masked.conv_chips_per_copy, masked.clusters_per_copy,
                masked.copies) == (healthy.conv_chips_per_copy,
                                   healthy.clusters_per_copy, healthy.copies)
