"""Tests for workload mapping (compiler STEP1-6)."""

import pytest

from repro.arch import single_precision_node
from repro.arch.dse import default_grid
from repro.arch.presets import half_precision_node
from repro.compiler.mapping import (
    WorkloadMapping,
    default_group_key,
    map_network,
)
from repro.dnn import zoo
from repro.dnn.builder import NetworkBuilder
from repro.dnn.layers import LayerKind
from repro.errors import MappingError, UnmappableError


@pytest.fixture(scope="module")
def node():
    return single_precision_node()


@pytest.fixture(scope="module")
def alexnet_map(node):
    return map_network(zoo.alexnet(), node)


@pytest.fixture(scope="module")
def googlenet_map(node):
    return map_network(zoo.googlenet(), node)


class TestStep1Separation:
    def test_conv_and_fc_sides(self, alexnet_map):
        assert set(alexnet_map.conv_allocations) == {
            "conv1", "conv2", "conv3", "conv4", "conv5"
        }
        assert set(alexnet_map.fc_allocations) == {"fc6", "fc7", "fc8"}

    def test_samp_attached_to_preceding_conv(self, alexnet_map):
        """Fig 19 groups C1/S1: the pool layer lives with its producer."""
        assert "pool1" in alexnet_map.conv_allocations["conv1"].attached
        assert "pool2" in alexnet_map.conv_allocations["conv2"].attached
        assert "pool3" in alexnet_map.conv_allocations["conv5"].attached

    def test_input_attached_to_first_conv(self, alexnet_map):
        assert "input" in alexnet_map.conv_allocations["conv1"].attached

    def test_inception_modules_merge(self, googlenet_map):
        """GoogLeNet's branches map as one unit per module (the paper
        counts them as single CONV layers)."""
        assert "inc3a" in googlenet_map.conv_allocations
        members = googlenet_map.conv_allocations["inc3a"].members
        assert len(members) == 6  # 1x1, 3x3r, 3x3, 5x5r, 5x5, poolproj

    def test_resnet_blocks_stay_separate(self, node):
        mapping = map_network(zoo.resnet18(), node)
        assert "s1b0_conv1" in mapping.conv_allocations
        assert "s1b0_conv2" in mapping.conv_allocations


class TestStep3Columns:
    @pytest.mark.parametrize("name", list(zoo.BENCHMARKS))
    def test_columns_at_least_minimum(self, node, name):
        mapping = map_network(zoo.load(name), node)
        for alloc in mapping.conv_allocations.values():
            assert alloc.columns >= alloc.min_columns

    @pytest.mark.parametrize("name", list(zoo.BENCHMARKS))
    def test_columns_fit_budget(self, node, name):
        mapping = map_network(zoo.load(name), node)
        budget = mapping.conv_chips_per_copy * node.cluster.conv_chip.cols
        assert mapping.conv_columns_per_copy <= budget

    def test_alexnet_fills_one_chip(self, alexnet_map):
        """Paper Fig 16: AlexNet maps to 16 columns (one chip)."""
        assert alexnet_map.conv_chips_per_copy == 1
        assert alexnet_map.conv_columns_per_copy == 16
        assert alexnet_map.copies == 16

    def test_vgg_d_spans_clusters(self, node):
        """Paper: VGG-D/E are spatially mapped across chip clusters."""
        mapping = map_network(zoo.vgg_d(), node)
        assert mapping.clusters_per_copy > 1
        assert mapping.copies < node.cluster_count

    def test_copies_times_footprint_fits_node(self, node):
        for name in ("AlexNet", "VGG-A", "VGG-D"):
            m = map_network(zoo.load(name), node)
            assert (
                m.copies * m.conv_chips_per_copy <= m.node.conv_chip_count
            )

    def test_fc_columns_fit_chip(self, alexnet_map, node):
        assert alexnet_map.fc_columns <= node.cluster.fc_chip.cols


class TestFitsTheMachine:
    def test_fc_overflowing_a_hub_is_unmappable(self, node):
        """Model parallelism shards one FC allocation across every hub,
        so FC units needing more columns than a hub has cannot map."""
        b = NetworkBuilder("BigFC")
        b.input(3, 32)
        b.conv(8, kernel=3, pad=1)
        b.fc(4_000_000)
        b.fc(10)
        with pytest.raises(
            UnmappableError, match="needs 12 FcLayer columns per hub "
            "but only 8 of 8",
        ):
            map_network(b.build(), node)

    @pytest.mark.parametrize(
        "base", [single_precision_node(), half_precision_node()],
        ids=lambda n: n.name,
    )
    def test_every_zoo_mapping_fits(self, base):
        """Every zoo net on the preset and on each DSE grid point: the
        FC units fit one hub and a copy fits its ConvLayer chips."""
        nodes = [base] + [point.apply(base) for point in default_grid()]
        for node in nodes:
            for name in zoo.available():
                m = map_network(zoo.load(name), node)
                assert m.fc_columns <= node.cluster.fc_chip.cols
                assert m.conv_columns_per_copy <= (
                    m.conv_chips_per_copy * node.cluster.conv_chip.cols
                ), (name, node.name)


class TestStep6Weights:
    def test_small_conv_weights_on_chip(self, alexnet_map, node):
        """conv1's 35K weights easily fit its columns' scratchpads."""
        assert alexnet_map.conv_allocations["conv1"].weights_on_chip

    def test_fc_weights_off_chip(self, alexnet_map):
        """AlexNet fc6's 37.7M weights cannot live on the FcLayer hub."""
        assert not alexnet_map.fc_allocations["fc6"].weights_on_chip

    def test_weight_placement_respects_capacity(self, node):
        net = zoo.vgg_a()
        mapping = map_network(net, node)
        chip = node.cluster.conv_chip
        for alloc in mapping.conv_allocations.values():
            weights = sum(net[m].weights for m in alloc.members) * 4
            if alloc.weights_on_chip:
                capacity = alloc.columns * chip.mem_capacity_per_column
                assert 2 * weights <= capacity


class TestFcBatching:
    def test_full_wheel_batch(self, alexnet_map):
        """One copy per chip: 4 spokes x 4 clusters (model parallel)
        x temporal aggregation."""
        node = alexnet_map.node
        assert alexnet_map.fc_batch_size == (
            4 * 4 * node.fc_temporal_batch
        )

    def test_spread_copy_reduces_batch(self, node):
        mapping = map_network(zoo.vgg_d(), node)
        alex = map_network(zoo.alexnet(), node)
        assert mapping.fc_batch_size < alex.fc_batch_size


class TestApi:
    def test_allocation_for_member_and_attached(self, alexnet_map):
        assert alexnet_map.allocation_for("conv2").unit == "conv2"
        assert alexnet_map.allocation_for("pool1").unit == "conv1"
        assert alexnet_map.allocation_for("fc7").unit == "fc7"

    def test_allocation_for_unknown(self, alexnet_map):
        with pytest.raises(MappingError):
            alexnet_map.allocation_for("missing")

    def test_describe(self, alexnet_map):
        text = alexnet_map.describe()
        assert "AlexNet" in text
        assert "conv1" in text and "fc8" in text

    def test_group_key(self):
        assert default_group_key("inc4a_3x3") == "inc4a"
        assert default_group_key("conv3") == "conv3"

    def test_mlp_maps_to_fc_only(self, node):
        mapping = map_network(zoo.tiny_mlp(), node)
        assert not mapping.conv_allocations
        assert len(mapping.fc_allocations) == 2
