"""Unit tests for the performance simulator's internal aggregations."""

import pytest

from repro.arch import single_precision_node
from repro.compiler import map_network
from repro.dnn import zoo
from repro.sim.perf import (
    Pipeline,
    _array_flops_per_image,
    _chip_boundary_bytes,
    _fc_feature_bytes,
    _first_fc_input_bytes,
    _merge_costs,
    _span_crossings,
    _stage_reports,
    _throughput,
)


@pytest.fixture(scope="module")
def node():
    return single_precision_node()


@pytest.fixture(scope="module")
def alexnet_mapping(node):
    return map_network(zoo.alexnet(), node)


@pytest.fixture(scope="module")
def vggd_mapping(node):
    return map_network(zoo.vgg_d(), node)


class TestSpanCrossings:
    """Pins the boundary-crossing count, including the exact-landing
    case the old ``(position - 1) // span`` test missed."""

    def test_unit_ending_exactly_on_boundary_crosses(self):
        # Unit 1 ends at column 16; unit 2 reads across the edge.
        assert _span_crossings([8, 8, 8], 16) == [1]

    def test_internal_straddle_crosses(self):
        assert _span_crossings([8, 9, 7], 16) == [1]

    def test_trailing_unit_on_boundary_is_free(self):
        # No consumer beyond the last unit: nothing crosses.
        assert _span_crossings([16], 16) == []
        assert _span_crossings([8, 8], 16) == []

    def test_two_full_spans(self):
        assert _span_crossings([16, 16], 16) == [0]

    def test_sequence_within_one_span(self):
        assert _span_crossings([4, 4], 16) == []

    def test_wide_unit_straddling_twice_counts_once(self):
        assert _span_crossings([8, 33, 7], 16) == [1]

    def test_degenerate_span(self):
        assert _span_crossings([8, 8], 0) == []


class TestTrafficHelpers:
    def test_single_chip_has_no_boundary_traffic(self, alexnet_mapping):
        chip_cols = alexnet_mapping.node.cluster.conv_chip.cols
        assert alexnet_mapping.conv_columns_per_copy <= chip_cols
        assert _chip_boundary_bytes(alexnet_mapping, chip_cols) == 0.0

    def test_multi_chip_crosses_boundaries(self, vggd_mapping):
        chip_cols = vggd_mapping.node.cluster.conv_chip.cols
        assert vggd_mapping.conv_chips_per_copy > 1
        assert _chip_boundary_bytes(vggd_mapping, chip_cols) > 0.0

    def test_boundary_bytes_shrink_with_span(self, vggd_mapping):
        chip_cols = vggd_mapping.node.cluster.conv_chip.cols
        per_chip = _chip_boundary_bytes(vggd_mapping, chip_cols)
        per_cluster = _chip_boundary_bytes(vggd_mapping, chip_cols * 4)
        assert per_cluster <= per_chip

    def test_zero_span_is_free(self, alexnet_mapping):
        assert _chip_boundary_bytes(alexnet_mapping, 0) == 0.0

    def test_fc_input_bytes(self, alexnet_mapping):
        # AlexNet fc6 consumes 256*6*6 floats.
        assert _first_fc_input_bytes(alexnet_mapping) == 256 * 36 * 4

    def test_fc_feature_bytes_cover_all_fc_layers(self, alexnet_mapping):
        total = _fc_feature_bytes(alexnet_mapping)
        expected = (
            (9216 + 4096) + (4096 + 4096) + (4096 + 1000)
        ) * 4
        assert total == expected


class TestFlopsAccounting:
    def test_training_array_flops_about_3x_eval(self, alexnet_mapping):
        train = _array_flops_per_image(alexnet_mapping, training=True)
        evaln = _array_flops_per_image(alexnet_mapping, training=False)
        assert 2.5 < train / evaln < 3.5

    def test_array_flops_near_2x_connections(self, alexnet_mapping):
        evaln = _array_flops_per_image(alexnet_mapping, training=False)
        macs = alexnet_mapping.network.connection_count
        assert evaln == pytest.approx(2 * macs, rel=0.02)


class TestMergeAndThroughput:
    def test_merge_sums_member_costs(self, node):
        mapping = map_network(zoo.googlenet(), node)
        alloc = mapping.conv_allocations["inc3a"]
        reports = _stage_reports(mapping, training=False, tile_multiplier=1)
        inc = next(r for r in reports if r.unit == "inc3a")
        # The merged stage is at least as long as any single member's
        # share would be: six branch convolutions add up.
        assert inc.cost.compute_cycles > 0
        assert inc.cost.traffic.comp_mem_bytes > 0
        assert len(alloc.members) == 6

    @staticmethod
    def conv_pipeline(mapping):
        """The training pipeline of the ConvLayer stages alone."""
        conv = [
            s for s in _stage_reports(mapping, training=True,
                                      tile_multiplier=1)
            if s.unit in mapping.conv_allocations
        ]
        return conv, Pipeline(conv)

    def test_throughput_picks_slowest_stage(self, alexnet_mapping):
        conv, pipeline = self.conv_pipeline(alexnet_mapping)
        rate = _throughput(
            alexnet_mapping, pipeline, training=False, minibatch=256
        )
        slowest = max(conv, key=lambda s: s.cycles)
        assert pipeline.bottleneck.unit == slowest.unit
        expected = (
            alexnet_mapping.copies
            * alexnet_mapping.node.frequency_hz
            / slowest.cycles
        )
        assert rate == pytest.approx(expected)

    def test_training_drain_slows_small_minibatches(self, alexnet_mapping):
        _, pipeline = self.conv_pipeline(alexnet_mapping)
        fast = _throughput(
            alexnet_mapping, pipeline, training=True, minibatch=4096
        )
        slow = _throughput(
            alexnet_mapping, pipeline, training=True, minibatch=16
        )
        assert slow < fast
