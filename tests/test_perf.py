"""Tests for the analytical performance simulator (Figs 16/17/20/21)."""

import pytest

from repro.arch import half_precision_node, single_precision_node
from repro.dnn import zoo
from repro.errors import SimulationError
from repro.sim.perf import simulate, simulate_suite


@pytest.fixture(scope="module")
def sp():
    return single_precision_node()


@pytest.fixture(scope="module")
def hp():
    return half_precision_node()


@pytest.fixture(scope="module")
def results(sp):
    nets = {n: zoo.load(n) for n in ("AlexNet", "GoogLeNet", "VGG-A",
                                     "VGG-E", "OF-Fast")}
    return simulate_suite(nets, sp)


class TestThroughput:
    def test_thousands_of_images_per_second(self, results):
        """Fig 16: training throughput is in the thousands of images/s."""
        for r in results.values():
            assert r.training_images_per_s > 1_000
            assert r.training_images_per_s < 300_000

    def test_evaluation_roughly_3x_training(self, results):
        """Fig 16: evaluation exceeds training 'by a factor marginally
        over 3x' (BP/WG tiles join FP; no minibatch overheads)."""
        for name, r in results.items():
            ratio = r.evaluation_images_per_s / r.training_images_per_s
            assert 2.0 < ratio < 4.2, (name, ratio)

    def test_bigger_networks_are_slower(self, results):
        assert (
            results["AlexNet"].training_images_per_s
            > results["VGG-A"].training_images_per_s
            > results["VGG-E"].training_images_per_s
        )

    def test_larger_minibatch_amortizes_drain(self, sp):
        net = zoo.alexnet()
        small = simulate(net, sp, minibatch=32)
        large = simulate(net, sp, minibatch=1024)
        assert large.training_images_per_s > small.training_images_per_s

    def test_bad_minibatch(self, sp):
        with pytest.raises(SimulationError):
            simulate(zoo.alexnet(), sp, minibatch=0)


class TestHalfPrecision:
    def test_hp_speedup_band(self, sp, hp):
        """Fig 17: HP trains ~1.85x faster than SP (geomean over suite
        members; individual networks vary with re-mapping)."""
        product, n = 1.0, 0
        for name in ("AlexNet", "ZF", "VGG-A", "OF-Fast", "ResNet18"):
            net = zoo.load(name)
            s = simulate(net, sp).training_images_per_s
            h = simulate(net, hp).training_images_per_s
            product *= h / s
            n += 1
        geomean = product ** (1 / n)
        assert 1.4 < geomean < 2.6

    def test_hp_peak_utilisation_comparable(self, hp):
        r = simulate(zoo.alexnet(), hp)
        assert 0.05 < r.pe_utilization <= 1.0


class TestUtilization:
    def test_band_around_paper_mean(self, results):
        """Fig 16: average 2D-PE utilization ~0.35."""
        utils = [r.pe_utilization for r in results.values()]
        mean = sum(utils) / len(utils)
        assert 0.2 < mean < 0.55
        for u in utils:
            assert 0.05 < u <= 1.0


class TestLinks:
    def test_all_utilizations_bounded(self, results):
        for r in results.values():
            for name, value in r.link_utilization.as_dict().items():
                assert 0.0 <= value <= 1.0, (r.network, name, value)

    def test_comp_mem_busier_than_mem_mem(self, results):
        """Fig 21: Comp-Mem links are the best utilized on-chip links."""
        for r in results.values():
            assert (
                r.link_utilization.comp_mem >= r.link_utilization.mem_mem
            )

    def test_ring_stands_out_for_multi_cluster_nets(self, results):
        """Fig 21: ring utilization is small except for networks spread
        across chip clusters (VGG-D/E)."""
        vgg = results["VGG-E"]
        assert vgg.mapping.clusters_per_copy > 1
        single_cluster = [
            r for r in results.values() if r.mapping.clusters_per_copy == 1
        ]
        assert single_cluster  # sanity
        for r in single_cluster:
            assert r.link_utilization.ring < 0.5

    def test_arcs_idle_for_single_chip_nets(self, results):
        alex = results["AlexNet"]
        assert alex.mapping.conv_chips_per_copy == 1
        assert alex.link_utilization.arc < 0.1


class TestPowerEfficiency:
    def test_average_power_below_peak(self, results):
        """Fig 20: normalised average power is well below 1."""
        for r in results.values():
            assert r.average_power.total_w < 1400.0
            assert r.average_power.total_w > 200.0

    def test_efficiency_band(self, results):
        """Fig 20: ~331.7 GFLOPs/W on average."""
        effs = [r.gflops_per_watt for r in results.values()]
        mean = sum(effs) / len(effs)
        assert 200 < mean < 500

    def test_achieved_below_peak(self, results, sp):
        for r in results.values():
            assert r.achieved_tflops * 1e12 < sp.peak_flops


class TestReporting:
    def test_describe(self, results):
        text = results["AlexNet"].describe()
        assert "AlexNet" in text
        assert "img/s" in text

    def test_bottleneck_is_a_stage(self, results):
        r = results["VGG-A"]
        assert r.bottleneck in r.stages
        pipeline = r.training_pipeline
        assert pipeline.time(r.bottleneck) == pipeline.beat == max(
            pipeline.time(s) for s in r.stages
        )


class TestUtilizationReport:
    def test_fig19_cascade(self, sp):
        from repro.compiler import map_network
        from repro.sim.perf import utilization_report

        mapping = map_network(zoo.alexnet(), sp)
        report = utilization_report(mapping)
        assert {r.unit for r in report} == {
            "conv1", "conv2", "conv3", "conv4", "conv5"
        }
        for row in report:
            # Each multiplicative factor stays in (0, 1]; the column
            # peak-util ratio may exceed 1 (over-provisioned layers).
            assert 0 < row.feature_distribution <= 1
            assert 0 < row.array_residue <= 1
            assert 0 < row.achieved <= row.array_residue
            assert row.column_peak_util > 0
        # Allocated PEs sum to the ideal total by construction.
        total_pes = sum(r.pes for r in report)
        total_ideal = sum(r.ideal_pes for r in report)
        assert total_ideal == pytest.approx(total_pes, rel=1e-6)

    def test_empty_for_fc_only_network(self, sp):
        from repro.compiler import map_network
        from repro.sim.perf import utilization_report

        mapping = map_network(zoo.tiny_mlp(), sp)
        assert utilization_report(mapping) == []
