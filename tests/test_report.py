"""Tests for the one-stop simulation report."""

import pytest

from repro.arch import single_precision_node
from repro.dnn import zoo
from repro.sim.report import full_report


@pytest.fixture(scope="module")
def report():
    return full_report(zoo.alexnet(), single_precision_node())


class TestFullReport:
    def test_sections_present(self, report):
        text = report.render()
        for fragment in (
            "simulation report: AlexNet",
            "Mapping (compiler STEP1-6)",
            "bottleneck stage:",
            "initiation interval",
            "comp_mem",
            "GFLOPs/W",
            "mJ/",
            "sync cycles",
        ):
            assert fragment in text

    def test_components_consistent(self, report):
        assert report.performance.network == "AlexNet"
        assert report.energy.network == "AlexNet"
        assert report.sync.network == "AlexNet"
        # The timeline's interval is the performance bottleneck's time
        # (the training pipeline's slowest stage).
        pipeline = report.performance.training_pipeline
        assert report.timeline.initiation_interval == pytest.approx(
            pipeline.time(report.performance.bottleneck)
        )

    def test_report_reuses_given_mapping(self):
        from repro.compiler import map_network

        node = single_precision_node()
        net = zoo.alexnet()
        mapping = map_network(net, node)
        rep = full_report(net, node, mapping=mapping)
        assert rep.mapping is mapping
