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

    def test_system_and_fault_blocks_render_the_verb_objects(self):
        """``--nodes`` and ``--fault-rate`` render the same objects the
        single-purpose verbs printed: the system, its result, TCO and
        system energy; the sampled mask, the remap and the
        baseline-vs-degraded table, whose baseline is the one healthy
        simulation."""
        from repro.arch.system import make_system
        from repro.bench import Table
        from repro.faults import FaultSpec
        from repro.sim import (
            energy_report,
            simulate,
            simulate_system,
            system_energy_report,
            tco_report,
        )
        from repro.sweep import CompileCache, cached_simulation

        node = single_precision_node()
        net = zoo.alexnet()
        system = make_system(node, 4, "hybrid:2")
        spec = FaultSpec(rate=0.02, seed=7)
        rep = full_report(net, node, system=system, faults=spec)
        text = rep.render()

        healthy = simulate(net, node)
        sysres = simulate_system(net, system, node_result=healthy)
        assert rep.system_result == sysres
        for line in (
            system.describe(), sysres.describe(),
            tco_report(sysres).describe(),
            system_energy_report(sysres).describe(),
        ):
            assert line in text

        cache = CompileCache()
        baseline = cached_simulation(net, node, cache=cache)
        degraded = cached_simulation(net, node, cache=cache, faults=spec)
        assert rep.performance == baseline
        assert rep.degraded == degraded
        assert degraded.mapping.faults.describe() in text
        assert (
            f"remapped {degraded.mapping.remapped_columns} column(s) "
            f"around faulty tiles"
        ) in text
        table = Table(
            f"Baseline vs degraded ({spec.describe()})",
            ["metric", "baseline", "degraded", "ratio"],
        )
        base_e, hurt_e = energy_report(baseline), energy_report(degraded)
        for label, b, d, fmt in (
            ("train img/s", baseline.training_images_per_s,
             degraded.training_images_per_s, "{:,.0f}"),
            ("eval img/s", baseline.evaluation_images_per_s,
             degraded.evaluation_images_per_s, "{:,.0f}"),
            ("PE utilization", baseline.pe_utilization,
             degraded.pe_utilization, "{:.3f}"),
            ("achieved TFLOPs", baseline.achieved_tflops,
             degraded.achieved_tflops, "{:.2f}"),
            ("total power W", baseline.average_power.total_w,
             degraded.average_power.total_w, "{:,.1f}"),
            ("mJ/training image", base_e.joules_per_training_image * 1e3,
             hurt_e.joules_per_training_image * 1e3, "{:.1f}"),
            ("mJ/evaluation", base_e.joules_per_evaluation_image * 1e3,
             hurt_e.joules_per_evaluation_image * 1e3, "{:.2f}"),
        ):
            table.add(label, fmt.format(b), fmt.format(d),
                      f"{d / b:.3f}x")
        assert table.render() in text

    def test_optional_blocks_absent_by_default(self, report):
        assert report.system_result is None and report.degraded is None
        text = report.render()
        assert "-- Scale-out --" not in text
        assert "-- Fault what-if --" not in text
        assert "TitanX-cuDNN-R2" in text
        assert "Pipeline stages of AlexNet (training)" in text
