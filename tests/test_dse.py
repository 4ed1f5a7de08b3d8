"""Tests for design-space exploration and the power estimator."""

import pytest

from repro.arch import single_precision_node
from repro.arch.dse import (
    DesignPoint,
    DseResult,
    default_grid,
    evaluate_point,
    pareto_front,
    sweep,
)
from repro.arch.power import estimate_node_power
from repro.dnn import zoo
from repro.errors import ConfigError
from repro.sim.engine import Engine
from repro.sim.machine import Machine


class TestPowerEstimator:
    def test_reproduces_published_envelope(self):
        """Composing per-tile powers with the uncore shares recovers the
        Fig 14 node power for the published design."""
        power = estimate_node_power(single_precision_node())
        assert power == pytest.approx(1400.0, rel=0.02)

    def test_scales_with_resources(self):
        base = single_precision_node()
        small = DesignPoint(4, 12, 4, 512).apply(base)
        big = DesignPoint(8, 20, 4, 512).apply(base)
        assert estimate_node_power(small) < estimate_node_power(base)
        assert estimate_node_power(big) > estimate_node_power(base)


class TestDesignPoints:
    def test_apply_resizes_chip(self):
        node = DesignPoint(4, 12, 8, 256).apply(single_precision_node())
        chip = node.cluster.conv_chip
        assert (chip.rows, chip.cols) == (4, 12)
        assert chip.comp_tile.lanes == 8
        assert chip.mem_tile.capacity_bytes == 256 * 1024

    def test_invalid_point_rejected(self):
        with pytest.raises(ConfigError):
            DesignPoint(0, 12, 4, 512).apply(single_precision_node())

    def test_default_grid_size(self):
        grid = default_grid()
        assert len(grid) == 3 * 3 * 3
        assert DesignPoint(6, 16, 4, 512) in grid  # the published point

    def test_label(self):
        assert DesignPoint(6, 16, 4, 512).label == "6x16 l4 m512K"


class TestSweep:
    @pytest.fixture(scope="class")
    def results(self):
        workloads = {"GoogLeNet": zoo.load("GoogLeNet")}
        points = default_grid(rows=(4, 6), cols=(12, 16), lanes=(4,),
                              mem_kb=(512,))
        return sweep(workloads, points)

    def test_every_point_evaluated(self, results):
        assert len(results) == 4
        for r in results:
            assert r.peak_tflops > 0
            assert r.estimated_power_w > 0
            assert r.geomean_throughput > 0
            assert 0 < r.mean_utilization <= 1

    def test_peak_flops_grow_with_grid(self, results):
        by_label = {r.point.label: r for r in results}
        assert (
            by_label["6x16 l4 m512K"].peak_tflops
            > by_label["4x12 l4 m512K"].peak_tflops
        )

    def test_pareto_front_is_nondominated(self, results):
        front = pareto_front(results)
        assert front
        for candidate in front:
            for other in results:
                dominates = (
                    other.geomean_throughput > candidate.geomean_throughput
                    and other.estimated_power_w < candidate.estimated_power_w
                )
                assert not dominates

    def test_pareto_sorted_by_power(self, results):
        front = pareto_front(results)
        powers = [r.estimated_power_w for r in front]
        assert powers == sorted(powers)

    def test_throughput_per_watt(self, results):
        for r in results:
            assert r.throughput_per_watt == pytest.approx(
                r.geomean_throughput / r.estimated_power_w
            )

    def test_workers_below_one_rejected(self):
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            sweep({"AlexNet": zoo.load("AlexNet")}, default_grid(), workers=0)

    def test_worker_pool_matches_serial(self):
        workloads = {"AlexNet": zoo.load("AlexNet")}
        points = default_grid(rows=(4, 6), cols=(12,), lanes=(4,))
        assert sweep(workloads, points, workers=2) == sweep(
            workloads, points
        )


class TestEngineTrace:
    def test_trace_records_execution_order(self):
        from repro.arch.presets import conv_chip
        from repro.isa import assemble

        machine = Machine(conv_chip(), 2, 1)
        machine.load_program(assemble(
            "LDRI rd=1, value=2\nADDRI rd=1, rs=1, value=3\nHALT",
            tile="t0",
        ))
        engine = Engine(machine, trace=True)
        engine.run()
        ops = [entry[2].split(" ")[0] for entry in engine.trace]
        assert ops == ["LDRI", "ADDRI", "HALT"]
        rounds = [entry[0] for entry in engine.trace]
        assert rounds == sorted(rounds)

    def test_trace_disabled_by_default(self):
        from repro.arch.presets import conv_chip
        from repro.isa import assemble

        machine = Machine(conv_chip(), 2, 1)
        machine.load_program(assemble("HALT", tile="t0"))
        engine = Engine(machine)
        engine.run()
        assert engine.trace == []

    def test_trace_limit(self):
        from repro.arch.presets import conv_chip
        from repro.isa import assemble

        machine = Machine(conv_chip(), 2, 1)
        source = "\n".join("LDRI rd=1, value=0" for _ in range(20)) + "\nHALT"
        machine.load_program(assemble(source, tile="t0"))
        engine = Engine(machine, trace=True, trace_limit=5)
        engine.run()
        assert len(engine.trace) == 5
