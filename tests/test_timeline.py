"""Tests for the nested-pipeline schedule (Fig 10)."""

import pytest

from repro.arch import single_precision_node
from repro.dnn import zoo
from repro.errors import SimulationError
from repro.sim import simulate
from repro.sim.perf import evaluation_pipeline
from repro.sim.timeline import (
    PipelineStage,
    nested_pipeline,
    pipeline_stages,
    schedule,
)


@pytest.fixture(scope="module")
def alexnet():
    return simulate(zoo.alexnet(), single_precision_node())


class TestSchedule:
    def test_pipeline_recurrence(self):
        stages = [PipelineStage("a", 10), PipelineStage("b", 5)]
        tl = schedule(stages, images=3)
        # Image 0 flows straight through.
        assert tl.start[0] == (0.0, 10.0)
        # Image 1 waits for stage a to free up.
        assert tl.start[1][0] == 10.0
        # Stage b is never the constraint (shorter than a).
        assert tl.finish[2][1] == 35.0
        assert tl.initiation_interval == pytest.approx(10.0)

    def test_bottleneck_sets_steady_state(self):
        stages = [PipelineStage(f"s{i}", c) for i, c in
                  enumerate((3, 9, 4, 2))]
        tl = schedule(stages, images=16)
        assert tl.initiation_interval == pytest.approx(9.0)

    def test_makespan_decomposition(self):
        """makespan == fill latency + (N-1) * initiation interval once
        the bottleneck dominates."""
        stages = [PipelineStage("a", 2), PipelineStage("big", 10),
                  PipelineStage("c", 1)]
        tl = schedule(stages, images=12)
        assert tl.makespan == pytest.approx(
            tl.fill_latency + (tl.images - 1) * 10.0
        )

    def test_bottleneck_occupancy_near_one(self):
        stages = [PipelineStage("a", 1), PipelineStage("hot", 8),
                  PipelineStage("c", 2)]
        tl = schedule(stages, images=32)
        assert tl.occupancy(1) > 0.9
        assert tl.occupancy(0) < 0.2

    def test_pipeline_speedup(self):
        stages = [PipelineStage(f"s{i}", 5.0) for i in range(4)]
        tl = schedule(stages, images=32)
        # Balanced 4-stage pipeline approaches 4x over serial.
        assert 3.0 < tl.speedup_vs_serial() <= 4.0

    def test_validation(self):
        with pytest.raises(SimulationError):
            schedule([], images=4)
        with pytest.raises(SimulationError):
            schedule([PipelineStage("a", 1)], images=0)

    def test_render(self):
        stages = [PipelineStage("alpha", 4), PipelineStage("beta", 4)]
        text = schedule(stages, images=3).render(width=24)
        assert "alpha" in text and "beta" in text and "II" in text


class TestMappedPipeline:
    def test_training_depth_doubles(self, alexnet):
        fp_only = pipeline_stages(evaluation_pipeline(alexnet.mapping))
        full = pipeline_stages(alexnet.training_pipeline)
        assert len(full) == 2 * len(fp_only)

    def test_stage_order_forward_then_reverse(self, alexnet):
        names = [s.name for s in pipeline_stages(alexnet.training_pipeline)]
        assert names[0] == "conv1/fp"
        assert names[len(names) // 2 - 1] == "fc8/fp"
        assert names[len(names) // 2] == "fc8/bp+wg"
        assert names[-1] == "conv1/bp+wg"

    def test_steady_state_matches_bottleneck(self, alexnet):
        pipeline = alexnet.training_pipeline
        tl = nested_pipeline(pipeline, images=12)
        assert tl.initiation_interval == pytest.approx(
            pipeline.time(alexnet.bottleneck), rel=1e-12
        )

    def test_pipelining_beats_serial_execution(self, alexnet):
        tl = nested_pipeline(alexnet.training_pipeline, images=16)
        assert tl.speedup_vs_serial() > 3.0
