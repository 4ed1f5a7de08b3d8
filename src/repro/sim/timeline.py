"""Nested-pipeline schedule: the timeline behind Fig 10.

Schedules one copy's :class:`~repro.sim.perf.Pipeline` explicitly: its
stages, in traversal order with their per-image times, take successive
images under the classic pipeline recurrence — a stage starts when both
its predecessor stage (same image) and its own previous occupancy
(previous image) have finished.

The schedule shows what the figure illustrates: the fill latency, the
steady-state initiation interval and per-stage occupancy, plus an ASCII
rendering.  Its makespan is the pipeline's closed form,
``fill + (images - 1) * beat``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.dnn.analysis import Step
from repro.errors import SimulationError
from repro.sim.perf import Pipeline


@dataclass(frozen=True)
class PipelineStage:
    """One stage of the inter-layer pipeline."""

    name: str  # "conv2/fp"
    cycles: float


@dataclass(frozen=True)
class Timeline:
    """A scheduled run of ``images`` inputs through the pipeline."""

    stages: Tuple[PipelineStage, ...]
    start: Tuple[Tuple[float, ...], ...]  # [image][stage]
    finish: Tuple[Tuple[float, ...], ...]

    @property
    def images(self) -> int:
        return len(self.start)

    @property
    def makespan(self) -> float:
        return self.finish[-1][-1]

    @property
    def fill_latency(self) -> float:
        """Cycles until the first image completes (pipeline fill)."""
        return self.finish[0][-1]

    @property
    def initiation_interval(self) -> float:
        """Steady-state cycles between successive completions."""
        if self.images < 2:
            return self.makespan
        return self.finish[-1][-1] - self.finish[-2][-1]

    def occupancy(self, stage_index: int) -> float:
        """Busy fraction of one stage over the whole run."""
        busy = sum(
            self.finish[i][stage_index] - self.start[i][stage_index]
            for i in range(self.images)
        )
        return busy / self.makespan if self.makespan else 0.0

    def speedup_vs_serial(self) -> float:
        """Pipeline speedup over running each image to completion."""
        serial = self.images * sum(s.cycles for s in self.stages)
        return serial / self.makespan if self.makespan else 1.0

    def render(self, width: int = 64) -> str:
        """Coarse ASCII Gantt chart (one row per stage)."""
        scale = self.makespan / width if self.makespan else 1.0
        lines = [
            f"Nested pipeline: {self.images} images x "
            f"{len(self.stages)} stages, makespan "
            f"{self.makespan:,.0f} cycles, II "
            f"{self.initiation_interval:,.0f}"
        ]
        label_w = max(len(s.name) for s in self.stages)
        for j, stage in enumerate(self.stages):
            row = [" "] * width
            for i in range(self.images):
                a = int(self.start[i][j] / scale)
                b = max(a + 1, int(self.finish[i][j] / scale))
                glyph = str(i % 10)
                for x in range(a, min(b, width)):
                    row[x] = glyph
            lines.append(f"{stage.name:<{label_w}} |{''.join(row)}|")
        return "\n".join(lines)


def pipeline_stages(pipeline: Pipeline) -> List[PipelineStage]:
    """One copy's pipeline as named stages in traversal order: a unit's
    FP stage is ``unit/fp``; its BP and WG run concurrently on their
    own tiles and occupy the image together as ``unit/bp+wg``."""
    return [
        PipelineStage(
            f"{s.unit}/{'fp' if s.step is Step.FP else 'bp+wg'}", time
        )
        for s, time in zip(pipeline.stages, pipeline.times)
    ]


def schedule(
    stages: Sequence[PipelineStage], images: int
) -> Timeline:
    """Schedule ``images`` inputs through ``stages`` (pipeline
    recurrence: start[i][j] = max(finish[i][j-1], finish[i-1][j]))."""
    if images < 1:
        raise SimulationError("need at least one image to schedule")
    if not stages:
        raise SimulationError("need at least one pipeline stage")
    start = [[0.0] * len(stages) for _ in range(images)]
    finish = [[0.0] * len(stages) for _ in range(images)]
    for i in range(images):
        for j, stage in enumerate(stages):
            ready_dataflow = finish[i][j - 1] if j else 0.0
            ready_resource = finish[i - 1][j] if i else 0.0
            start[i][j] = max(ready_dataflow, ready_resource)
            finish[i][j] = start[i][j] + stage.cycles
    return Timeline(
        stages=tuple(stages),
        start=tuple(tuple(row) for row in start),
        finish=tuple(tuple(row) for row in finish),
    )


def nested_pipeline(pipeline: Pipeline, images: int = 8) -> Timeline:
    """Fig 10: schedule a stream of images through one copy's pipeline
    (a :class:`~repro.sim.perf.PerfResult`'s ``training_pipeline``, or
    :func:`~repro.sim.perf.evaluation_pipeline`)."""
    return schedule(pipeline_stages(pipeline), images)
