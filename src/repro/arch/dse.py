"""Design-space exploration around the ScaleDeep template.

The paper tunes one architectural template into two chips (Sec 3.2.5)
and picks the Fig 14 operating point; this module automates that style
of study: sweep the ConvLayer grid, the CompHeavy lane count and the
MemHeavy capacity, re-map and re-simulate a workload set at every
point, estimate power from the per-tile Fig 14 constants, and extract
the performance/power Pareto frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.arch.node import NodeConfig
from repro.arch.power import estimate_node_power
from repro.arch.presets import single_precision_node
from repro.dnn.network import Network
from repro.errors import ConfigError
from repro.sweep.cache import cached_simulation
from repro.sweep.runner import fan_out


@dataclass(frozen=True)
class DesignPoint:
    """One candidate configuration of the ConvLayer chip."""

    rows: int
    cols: int
    lanes: int
    mem_kb: int  # MemHeavy capacity per tile

    @property
    def label(self) -> str:
        return f"{self.rows}x{self.cols} l{self.lanes} m{self.mem_kb}K"

    def apply(self, base: NodeConfig) -> NodeConfig:
        """Materialise the point as a node configuration."""
        if min(self.rows, self.cols, self.lanes, self.mem_kb) < 1:
            raise ConfigError(f"invalid design point {self}")
        chip = base.cluster.conv_chip
        tile = replace(chip.comp_tile, lanes=self.lanes)
        mem = replace(
            chip.mem_tile, capacity_bytes=self.mem_kb * 1024
        )
        new_chip = replace(
            chip, rows=self.rows, cols=self.cols, comp_tile=tile,
            mem_tile=mem,
        )
        return replace(
            base,
            cluster=replace(base.cluster, conv_chip=new_chip),
            name=f"sd-{self.label}",
        )


@dataclass(frozen=True)
class DseResult:
    """Evaluation of one design point over a workload set."""

    point: DesignPoint
    peak_tflops: float
    estimated_power_w: float
    throughput: Dict[str, float]  # network -> training img/s
    mean_utilization: float

    @property
    def geomean_throughput(self) -> float:
        values = list(self.throughput.values())
        product = 1.0
        for v in values:
            product *= v
        return product ** (1.0 / len(values))

    @property
    def throughput_per_watt(self) -> float:
        return self.geomean_throughput / self.estimated_power_w


def evaluate_point(
    point: DesignPoint,
    workloads: Dict[str, Network],
    base: NodeConfig,
) -> DseResult:
    """Map + simulate every workload on one design point.

    Routed through the content-keyed compile cache: re-running a study
    over an overlapping grid in the same process skips STEP1-6 for every
    point already evaluated."""
    node = point.apply(base)
    results = {
        name: cached_simulation(net, node)
        for name, net in workloads.items()
    }
    return DseResult(
        point=point,
        peak_tflops=node.peak_flops / 1e12,
        estimated_power_w=estimate_node_power(node),
        throughput={
            name: r.training_images_per_s for name, r in results.items()
        },
        mean_utilization=sum(
            r.pe_utilization for r in results.values()
        ) / len(results),
    )


def sweep(
    workloads: Dict[str, Network],
    points: Iterable[DesignPoint],
    base: NodeConfig = None,
    workers: int = 1,
) -> List[DseResult]:
    """Evaluate a set of design points (the Sec 3.2.5 tuning study).

    The points fan out through :func:`~repro.sweep.runner.fan_out`:
    ``workers > 1`` spreads them across worker processes (results keep
    grid order and are bit-identical to a serial run), and ``workers <
    1`` is a :class:`ConfigError`."""
    base = base or single_precision_node()
    run = partial(evaluate_point, workloads=workloads, base=base)
    return fan_out(run, list(points), workers)


def default_grid(
    rows: Sequence[int] = (4, 6, 8),
    cols: Sequence[int] = (12, 16, 20),
    lanes: Sequence[int] = (2, 4, 8),
    mem_kb: Sequence[int] = (512,),
) -> List[DesignPoint]:
    """A modest grid around the published operating point."""
    return [
        DesignPoint(r, c, l, m)
        for r in rows for c in cols for l in lanes for m in mem_kb
    ]


def pareto_front(results: Sequence[DseResult]) -> List[DseResult]:
    """Non-dominated points on (geomean throughput, -power).

    A point survives unless another point is at least as fast AND at
    most as power-hungry (and strictly better on one axis).
    """
    front: List[DseResult] = []
    for candidate in results:
        dominated = False
        for other in results:
            if other is candidate:
                continue
            faster = other.geomean_throughput >= candidate.geomean_throughput
            cooler = other.estimated_power_w <= candidate.estimated_power_w
            strictly = (
                other.geomean_throughput > candidate.geomean_throughput
                or other.estimated_power_w < candidate.estimated_power_w
            )
            if faster and cooler and strictly:
                dominated = True
                break
        if not dominated:
            front.append(candidate)
    return sorted(front, key=lambda r: r.estimated_power_w)
