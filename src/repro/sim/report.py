"""One-stop simulation report for a network on a node configuration.

Combines everything a downstream user asks about a workload into one
text artifact: the mapping (Fig 13), the pipeline stages and bottleneck
(Fig 16), link utilization (Fig 21), power/efficiency (Fig 20),
per-image energy, minibatch gradient-sync cost (Sec 3.3) and the
nested-pipeline steady state (Fig 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.arch.node import NodeConfig
from repro.compiler.mapping import WorkloadMapping
from repro.dnn.network import Network
from repro.sim.allreduce import SyncReport, minibatch_sync
from repro.sim.energy import EnergyReport, energy_report
from repro.sim.perf import DEFAULT_MINIBATCH, PerfResult, simulate
from repro.sim.timeline import Timeline, nested_pipeline


@dataclass(frozen=True)
class FullReport:
    """Every simulation artifact for one (network, node) pair."""

    network: str
    node: str
    mapping: WorkloadMapping
    performance: PerfResult
    energy: EnergyReport
    sync: SyncReport
    timeline: Timeline

    def render(self) -> str:
        perf = self.performance
        lines: List[str] = []
        lines.append("=" * 72)
        lines.append(f"ScaleDeep simulation report: {self.network} "
                     f"on {self.node}")
        lines.append("=" * 72)

        lines.append("\n-- Mapping (compiler STEP1-6) --")
        lines.append(self.mapping.describe())

        lines.append("\n-- Throughput --")
        lines.append(perf.describe())
        bottleneck = perf.bottleneck
        lines.append(
            f"bottleneck stage: {bottleneck.unit}/{bottleneck.step.value} "
            f"({bottleneck.cost.bound_by}, beat "
            f"{perf.training_pipeline.beat:,.0f} cycles)"
        )

        lines.append("\n-- Nested pipeline (Fig 10) --")
        lines.append(
            f"fill latency {self.timeline.fill_latency:,.0f} cycles, "
            f"initiation interval "
            f"{self.timeline.initiation_interval:,.0f} cycles, "
            f"pipeline speedup "
            f"{self.timeline.speedup_vs_serial():.1f}x over serial"
        )

        lines.append("\n-- Link utilization (Fig 21) --")
        for link, value in perf.link_utilization.as_dict().items():
            lines.append(f"  {link:<10} {value:.2f}")

        lines.append("\n-- Power & energy (Fig 20) --")
        power = perf.average_power
        lines.append(
            f"{power.describe(scope='per-node')}, "
            f"{perf.gflops_per_watt:.0f} GFLOPs/W"
        )
        lines.append(self.energy.describe())

        lines.append("\n-- Minibatch gradient sync (Sec 3.3) --")
        lines.append(self.sync.describe())
        return "\n".join(lines)


def full_report(
    net: Network,
    node: NodeConfig,
    minibatch: int = DEFAULT_MINIBATCH,
    pipeline_images: int = 8,
    mapping: Optional[WorkloadMapping] = None,
) -> FullReport:
    """Run every analysis for one workload and bundle the results."""
    if mapping is None:
        from repro.compiler.pipeline import compile_network

        mapping = compile_network(net, node).mapping
    performance = simulate(net, node, minibatch=minibatch, mapping=mapping)
    return FullReport(
        network=net.name,
        node=node.name,
        mapping=mapping,
        performance=performance,
        energy=energy_report(performance),
        sync=minibatch_sync(mapping, minibatch),
        timeline=nested_pipeline(
            performance.training_pipeline, images=pipeline_images
        ),
    )
