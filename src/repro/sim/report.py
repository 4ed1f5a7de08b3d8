"""One-stop simulation report for a network on a node configuration.

Combines everything a downstream user asks about a workload into one
text artifact, fed by one healthy simulation: the mapping (Fig 13), the
throughput, pipeline stages and bottleneck (Fig 16), the nested-pipeline
steady state (Fig 10), link utilization (Fig 21), power/efficiency
(Fig 20), per-image energy, minibatch gradient-sync cost (Sec 3.3) and
the speedup over the TitanX stacks (Fig 18).  Two optional blocks follow:
a multi-node system (its throughput, TCO and system energy) and a fault
what-if (a sampled fault mask, the remap around it, and the healthy
simulation against the degraded one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.arch.node import NodeConfig
from repro.arch.system import SystemConfig
from repro.baselines.gpu import GpuFramework, all_framework_rates
from repro.compiler.mapping import WorkloadMapping
from repro.dnn.network import Network
from repro.faults.model import FaultSpec, sample_faults
from repro.sim.allreduce import SyncReport, minibatch_sync
from repro.sim.energy import (
    EnergyReport,
    energy_report,
    system_energy_report,
)
from repro.sim.perf import (
    DEFAULT_MINIBATCH,
    PerfResult,
    SystemPerfResult,
    simulate,
    simulate_system,
)
from repro.sim.tco import tco_report
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
    gpu_rates: Dict[GpuFramework, float]
    #: The scale-out block's system and result (None: one node).
    system: Optional[SystemConfig] = None
    system_result: Optional[SystemPerfResult] = None
    #: The fault what-if's simulation, remapped around the sampled
    #: mask (None: healthy only).
    degraded: Optional[PerfResult] = None

    def render(self) -> str:
        # Deferred: repro.bench imports repro.sim.
        from repro.bench.reporting import Table

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
        pipeline = perf.training_pipeline
        lines.append(
            f"bottleneck stage: {bottleneck.unit}/{bottleneck.step.value} "
            f"({bottleneck.cost.bound_by}, beat "
            f"{pipeline.beat:,.0f} cycles)"
        )

        lines.append("\n-- Pipeline stages (Fig 16) --")
        table = Table(
            f"Pipeline stages of {self.network} (training)",
            ["unit", "step", "chip", "cols", "cycles", "per copy",
             "bound by", "achieved util"],
        )
        for stage in sorted(perf.stages, key=lambda s: -pipeline.time(s)):
            table.add(
                stage.unit, stage.step.value, stage.chip,
                stage.cost.columns, f"{stage.cycles:,.0f}",
                f"{pipeline.time(stage):,.0f}", stage.cost.bound_by,
                f"{stage.cost.utilization.achieved:.2f}",
            )
        lines.append(table.render())

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

        lines.append("\n-- TitanX comparison (Fig 18) --")
        cluster_rate = (
            perf.training_images_per_s / self.mapping.node.cluster_count
        )
        table = Table(
            f"ScaleDeep chip cluster vs TitanX on {self.network} "
            f"(training)",
            ["stack", "GPU img/s", "cluster img/s", "speedup"],
        )
        for fw, rate in self.gpu_rates.items():
            table.add(fw.value, f"{rate:,.0f}", f"{cluster_rate:,.0f}",
                      f"{cluster_rate / rate:.1f}x")
        lines.append(table.render())

        if self.system_result is not None:
            sysres = self.system_result
            lines.append("\n-- Scale-out --")
            lines.append(self.system.describe())
            lines.append(sysres.describe())
            lines.append(tco_report(sysres).describe())
            lines.append(system_energy_report(sysres).describe())

        if self.degraded is not None:
            base, hurt = perf, self.degraded
            mask = hurt.mapping.faults
            lines.append("\n-- Fault what-if --")
            lines.append(mask.describe())
            if hurt.mapping.degraded:
                lines.append(
                    f"remapped {hurt.mapping.remapped_columns} column(s) "
                    f"around faulty tiles"
                )
            hurt_energy = energy_report(hurt)
            table = Table(
                f"Baseline vs degraded ({mask.spec.describe()})",
                ["metric", "baseline", "degraded", "ratio"],
            )
            for label, b, d, fmt in (
                ("train img/s", base.training_images_per_s,
                 hurt.training_images_per_s, "{:,.0f}"),
                ("eval img/s", base.evaluation_images_per_s,
                 hurt.evaluation_images_per_s, "{:,.0f}"),
                ("PE utilization", base.pe_utilization,
                 hurt.pe_utilization, "{:.3f}"),
                ("achieved TFLOPs", base.achieved_tflops,
                 hurt.achieved_tflops, "{:.2f}"),
                ("total power W", base.average_power.total_w,
                 hurt.average_power.total_w, "{:,.1f}"),
                ("mJ/training image",
                 self.energy.joules_per_training_image * 1e3,
                 hurt_energy.joules_per_training_image * 1e3, "{:.1f}"),
                ("mJ/evaluation",
                 self.energy.joules_per_evaluation_image * 1e3,
                 hurt_energy.joules_per_evaluation_image * 1e3, "{:.2f}"),
            ):
                ratio = d / b if b else 0.0
                table.add(
                    label, fmt.format(b), fmt.format(d), f"{ratio:.3f}x"
                )
            lines.append(table.render())
        return "\n".join(lines)


def full_report(
    net: Network,
    node: NodeConfig,
    minibatch: int = DEFAULT_MINIBATCH,
    pipeline_images: int = 8,
    mapping: Optional[WorkloadMapping] = None,
    system: Optional[SystemConfig] = None,
    faults: Optional[FaultSpec] = None,
) -> FullReport:
    """Run every analysis for one workload and bundle the results.

    ``system`` adds the scale-out block (``node`` scaled across the
    system's nodes); ``faults`` adds the fault what-if, a second
    simulation on the mapping remapped around the sampled mask.
    """
    from repro.compiler.pipeline import compile_network

    if mapping is None:
        mapping = compile_network(net, node).mapping
    performance = simulate(net, node, minibatch=minibatch, mapping=mapping)
    degraded = None
    if faults is not None:
        degraded_mapping = compile_network(
            net, node, faults=sample_faults(faults, node)
        ).mapping
        degraded = simulate(
            net, node, minibatch=minibatch, mapping=degraded_mapping
        )
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
        gpu_rates=all_framework_rates(net),
        system=system,
        system_result=(
            None if system is None else simulate_system(
                net, system, minibatch=minibatch, node_result=performance
            )
        ),
        degraded=degraded,
    )
