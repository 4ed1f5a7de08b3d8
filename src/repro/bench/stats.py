"""One-shot performance statistics: both simulators, one report.

:func:`collect_stats` runs the analytical model (always) and the
functional engine (when the network is inside engine scope) under a
single telemetry capture, then derives everything ``repro stats``
prints or persists:

* percentile summaries of the captured metric distributions
  (instruction-class cycle costs, DMA transfer sizes, per-stage
  latencies),
* the stall-cause attribution of every tile group, joined with the
  roofline verdict of the layers it serves,
* a deterministic :meth:`StatsReport.snapshot` keyed by the compiler
  fingerprint digest — the unit of baseline comparison
  (:mod:`repro.bench.baselines`) and the input to the HTML dashboard
  (:mod:`repro.bench.dashboard`).

The report keeps the capture itself (:attr:`StatsReport.telemetry`), so
``repro stats --trace/--csv`` export the very events and counters the
tables summarise.

Everything here is deterministic: the capture contains no wall-clock
observations (those live in ``wall.``-prefixed volatile groups, which
:meth:`~repro.telemetry.metrics.MetricsRegistry.to_dict` excludes), so
two runs of the same network/node/minibatch produce bit-identical
snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.arch.node import NodeConfig
from repro.compiler.fingerprint import compile_digest
from repro.dnn.network import Network
from repro.errors import ReproError
from repro.sim.perf import DEFAULT_MINIBATCH, PerfResult, simulate
from repro.sim.validation import ENGINE_WEIGHT_LIMIT
from repro.telemetry import (
    StallAttribution,
    Telemetry,
    TileGroupProfile,
    analytical_attribution,
    analytical_tile_profile,
    capture,
    engine_attribution,
    engine_tile_profile,
)
from repro.telemetry.metrics import MetricsRegistry


@dataclass
class StatsReport:
    """Everything one ``repro stats`` run measured."""

    network: str
    node: str
    minibatch: int
    #: Digest of the full compile contract — the baseline snapshot key.
    fingerprint: str
    result: PerfResult
    #: The capture both simulators ran under (events, counters, metrics).
    telemetry: Telemetry
    analytical_profile: List[TileGroupProfile] = field(default_factory=list)
    analytical_causes: List[StallAttribution] = field(default_factory=list)
    engine_profile: List[TileGroupProfile] = field(default_factory=list)
    engine_causes: List[StallAttribution] = field(default_factory=list)
    #: ``None`` when the engine ran; otherwise why it did not.
    engine_skipped: Optional[str] = None
    #: Set when the engine ran a rescaled proxy of the network.
    engine_note: Optional[str] = None
    #: Roofline scatter data: per-chip knee plus per-layer points
    #: (``{"layer", "chip", "bytes_per_flop", "attainable_fraction",
    #: "boundedness"}``), forward pass, FC weight traffic amortised by
    #: the mapping's FC batch.
    roofline_knees: Dict[str, float] = field(default_factory=dict)
    roofline_points: List[Dict] = field(default_factory=list)

    @property
    def metrics(self) -> MetricsRegistry:
        return self.telemetry.metrics

    @property
    def engine_ran(self) -> bool:
        return self.engine_skipped is None

    def attributions(self) -> List[StallAttribution]:
        """Both simulators' rows, analytical first."""
        return list(self.analytical_causes) + list(self.engine_causes)

    def snapshot(self) -> Dict:
        """Deterministic dict for baselines and JSON export.

        Metric histograms collapse to their summaries (count/mean/
        percentiles); attribution rows collapse to per-cause shares.
        Volatile (wall-clock) groups are excluded, so the snapshot is
        bit-identical across reruns and sweep worker counts.
        """
        causes = {}
        for row in self.attributions():
            causes[f"{row.simulator}:{row.group}"] = {
                "chip": row.chip,
                "boundedness": row.boundedness,
                "dominant": row.dominant.value,
                "cycles": {
                    cause.value: row.cycles.get(cause, 0.0)
                    for cause in sorted(
                        row.cycles, key=lambda c: c.value
                    )
                },
            }
        return {
            "schema": 1,
            "network": self.network,
            "node": self.node,
            "minibatch": self.minibatch,
            "fingerprint": self.fingerprint,
            "engine_ran": self.engine_ran,
            "metrics": self.metrics.to_dict(),
            "attribution": causes,
            "headline": {
                "bottleneck_cycles": self.result.training_pipeline.beat,
                "train_images_per_s": self.result.training_images_per_s,
                "eval_images_per_s": self.result.evaluation_images_per_s,
                "pe_utilization": self.result.pe_utilization,
            },
        }


def _engine_forward(net: Network):
    """Compile and run one engine forward pass: cached DAG codegen,
    fixed input seed, telemetry to the active handle."""
    import numpy as np

    from repro.sweep.cache import cached_dag_forward_codegen

    compiled = cached_dag_forward_codegen(net, seed=0)
    shape = net.input.output_shape
    rng = np.random.default_rng(0)
    image = rng.normal(
        0, 1, (shape.count, shape.height, shape.width)
    ).astype(np.float32)
    return compiled.run(image)


def collect_stats(
    net: Network,
    node: NodeConfig,
    minibatch: int = DEFAULT_MINIBATCH,
) -> StatsReport:
    """Run both simulators under one capture and assemble the report."""
    from repro.dnn.zoo.engine_proxies import engine_scale

    engine_skipped: Optional[str] = None
    engine_note: Optional[str] = None
    run_net, engine_note = engine_scale(net, ENGINE_WEIGHT_LIMIT)
    with capture() as tel:
        result = simulate(net, node, minibatch)
        if run_net is not None:
            try:
                _engine_forward(run_net)
            except ReproError as exc:
                engine_skipped = (
                    f"engine scope excludes {run_net.name}: {exc}"
                )
        else:
            engine_skipped = engine_note
            engine_note = None
    report = StatsReport(
        network=net.name,
        node=node.describe(),
        minibatch=minibatch,
        fingerprint=compile_digest(
            net, node, artifact="stats", minibatch=minibatch
        ),
        result=result,
        telemetry=tel,
        analytical_profile=analytical_tile_profile(result),
        analytical_causes=analytical_attribution(result),
        engine_skipped=engine_skipped,
        engine_note=engine_note,
    )
    if report.engine_ran:
        report.engine_profile = engine_tile_profile(tel)
        report.engine_causes = engine_attribution(tel)
    _attach_roofline(report, net, node)
    return report


def _attach_roofline(
    report: StatsReport, net: Network, node: NodeConfig
) -> None:
    """Place every weighted layer on its serving chip's roofline (conv
    layers on the conv chip at batch 1, FC layers on the FC chip with
    the mapping's weight-reuse batch)."""
    from repro.arch.roofline import chip_roofline, network_roofline

    mapping = report.result.mapping
    fc_members = {
        member
        for alloc in mapping.fc_allocations.values()
        for member in alloc.members
    }
    chips = (
        (node.cluster.conv_chip, 1),
        (node.cluster.fc_chip, max(1, mapping.fc_batch_size)),
    )
    for chip, batch in chips:
        roofline = chip_roofline(chip, node.frequency_hz)
        report.roofline_knees[roofline.name] = (
            roofline.balance_bytes_per_flop
        )
        for point in network_roofline(
            net, roofline, dtype_bytes=node.dtype_bytes,
            weight_reuse_batch=batch,
        ):
            if (point.layer in fc_members) != (
                chip is node.cluster.fc_chip
            ):
                continue
            report.roofline_points.append({
                "layer": point.layer,
                "chip": roofline.name,
                "bytes_per_flop": point.bytes_per_flop,
                "attainable_fraction": point.attainable_fraction,
                "boundedness": point.boundedness.value,
            })
