"""Latency–throughput curves: serving runs swept over offered load.

The headline serving artefact, TPU-paper style: fix the placement and
batching policy, sweep the offered aggregate QPS over fractions of the
placement's analytical saturation rate, and record p50/p95/p99 latency,
sustained QPS and shed rate at every point.  Points fan out over worker
processes through the sweep runner's :func:`repro.sweep.runner.fan_out`
(order-preserving, serial fallback), and each point is seeded
identically, so the whole curve is byte-identical across reruns *and*
worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.node import NodeConfig
from repro.dnn import zoo
from repro.serve.placement import NodePlacement, place_networks
from repro.serve.report import LATENCY_PERCENTILES, ServeReport
from repro.serve.simulator import ServeConfig, simulate_serving
from repro.sweep.runner import fan_out

#: Offered load as fractions of the placement's saturation QPS: dense
#: near the knee (0.8-1.0), with one overload point past it.
CURVE_FRACTIONS = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1, 1.25)

#: Flat export row order (shared by the CSV writer and the dashboard).
#: The per-outcome columns (completed/shed/timed_out/failed) partition
#: each tenant's offered count at every load point.
CURVE_FIELDS = (
    "network", "fraction", "offered_qps", "offered_net_qps",
    "sustained_qps", "p50_ms", "p95_ms", "p99_ms", "mean_ms",
    "shed_rate", "mean_batch", "offered", "completed", "shed",
    "timed_out", "failed", "availability",
)


@dataclass(frozen=True)
class CurvePoint:
    """One swept load point: the fraction, the aggregate offered QPS it
    maps to, and the full serving report measured there."""

    fraction: float
    offered_qps: float
    report: ServeReport


@dataclass
class CurveReport:
    """The full latency–throughput curve for one placement."""

    node: str
    networks: Tuple[str, ...]
    capacity_qps: float  # analytical saturation at max_batch
    config: ServeConfig
    placement: NodePlacement
    points: Tuple[CurvePoint, ...]

    def rows(self) -> List[Dict[str, object]]:
        """Flat per-(network, load-point) rows in curve order."""
        rows: List[Dict[str, object]] = []
        for point in self.points:
            for stats in point.report.tenants:
                row: Dict[str, object] = {
                    "network": stats.network,
                    "fraction": point.fraction,
                    "offered_qps": point.offered_qps,
                    "offered_net_qps": stats.offered_qps,
                    "sustained_qps": stats.sustained_qps,
                    "mean_ms": stats.latency_ms.mean,
                    "shed_rate": stats.shed_rate,
                    "mean_batch": stats.mean_batch,
                    "offered": stats.offered,
                    "completed": stats.completed,
                    "shed": stats.shed,
                    "timed_out": stats.timed_out,
                    "failed": stats.failed,
                    "availability": stats.availability,
                }
                for q in LATENCY_PERCENTILES:
                    row[f"p{q:g}_ms"] = stats.latency_percentile_ms(q)
                rows.append(row)
        return rows

    def to_dict(self) -> Dict[str, object]:
        return {
            "node": self.node,
            "networks": list(self.networks),
            "capacity_qps": self.capacity_qps,
            "config": {
                "arrivals": self.config.arrivals,
                "seed": self.config.seed,
                "duration_s": self.config.duration_s,
                "policy": self.config.policy.kind,
                "max_batch": self.config.policy.max_batch,
                "max_wait_ms": self.config.policy.max_wait_s * 1e3,
                "queue_depth": self.config.policy.queue_depth,
                "timeout_ms": (
                    self.config.timeout_s * 1e3
                    if self.config.timeout_s is not None else None
                ),
                "retries": self.config.retries,
                "hedge_ms": (
                    self.config.hedge_s * 1e3
                    if self.config.hedge_s is not None else None
                ),
                "failures": (
                    self.config.failures.to_dict()
                    if self.config.failures is not None else None
                ),
            },
            "placement": self.placement.to_dict(),
            "points": [
                {
                    "fraction": p.fraction,
                    "offered_qps": p.offered_qps,
                    "report": p.report.to_dict(),
                }
                for p in self.points
            ],
            "rows": self.rows(),
        }

    def describe(self) -> str:
        worst = max(
            (
                stats.latency_percentile_ms(99)
                for point in self.points
                for stats in point.report.tenants
            ),
            default=0.0,
        )
        return (
            f"latency-throughput curve on {self.node}: "
            f"{len(self.points)} load points x "
            f"{len(self.networks)} network(s), saturation "
            f"{self.capacity_qps:,.0f} QPS, worst p99 {worst:,.2f}ms"
        )


def _curve_point(item) -> CurvePoint:
    """One swept point (module-level: must pickle for the pool).  The
    placement is recomputed in the worker from the same cached
    simulations, so every worker sees the identical service model."""
    fraction, offered_qps, names, node, config = item
    networks = [zoo.load(name) for name in names]
    report = simulate_serving(
        networks, node, config.with_qps(offered_qps)
    )
    return CurvePoint(
        fraction=fraction, offered_qps=offered_qps, report=report
    )


def run_curve(
    names: Sequence[str],
    node: NodeConfig,
    config: ServeConfig,
    fractions: Sequence[float] = CURVE_FRACTIONS,
    workers: int = 1,
) -> CurveReport:
    """Sweep offered load over ``fractions`` of the placement's
    saturation QPS.  ``config.qps`` is ignored — each point's offered
    rate comes from the capacity estimate — and unless ``config``
    carries explicit weights, the offered load splits across tenants in
    proportion to their saturation rates, so every tenant hits its own
    knee at fraction 1.0 (an equal split would drown the slowest tenant
    long before the fastest one warms up).  Every other knob (policy,
    seed, duration, arrivals) applies to every point."""
    names = [zoo.resolve(name) for name in names]
    networks = [zoo.load(name) for name in names]
    placement = place_networks(
        networks, node, minibatch=config.minibatch
    )
    capacity = placement.saturation_qps(config.policy.max_batch)
    if config.weights is None and capacity > 0:
        config = replace(
            config,
            weights=tuple(
                t.saturation_qps(config.policy.max_batch) / capacity
                for t in placement.tenants
            ),
        )
    items = [
        (fraction, capacity * fraction, tuple(names), node, config)
        for fraction in fractions
    ]
    points = fan_out(_curve_point, items, workers=workers)
    return CurveReport(
        node=node.name,
        networks=tuple(names),
        capacity_qps=capacity,
        config=config,
        placement=placement,
        points=tuple(points),
    )
