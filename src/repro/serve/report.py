"""Serving results: per-tenant latency/QPS statistics and snapshots.

A :class:`ServeReport` is the deterministic product of one serving run:
per-network request latency distributions (reusing the streaming
:class:`~repro.telemetry.metrics.Histogram` — p50/p95/p99 by the same
interpolation rules every other percentile in the repo uses), sustained
QPS over the run horizon, the batch-size distribution the dynamic
batcher actually formed, and the full request-outcome taxonomy:
every offered root request resolves into exactly one of completed /
shed / timed-out / failed, so ``offered == completed + shed +
timed_out + failed`` holds per tenant by construction (the conservation
invariant the chaos CI smoke pins).

Failure-aware runs add the lifecycle view — degraded intervals, the
fault/repair event log, healthy-vs-degraded latency splits, a bucketed
timeline for the dashboard — and, when an
:class:`~repro.serve.failures.SLOPolicy` is set, per-tenant and
whole-node objective evaluation with error-budget burn.
``to_dict()`` emits only plain floats/ints with sorted keys, so two
runs at the same seed serialise byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.serve.batcher import BatchPolicy
from repro.serve.failures import (
    DegradedInterval,
    FailureConfig,
    FailureEvent,
    SLOPolicy,
)
from repro.serve.placement import NodePlacement
from repro.telemetry.metrics import Histogram

#: The latency percentiles every serving row reports (milliseconds).
LATENCY_PERCENTILES = (50.0, 95.0, 99.0)

#: Final request outcomes, in report order.
OUTCOME_FIELDS = ("completed", "shed", "timed_out", "failed")


@dataclass
class TenantServeStats:
    """One tenant's measured serving behaviour over a run."""

    network: str
    share: float
    offered: int  # root requests generated for this tenant
    admitted: int
    shed: int  # roots finalised as shed
    completed: int
    batches: int
    offered_qps: float
    sustained_qps: float
    latency_ms: Histogram  # per-request end-to-end latency
    batch_sizes: Histogram  # images per dispatched batch
    timed_out: int = 0  # roots whose end-to-end deadline passed
    failed: int = 0  # roots that hit a down (fault-degraded) tenant
    retries: int = 0  # retry copies scheduled
    hedges: int = 0  # hedge copies spawned
    shed_copies: int = 0  # admission refusals incl. retry/hedge copies
    down_s: float = 0.0  # time this tenant was down (unservable)
    healthy_ms: Histogram = field(default_factory=Histogram)
    degraded_ms: Histogram = field(default_factory=Histogram)

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def availability(self) -> float:
        """Fraction of offered roots that completed (every failure
        outcome burns the SLO error budget)."""
        return self.completed / self.offered if self.offered else 1.0

    @property
    def mean_batch(self) -> float:
        return self.batch_sizes.mean if self.batches else 0.0

    def latency_percentile_ms(self, q: float) -> float:
        return self.latency_ms.percentile(q)

    def outcomes(self) -> Dict[str, int]:
        return {
            "completed": self.completed,
            "shed": self.shed,
            "timed_out": self.timed_out,
            "failed": self.failed,
        }

    def to_row(self) -> Dict[str, object]:
        """The deterministic export payload for this tenant."""
        row: Dict[str, object] = {
            "network": self.network,
            "share": self.share,
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": self.shed,
            "completed": self.completed,
            "batches": self.batches,
            "offered_qps": self.offered_qps,
            "sustained_qps": self.sustained_qps,
            "shed_rate": self.shed_rate,
            "mean_batch": self.mean_batch,
            "max_batch": (
                self.batch_sizes.max if self.batches else 0.0
            ),
        }
        for q in LATENCY_PERCENTILES:
            row[f"p{q:g}_ms"] = self.latency_percentile_ms(q)
        row["mean_ms"] = self.latency_ms.mean
        row["max_ms"] = self.latency_ms.max if self.completed else 0.0
        row["timed_out"] = self.timed_out
        row["failed"] = self.failed
        row["retries"] = self.retries
        row["hedges"] = self.hedges
        row["shed_copies"] = self.shed_copies
        row["availability"] = self.availability
        row["down_s"] = self.down_s
        row["healthy_p99_ms"] = (
            self.healthy_ms.percentile(99) if self.healthy_ms.count
            else 0.0
        )
        row["degraded_p99_ms"] = (
            self.degraded_ms.percentile(99) if self.degraded_ms.count
            else 0.0
        )
        return row


@dataclass(frozen=True)
class SLOFinding:
    """One evaluated objective for one scope (a tenant or the node)."""

    scope: str  # network name, or "node"
    objective: str  # "p99_ms" | "availability"
    target: float
    actual: float
    ok: bool

    def describe(self) -> str:
        op = "<=" if self.objective == "p99_ms" else ">="
        verdict = "ok" if self.ok else "VIOLATED"
        return (
            f"{self.scope}: {self.objective} {self.actual:g} "
            f"(target {op} {self.target:g}) {verdict}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "scope": self.scope,
            "objective": self.objective,
            "target": self.target,
            "actual": self.actual,
            "ok": self.ok,
        }


@dataclass
class ServeReport:
    """Everything one serving run produced."""

    node: str
    policy: BatchPolicy
    arrivals: str
    seed: int
    offered_qps: float
    duration_s: float
    horizon_s: float  # offered window stretched to the last completion
    placement: NodePlacement
    tenants: Tuple[TenantServeStats, ...]
    timeout_s: Optional[float] = None
    retries: int = 0
    backoff_s: float = 0.0
    hedge_s: Optional[float] = None
    failures: Optional[FailureConfig] = None
    slo: Optional[SLOPolicy] = None
    fault_events: Tuple[FailureEvent, ...] = ()
    degraded_intervals: Tuple[DegradedInterval, ...] = ()
    timeline: Tuple[Dict[str, float], ...] = ()

    @property
    def offered(self) -> int:
        return sum(t.offered for t in self.tenants)

    @property
    def completed(self) -> int:
        return sum(t.completed for t in self.tenants)

    @property
    def shed(self) -> int:
        return sum(t.shed for t in self.tenants)

    @property
    def timed_out(self) -> int:
        return sum(t.timed_out for t in self.tenants)

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.tenants)

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def availability(self) -> float:
        return self.completed / self.offered if self.offered else 1.0

    @property
    def sustained_qps(self) -> float:
        return sum(t.sustained_qps for t in self.tenants)

    @property
    def degraded_s(self) -> float:
        return sum(i.duration_s for i in self.degraded_intervals)

    def node_latency_ms(self) -> Histogram:
        """Whole-node latency distribution (tenant histograms merged,
        in tenant order — merge is order-insensitive anyway)."""
        merged = Histogram()
        for t in self.tenants:
            merged.merge(t.latency_ms)
        return merged

    def tenant(self, network: str) -> TenantServeStats:
        for stats in self.tenants:
            if stats.network == network:
                return stats
        raise KeyError(network)

    def rows(self) -> List[Dict[str, object]]:
        return [t.to_row() for t in self.tenants]

    # -- SLO evaluation -------------------------------------------------
    def slo_findings(self) -> Tuple[SLOFinding, ...]:
        """Every objective evaluated per tenant and whole-node (empty
        when no policy is set)."""
        if self.slo is None or not self.slo.enforced:
            return ()
        findings: List[SLOFinding] = []
        scopes: List[Tuple[str, float, float]] = [
            (t.network, t.latency_percentile_ms(99), t.availability)
            for t in self.tenants
        ]
        node_hist = self.node_latency_ms()
        scopes.append((
            "node",
            node_hist.percentile(99) if node_hist.count else 0.0,
            self.availability,
        ))
        for scope, p99, availability in scopes:
            if self.slo.p99_ms is not None:
                findings.append(SLOFinding(
                    scope, "p99_ms", self.slo.p99_ms, p99,
                    p99 <= self.slo.p99_ms,
                ))
            if self.slo.availability is not None:
                findings.append(SLOFinding(
                    scope, "availability", self.slo.availability,
                    availability, availability >= self.slo.availability,
                ))
        return tuple(findings)

    def slo_violations(self) -> Tuple[SLOFinding, ...]:
        return tuple(f for f in self.slo_findings() if not f.ok)

    def error_budget_burn(self) -> float:
        """Whole-node error-budget burn against the availability
        target (0.0 when no availability objective is set)."""
        if self.slo is None:
            return 0.0
        return self.slo.error_budget_burn(self.availability)

    def to_dict(self) -> Dict[str, object]:
        """The deterministic snapshot (plain scalars, stable keys)."""
        snapshot: Dict[str, object] = {
            "config": {
                "node": self.node,
                "arrivals": self.arrivals,
                "seed": self.seed,
                "offered_qps": self.offered_qps,
                "duration_s": self.duration_s,
                "policy": self.policy.kind,
                "max_batch": self.policy.max_batch,
                "max_wait_ms": self.policy.max_wait_s * 1e3,
                "queue_depth": self.policy.queue_depth,
                "timeout_ms": (
                    self.timeout_s * 1e3
                    if self.timeout_s is not None else None
                ),
                "retries": self.retries,
                "backoff_ms": self.backoff_s * 1e3,
                "hedge_ms": (
                    self.hedge_s * 1e3
                    if self.hedge_s is not None else None
                ),
            },
            "placement": self.placement.to_dict(),
            "tenants": {t.network: t.to_row() for t in self.tenants},
            "totals": {
                "offered": self.offered,
                "completed": self.completed,
                "shed": self.shed,
                "timed_out": self.timed_out,
                "failed": self.failed,
                "shed_rate": self.shed_rate,
                "availability": self.availability,
                "sustained_qps": self.sustained_qps,
                "horizon_s": self.horizon_s,
            },
        }
        if self.failures is not None:
            snapshot["failures"] = {
                "config": self.failures.to_dict(),
                "events": [
                    {
                        "time_s": e.time_s,
                        "action": e.action,
                        "fault_id": e.fault.fault_id,
                        "kind": e.fault.kind.value,
                        "site": e.fault.site,
                        "magnitude": e.fault.magnitude,
                    }
                    for e in self.fault_events
                ],
                "degraded_intervals": [
                    i.to_dict() for i in self.degraded_intervals
                ],
                "degraded_s": self.degraded_s,
                "timeline": [dict(b) for b in self.timeline],
            }
        if self.slo is not None and self.slo.enforced:
            snapshot["slo"] = {
                "policy": self.slo.to_dict(),
                "findings": [
                    f.to_dict() for f in self.slo_findings()
                ],
                "violations": len(self.slo_violations()),
                "error_budget_burn": self.error_budget_burn(),
            }
        return snapshot

    def describe(self) -> str:
        text = (
            f"served {self.completed}/{self.offered} requests "
            f"({self.shed} shed"
        )
        if self.timed_out or self.failed:
            text += f", {self.timed_out} timed out, {self.failed} failed"
        text += (
            f") on {self.node} at "
            f"{self.offered_qps:,.0f} offered QPS over "
            f"{self.duration_s:g}s [{self.arrivals} arrivals, "
            f"{self.policy.describe()}]; sustained "
            f"{self.sustained_qps:,.0f} QPS"
        )
        if self.failures is not None:
            text += (
                f"; {len(self.fault_events) // 2} fault(s), degraded "
                f"{self.degraded_s:g}s of {self.horizon_s:g}s"
            )
        if self.slo is not None and self.slo.enforced:
            violations = self.slo_violations()
            text += (
                f"; SLO [{self.slo.describe()}]: "
                + (f"{len(violations)} violation(s)" if violations
                   else "met")
            )
        return text
