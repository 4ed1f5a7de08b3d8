"""Datacenter inference serving simulation for one ScaleDeep node.

The serving layer turns the repo's per-request cost models into
latency-bounded-throughput results, the way the TPU paper evaluates
datacenter inference: an open-loop seeded request generator
(:mod:`~repro.serve.request`) drives per-tenant dynamic batchers with
admission control (:mod:`~repro.serve.batcher`) over a multi-tenant
cluster placement (:mod:`~repro.serve.placement`); the discrete-event
loop (:mod:`~repro.serve.simulator`) charges each batch its analytical
pipeline latency and reports p50/p95/p99 request latency, sustained
QPS, batch-size distribution and shed rate per network
(:mod:`~repro.serve.report`); and :mod:`~repro.serve.curve` sweeps
offered load into the latency–throughput curve.  Failure-aware runs
(:mod:`~repro.serve.failures`) add a seeded MTBF/MTTR fault/repair
lifecycle, request deadlines/retries/hedging with a four-way outcome
taxonomy, and SLO policies with error-budget burn — ``repro serve
--mtbf/--mttr``.  Everything is seeded and float-deterministic: two
runs at the same seed serialise byte-identically at any worker count.
"""

from repro.serve.batcher import (
    POLICY_KINDS,
    BatchPolicy,
    DynamicBatcher,
)
from repro.serve.failures import (
    CHAOS_KINDS,
    DegradedInterval,
    FailureConfig,
    FailureEvent,
    FailureLifecycle,
    SiteFault,
    SLOPolicy,
    sample_failure_events,
)
from repro.serve.curve import (
    CURVE_FIELDS,
    CURVE_FRACTIONS,
    CurvePoint,
    CurveReport,
    run_curve,
)
from repro.serve.placement import (
    NodePlacement,
    Tenant,
    place_networks,
)
from repro.serve.report import (
    LATENCY_PERCENTILES,
    OUTCOME_FIELDS,
    ServeReport,
    SLOFinding,
    TenantServeStats,
)
from repro.serve.request import (
    ARRIVAL_KINDS,
    DEFAULT_MAX_REQUESTS,
    Request,
    generate_requests,
)
from repro.serve.simulator import ServeConfig, simulate_serving

__all__ = [
    "ARRIVAL_KINDS",
    "BatchPolicy",
    "CHAOS_KINDS",
    "CURVE_FIELDS",
    "CURVE_FRACTIONS",
    "CurvePoint",
    "CurveReport",
    "DEFAULT_MAX_REQUESTS",
    "DegradedInterval",
    "DynamicBatcher",
    "FailureConfig",
    "FailureEvent",
    "FailureLifecycle",
    "LATENCY_PERCENTILES",
    "NodePlacement",
    "OUTCOME_FIELDS",
    "POLICY_KINDS",
    "Request",
    "SLOFinding",
    "SLOPolicy",
    "ServeConfig",
    "ServeReport",
    "SiteFault",
    "Tenant",
    "TenantServeStats",
    "generate_requests",
    "place_networks",
    "run_curve",
    "sample_failure_events",
    "simulate_serving",
]
