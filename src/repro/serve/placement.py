"""Multi-tenant placement: several zoo networks on one node's clusters.

The node is a ring of clusters (4 in the paper config).  To co-host
several inference tenants, each network keeps its own
:func:`~repro.compiler.pipeline.compile_network` mapping — which fixes
the minimum cluster granularity a copy needs (``clusters_per_copy``) —
and the placer partitions the node's clusters among the tenants:

* every tenant gets at least the clusters one copy of its mapping
  spans (a network that cannot fit alongside the others raises
  :class:`~repro.errors.ConfigError`);
* leftover clusters go to the tenant with the largest deficit against
  its FLOPs-proportional ideal share (deterministic largest-remainder,
  ties to the earlier tenant in the request order).

A tenant's service model is the analytical evaluation pipeline
(:func:`repro.sim.perf.evaluation_pipeline`) on its cluster share.  Its
sustained rate scales linearly in clusters, the same
data-parallel-copies assumption STEP3a makes.  A batch spreads over the
share's pipeline copies and each image traverses one copy, so a batch
of ``b`` takes one copy's fill plus ``ceil(b / copies) - 1`` beats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.node import NodeConfig
from repro.arch.system import SystemConfig
from repro.dnn.analysis import evaluation_flops
from repro.dnn.network import Network
from repro.errors import ConfigError
from repro.sim.perf import DEFAULT_MINIBATCH, PerfResult


@dataclass(frozen=True)
class Tenant:
    """One network's slice of the node and its service model."""

    network: str
    clusters: int
    share: float  # fraction of the node's clusters
    rate_qps: float  # sustained evaluation images/s on this share
    #: Pipeline copies on this share; fractional when one copy spans
    #: several clusters.
    copies: float
    fill_s: float  # one image through one empty copy
    beat_s: float  # steady-state interval between one copy's images
    weight: float  # demand weight used by the placer (eval GFLOPs)

    def batch_latency_s(self, batch: int) -> float:
        """End-to-end latency of one batch on this tenant's slice.  The
        batch spreads over the copies and each image traverses one, so
        the busiest copy takes its fill plus a beat per further image
        (the closed form of the pipeline recurrence)."""
        if batch < 1:
            raise ConfigError(f"batch must be >= 1, got {batch}")
        per_copy = math.ceil(batch / self.copies)
        return self.fill_s + (per_copy - 1) * self.beat_s

    def saturation_qps(self, max_batch: int) -> float:
        """The highest request rate this tenant sustains when batches
        always fill to ``max_batch``: one batch holds the slice until
        it departs."""
        return max_batch / self.batch_latency_s(max_batch)


@dataclass(frozen=True)
class NodePlacement:
    """The partition of one node's clusters among serving tenants."""

    node: str
    cluster_count: int  # total clusters across every node
    tenants: Tuple[Tenant, ...]
    nodes: int = 1  # > 1 when placing across a multi-node system

    def tenant(self, network: str) -> Tenant:
        for tenant in self.tenants:
            if tenant.network == network:
                return tenant
        raise KeyError(network)

    def saturation_qps(self, max_batch: int) -> float:
        """Aggregate saturation rate across every tenant."""
        return sum(t.saturation_qps(max_batch) for t in self.tenants)

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        """The JSON ``placement`` block of a serving report."""
        return {
            t.network: {
                "clusters": t.clusters, "share": t.share,
                "fill_ms": t.fill_s * 1e3, "beat_ms": t.beat_s * 1e3,
            }
            for t in self.tenants
        }

    def describe(self) -> str:
        parts = [
            f"{t.network}: {t.clusters} cluster(s) "
            f"({t.share:.0%}, {t.rate_qps:,.0f} img/s, "
            f"fill {t.fill_s * 1e6:,.1f} us, beat {t.beat_s * 1e6:,.1f} us)"
            for t in self.tenants
        ]
        scope = (
            f"({self.cluster_count} clusters)"
            if self.nodes == 1
            else f"({self.cluster_count} clusters on {self.nodes} nodes)"
        )
        return (
            f"placement on {self.node} {scope}: " + "; ".join(parts)
        )


def place_networks(
    networks: Sequence[Network],
    node: "NodeConfig | SystemConfig",
    minibatch: int = DEFAULT_MINIBATCH,
    results: Optional[Sequence[PerfResult]] = None,
    weights: Optional[Sequence[float]] = None,
) -> NodePlacement:
    """Partition ``node``'s clusters among ``networks``.

    ``node`` may be a single :class:`NodeConfig` or a multi-node
    :class:`SystemConfig` — a system simply contributes ``node_count``
    times the clusters to the same partitioning problem (the node is
    one more level above the cluster), and a 1-node system places
    identically to its bare node.

    Each network is compiled (through the content-keyed cache) to learn
    its minimum cluster span and full-node evaluation rate; ``results``
    short-circuits that for callers that already simulated.
    ``weights`` overrides the FLOPs-proportional demand weights (the
    largest-remainder ideal shares) — negative weights are rejected,
    an all-zero vector degrades to an equal split.  Raises
    :class:`ConfigError` when the tenants' minimum spans exceed the
    node, or a network name repeats.
    """
    if not networks:
        raise ConfigError("at least one network is required to serve")
    if isinstance(node, SystemConfig):
        system_name, node_count, node = node.name, node.node_count, node.node
    else:
        system_name, node_count = node.name, 1
    names = [net.name for net in networks]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate serving networks in {names}")
    if weights is not None:
        if len(weights) != len(networks):
            raise ConfigError(
                f"{len(networks)} network(s) but {len(weights)} "
                "placement weight(s)"
            )
        if any(w < 0 for w in weights):
            raise ConfigError(
                f"placement weights must be >= 0, got {list(weights)}"
            )

    if results is None:
        from repro.sweep.cache import cached_simulation

        results = [
            cached_simulation(net, node, minibatch) for net in networks
        ]

    total_clusters = node.cluster_count * node_count
    minimums = [
        min(r.mapping.clusters_per_copy, total_clusters) for r in results
    ]
    if sum(minimums) > total_clusters:
        raise ConfigError(
            f"cannot co-host {names} on {system_name}: copies span "
            f"{sum(minimums)} cluster(s) but the system has "
            f"{total_clusters}"
        )

    if weights is None:
        weights = [evaluation_flops(net) / 1e9 for net in networks]
    else:
        weights = [float(w) for w in weights]
    total_weight = sum(weights) or float(len(networks))
    ideal = [
        total_clusters * weight / total_weight for weight in weights
    ]
    assigned = list(minimums)
    # Largest-remainder: hand the leftover clusters one at a time to
    # the tenant furthest below its ideal share (ties to the earlier
    # tenant — strict comparison keeps this deterministic).
    for _ in range(total_clusters - sum(assigned)):
        best = 0
        for i in range(len(assigned)):
            if ideal[i] - assigned[i] > ideal[best] - assigned[best]:
                best = i
        assigned[best] += 1

    tenants: List[Tenant] = []
    for net, result, clusters, weight in zip(
        networks, results, assigned, weights
    ):
        # The linear-in-clusters service model: `results` rates and
        # copies are per full node, so scale by clusters over *one
        # node's* clusters (reduces to the plain share at node_count 1).
        scale = clusters / node.cluster_count
        tenants.append(
            Tenant(
                network=net.name,
                clusters=clusters,
                share=clusters / total_clusters,
                rate_qps=result.evaluation_images_per_s * scale,
                copies=result.mapping.copies * scale,
                fill_s=result.evaluation_fill / node.frequency_hz,
                beat_s=result.evaluation_beat / node.frequency_hz,
                weight=weight,
            )
        )
    return NodePlacement(
        node=system_name,
        cluster_count=total_clusters,
        tenants=tuple(tenants),
        nodes=node_count,
    )
