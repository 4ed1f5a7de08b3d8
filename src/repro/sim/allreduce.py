"""Minibatch gradient synchronization over the wheel and ring (Sec 3.3).

At every minibatch boundary ScaleDeep must (i) accumulate the weight
gradients produced by all copies of the network and (ii) distribute the
updated weights back.  The wheel arcs carry this traffic between the
ConvLayer chips of a cluster; the ring carries it between clusters
("the ring is used to accumulate weight gradients generated at each
chip cluster and distribute the updated weights").

This module models that synchronization explicitly:

* a ring all-reduce over ``n`` participants moves ``2 (n-1)/n`` of the
  gradient bytes across each link (reduce-scatter + all-gather);
* the wheel accumulates spoke-locally: each arc sees the full conv
  gradient once in each direction;
* FC gradients stay hub-local under model parallelism (each hub owns
  its weight shard — the Sec 3.3.2 argument), so the ring only carries
  conv gradients.

On a multi-node :class:`~repro.arch.system.SystemConfig` a third phase
composes on top, serialized after the intra-node wheel+ring at the
minibatch boundary: the data-parallel replicas all-reduce the full
(conv + FC) gradient across the inter-node fabric, either as a
multi-level ring (the same ``2 (n-1)/n`` bandwidth term one level up,
plus per-hop latency per step) or as a hierarchical
reduce-then-broadcast tree (``2 ceil(log2 n)`` rounds of the full
payload — latency-optimal, bandwidth-worse).

The report quantifies the overhead per image and how much of it can
overlap with compute — the calibration behind
``repro.sim.perf.WEIGHT_SYNC_OVERLAP``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.arch.system import GradientSync, SystemConfig
from repro.compiler.mapping import WorkloadMapping
from repro.errors import SimulationError


def ring_allreduce_cycles(
    payload_bytes: float,
    participants: int,
    link_bandwidth: float,
    frequency_hz: float,
    down_links: int = 0,
) -> float:
    """Cycles for a bandwidth-optimal ring all-reduce.

    Reduce-scatter plus all-gather: each of the ``n`` links carries
    ``2 * (n - 1) / n * payload`` bytes.  With one link down the ring
    degrades to a line — the reduce and broadcast both traverse the
    middle link with the full payload (``2 * payload`` bytes on the
    busiest link).  Two or more down links partition the ring, which is
    unrecoverable: gradients can no longer reach every participant.
    """
    if participants < 1:
        raise SimulationError("all-reduce needs at least one participant")
    if payload_bytes < 0 or link_bandwidth <= 0:
        raise SimulationError("payload must be >= 0 and bandwidth > 0")
    if participants == 1:
        return 0.0
    if down_links >= 2:
        raise SimulationError(
            f"ring partitioned: {down_links} of {participants} links "
            f"down, gradient all-reduce cannot reach every cluster"
        )
    if down_links == 1:
        bytes_per_link = 2.0 * payload_bytes
    else:
        bytes_per_link = (
            2.0 * (participants - 1) / participants * payload_bytes
        )
    bytes_per_cycle = link_bandwidth / frequency_hz
    return bytes_per_link / bytes_per_cycle


def wheel_accumulate_cycles(
    payload_bytes: float,
    conv_chips: int,
    arc_bandwidth: float,
    frequency_hz: float,
    down_arcs: int = 0,
) -> float:
    """Cycles to accumulate gradients across a wheel's ConvLayer chips
    and redistribute updated weights over the arcs.

    The chips form a line of ``conv_chips - 1`` arcs; accumulation
    daisy-chains toward the hub-adjacent chip and the updated weights
    flow back, so the busiest arc moves the payload once each way.
    Every down arc forces its traffic the long way round the rim,
    adding one full payload traversal to the busiest surviving arc.
    """
    if conv_chips < 1:
        raise SimulationError("a wheel needs at least one ConvLayer chip")
    if conv_chips == 1:
        return 0.0
    bytes_per_cycle = arc_bandwidth / frequency_hz
    reroute = 1 + max(0, down_arcs)
    return reroute * 2.0 * payload_bytes / bytes_per_cycle


def internode_allreduce_cycles(
    payload_bytes: float,
    nodes: int,
    fabric_bandwidth: float,
    frequency_hz: float,
    sync: GradientSync = GradientSync.RING,
    latency_s: float = 0.0,
) -> float:
    """Cycles for the inter-node gradient all-reduce over the fabric.

    **Ring** (multi-level): the node-internal scheme one level up —
    each fabric endpoint carries ``2 (n-1)/n * payload`` bytes over
    ``2 (n-1)`` steps, each step paying one fabric hop of latency.
    Bandwidth-optimal, latency linear in ``n``.

    **Tree** (hierarchical reduce-then-broadcast): ``ceil(log2 n)``
    pairwise reduce rounds followed by the mirror broadcast; every
    round moves the *full* payload over one link plus one hop.
    Latency logarithmic in ``n``, bandwidth worse for large payloads —
    the classic crossover the strategy axis lets sweeps explore.

    One node (or an empty payload) synchronizes for free.
    """
    if nodes < 1:
        raise SimulationError("all-reduce needs at least one node")
    if payload_bytes < 0 or fabric_bandwidth <= 0:
        raise SimulationError("payload must be >= 0 and bandwidth > 0")
    if latency_s < 0:
        raise SimulationError("fabric latency must be >= 0")
    if nodes == 1 or payload_bytes == 0:
        return 0.0
    bytes_per_cycle = fabric_bandwidth / frequency_hz
    latency_cycles = latency_s * frequency_hz
    if sync is GradientSync.RING:
        steps = 2 * (nodes - 1)
        bytes_per_link = 2.0 * (nodes - 1) / nodes * payload_bytes
        return bytes_per_link / bytes_per_cycle + steps * latency_cycles
    rounds = 2 * math.ceil(math.log2(nodes))
    return rounds * (payload_bytes / bytes_per_cycle + latency_cycles)


@dataclass(frozen=True)
class SyncReport:
    """Minibatch synchronization cost for one mapping."""

    network: str
    minibatch: int
    conv_gradient_bytes: int
    fc_gradient_bytes: int
    wheel_cycles: float
    ring_cycles: float
    compute_cycles_per_minibatch: float
    nodes: int = 1  # > 1 only for multi-node systems
    internode_cycles: float = 0.0

    @property
    def total_sync_cycles(self) -> float:
        """Wheel, ring and inter-node phases serialize at the minibatch
        boundary."""
        return self.wheel_cycles + self.ring_cycles + self.internode_cycles

    @property
    def cycles_per_image(self) -> float:
        return self.total_sync_cycles / self.minibatch

    @property
    def overhead_fraction(self) -> float:
        """Sync cycles as a fraction of the minibatch's compute time —
        the slowdown if none of the synchronization overlapped."""
        if self.compute_cycles_per_minibatch <= 0:
            return 0.0
        return self.total_sync_cycles / self.compute_cycles_per_minibatch

    def describe(self) -> str:
        phases = (
            f"{self.wheel_cycles:,.0f} wheel + "
            f"{self.ring_cycles:,.0f} ring"
        )
        if self.nodes > 1:
            phases += (
                f" + {self.internode_cycles:,.0f} inter-node "
                f"({self.nodes} nodes)"
            )
        return (
            f"{self.network} @ minibatch {self.minibatch}: "
            f"{self.total_sync_cycles:,.0f} sync cycles "
            f"({phases}), "
            f"{self.cycles_per_image:,.0f} cycles/image, "
            f"{100 * self.overhead_fraction:.1f}% of compute if "
            f"unoverlapped"
        )


def minibatch_sync(
    mapping: WorkloadMapping,
    minibatch: int = 256,
    system: Optional[SystemConfig] = None,
) -> SyncReport:
    """Model one minibatch boundary for a mapped network.

    Conv gradients all-reduce across the copies: first over each
    wheel's arcs, then over the ring between the clusters hosting
    copies.  FC gradients stay on their hubs (model parallelism) or
    all-reduce over the ring when sharding is disabled.

    With a multi-node ``system`` a third phase serializes after the
    intra-node sync: the data-parallel replicas all-reduce their full
    (conv + FC) gradient shard over the inter-node fabric.  A 1-node
    system reports exactly what the node-only path reports.
    """
    if minibatch < 1:
        raise SimulationError("minibatch must be >= 1")
    node = mapping.node
    net = mapping.network
    dtype = node.dtype_bytes

    conv_bytes = sum(
        net[m].weights
        for a in mapping.conv_allocations.values()
        for m in a.members
    ) * dtype
    fc_bytes = sum(
        net[m].weights
        for a in mapping.fc_allocations.values()
        for m in a.members
    ) * dtype

    faults = mapping.faults
    copies_per_wheel = max(
        1, node.cluster.conv_chip_count // max(1, mapping.conv_chips_per_copy)
    )
    chips_active = min(
        node.cluster.conv_chip_count,
        mapping.conv_chips_per_copy * copies_per_wheel,
    )
    wheel = wheel_accumulate_cycles(
        conv_bytes, chips_active, node.cluster.arc_bandwidth,
        node.frequency_hz,
        down_arcs=faults.worst_cluster_down_arcs if faults else 0,
    )

    clusters = max(1, node.cluster_count // mapping.clusters_per_copy)
    ring_payload = conv_bytes
    if not node.fc_model_parallel:
        # Replicated FC weights must synchronize too.
        ring_payload += fc_bytes
    ring = ring_allreduce_cycles(
        ring_payload, clusters, node.ring_bandwidth, node.frequency_hz,
        down_links=len(faults.down_ring) if faults and clusters > 1 else 0,
    )

    # Inter-node phase: every data-parallel replica owns 1/shards of
    # the model, and its fabric endpoint carries that full shard (conv
    # *and* FC — hub h of every replica holds the same FC shard, so
    # they must reduce too).
    nodes, internode = 1, 0.0
    if system is not None:
        nodes = system.node_count
        internode = internode_allreduce_cycles(
            (conv_bytes + fc_bytes) / system.model_shards,
            system.replicas,
            system.fabric_bandwidth,
            node.frequency_hz,
            sync=system.strategy.gradient_sync,
            latency_s=system.fabric_latency_s,
        )

    # Compute time for the minibatch, from the pipeline bottleneck.
    from repro.sim.perf import _stage_reports

    stages = _stage_reports(mapping, training=True, tile_multiplier=1)
    bottleneck = max(s.cycles for s in stages) if stages else 0.0
    compute = bottleneck * minibatch / max(1, mapping.copies)

    return SyncReport(
        network=net.name,
        minibatch=minibatch,
        conv_gradient_bytes=int(conv_bytes),
        fc_gradient_bytes=int(fc_bytes),
        wheel_cycles=wheel,
        ring_cycles=ring,
        compute_cycles_per_minibatch=compute,
        nodes=nodes,
        internode_cycles=internode,
    )
