"""The three-tiered grid-wheel-ring interconnect as an explicit graph.

Fig 6 and Fig 12 sketch the hierarchy; this module constructs it as a
networkx graph at chip granularity: ConvLayer chips connected by wheel
arcs, each wheel's chips connected to the FcLayer hub by spokes, hubs
connected in the node-level ring.  On top of it we compute the
structural properties the paper's topology argument rests on — path
lengths between communication partners, bisection bandwidth — and
compare against the conventional fat-tree DaDianNao uses (Sec 7: the
fat tree "does not leverage the data-flow in DNNs, and incurs
additional power and protocol overheads").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.arch.node import NodeConfig
from repro.errors import ConfigError

if TYPE_CHECKING:
    import networkx as nx

# networkx is imported inside the functions that build or query a
# graph: importing it costs a process about 0.1 s and 13 MB, and most
# processes (the engine, serving, validate) never build one.


def conv_chip_name(cluster: int, index: int) -> str:
    return f"cluster{cluster}/conv{index}"

def hub_name(cluster: int) -> str:
    return f"cluster{cluster}/hub"


def build_topology(node: NodeConfig) -> nx.Graph:
    """The wheel-and-ring graph of one node, chips as vertices.

    Edge attributes: ``kind`` ("arc" | "spoke" | "ring") and
    ``bandwidth`` (bytes/s, from the node configuration).
    """
    import networkx as nx

    graph = nx.Graph()
    cluster = node.cluster
    for c in range(node.cluster_count):
        hub = hub_name(c)
        graph.add_node(hub, kind="fc")
        chips = [
            conv_chip_name(c, i) for i in range(cluster.conv_chip_count)
        ]
        for chip in chips:
            graph.add_node(chip, kind="conv")
            graph.add_edge(
                chip, hub, kind="spoke",
                bandwidth=cluster.spoke_bandwidth,
            )
        # Wheel arcs connect adjacent ConvLayer chips around the rim
        # (a single-chip wheel has no rim — guard the self-loop).
        if len(chips) > 1:
            for i, chip in enumerate(chips):
                graph.add_edge(
                    chip, chips[(i + 1) % len(chips)], kind="arc",
                    bandwidth=cluster.arc_bandwidth,
                )
    # The ring connects the hubs (one cluster: nothing to ring).
    if node.cluster_count > 1:
        for c in range(node.cluster_count):
            graph.add_edge(
                hub_name(c), hub_name((c + 1) % node.cluster_count),
                kind="ring", bandwidth=node.ring_bandwidth,
            )
    return graph


def build_system_topology(system) -> nx.Graph:
    """The scale-out graph of a multi-node system.

    Each node contributes its full wheel-and-ring graph with vertices
    prefixed ``node<i>/``; the inter-node fabric rings the nodes'
    ``cluster0`` hubs (the fabric endpoint) with ``kind="fabric"``
    edges carrying the system's fabric bandwidth.  A 1-node system is
    exactly :func:`build_topology` with the prefix.
    """
    import networkx as nx

    graph = nx.Graph()
    for n in range(system.node_count):
        node_graph = build_topology(system.node)
        graph.update(
            nx.relabel_nodes(
                node_graph,
                {v: f"node{n}/{v}" for v in node_graph.nodes},
            )
        )
    if system.node_count > 1:
        for n in range(system.node_count):
            graph.add_edge(
                f"node{n}/{hub_name(0)}",
                f"node{(n + 1) % system.node_count}/{hub_name(0)}",
                kind="fabric", bandwidth=system.fabric_bandwidth,
            )
    return graph


def degraded_topology(node: NodeConfig, faults) -> nx.Graph:
    """The node graph with a fault mask's down links removed.

    ``faults`` is a :class:`repro.faults.model.FaultMask` (duck-typed:
    anything with ``down_arcs`` / ``down_ring`` works).  Raises
    :class:`ConfigError` if the surviving graph is disconnected — a
    partitioned machine cannot run a single training job.
    """
    import networkx as nx

    graph = build_topology(node)
    wheel = node.cluster.conv_chip_count
    for cluster, i in faults.down_arcs:
        a = conv_chip_name(cluster, i)
        b = conv_chip_name(cluster, (i + 1) % wheel)
        if graph.has_edge(a, b):
            graph.remove_edge(a, b)
    for i in faults.down_ring:
        a = hub_name(i)
        b = hub_name((i + 1) % node.cluster_count)
        if graph.has_edge(a, b):
            graph.remove_edge(a, b)
    if not nx.is_connected(graph):
        raise ConfigError(
            f"fault mask partitions the node: "
            f"{len(faults.down_arcs)} wheel arc(s) and "
            f"{len(faults.down_ring)} ring link(s) down"
        )
    return graph


def reroute_penalties(node: NodeConfig, faults) -> Dict[str, float]:
    """Average hop inflation caused by a fault mask's down links.

    Compares producer->consumer and CONV->hub hop counts on the
    degraded graph against the healthy one — the structural cost the
    perf/sync models approximate with their reroute multipliers.
    """
    healthy = profile_topology(build_topology(node), "healthy")
    hurt = profile_topology(degraded_topology(node, faults), "degraded")
    return {
        "neighbour_hops": hurt.neighbour_hops
        / max(1.0, healthy.neighbour_hops),
        "fc_hops": hurt.fc_hops / max(1.0, healthy.fc_hops),
        "diameter": hurt.diameter / max(1, healthy.diameter),
    }


def build_fat_tree(
    leaves: int, link_bandwidth: float, arity: int = 4
) -> nx.Graph:
    """A conventional fat tree over ``leaves`` accelerator chips — the
    DaDianNao-style alternative (Sec 7)."""
    import networkx as nx

    if leaves < 1 or arity < 2:
        raise ConfigError("fat tree needs leaves >= 1 and arity >= 2")
    graph = nx.Graph()
    level = [f"leaf{i}" for i in range(leaves)]
    for name in level:
        graph.add_node(name, kind="conv")
    depth = 0
    while len(level) > 1:
        depth += 1
        parents = []
        for start in range(0, len(level), arity):
            parent = f"sw{depth}.{start // arity}"
            graph.add_node(parent, kind="switch")
            parents.append(parent)
            for child in level[start:start + arity]:
                # Classic fat tree: capacity doubles toward the root.
                graph.add_edge(
                    child, parent, kind="tree",
                    bandwidth=link_bandwidth * (2 ** (depth - 1)),
                )
        level = parents
    return graph


@dataclass(frozen=True)
class TopologyProfile:
    """Structural properties of an interconnect."""

    name: str
    chips: int
    links: int
    switch_nodes: int  # dedicated routing hardware (0 for ScaleDeep)
    neighbour_hops: float  # producer->consumer (adjacent CONV chips)
    fc_hops: float  # CONV chip -> FC execution resource
    diameter: int


def _conv_nodes(graph: nx.Graph) -> List[str]:
    return [n for n, d in graph.nodes(data=True) if d["kind"] == "conv"]


def profile_topology(graph: nx.Graph, name: str) -> TopologyProfile:
    """Measure the properties the paper's argument uses."""
    import networkx as nx

    conv = _conv_nodes(graph)
    switches = [
        n for n, d in graph.nodes(data=True) if d["kind"] == "switch"
    ]
    fc = [n for n, d in graph.nodes(data=True) if d["kind"] == "fc"]

    # Producer->consumer: the shortest path between distinct CONV chips
    # (layer sequences split across chips talk to a neighbour).
    neighbour = min(
        nx.shortest_path_length(graph, conv[0], other)
        for other in conv[1:]
    ) if len(conv) > 1 else 0

    # CONV -> FC resource: hops to the nearest FC-capable node (hub), or
    # to another leaf for the homogeneous fat tree (FC runs on a peer).
    if fc:
        fc_hops = sum(
            min(nx.shortest_path_length(graph, c, h) for h in fc)
            for c in conv
        ) / len(conv)
    else:
        fc_hops = sum(
            min(
                nx.shortest_path_length(graph, c, other)
                for other in conv if other != c
            )
            for c in conv
        ) / len(conv)

    return TopologyProfile(
        name=name,
        chips=len(conv) + len(fc),
        links=graph.number_of_edges(),
        switch_nodes=len(switches),
        neighbour_hops=float(neighbour),
        fc_hops=float(fc_hops),
        diameter=nx.diameter(graph),
    )


def bisection_bandwidth(graph: nx.Graph) -> float:
    """Minimum total bandwidth crossing any balanced cut (approximated
    with the weighted minimum edge cut — exact for these small graphs'
    purposes)."""
    import networkx as nx

    cut_value, _ = nx.stoer_wagner(graph, weight="bandwidth")
    return float(cut_value)


def compare_with_fat_tree(node: NodeConfig) -> Dict[str, TopologyProfile]:
    """ScaleDeep's topology vs a fat tree over the same chip count."""
    ours = build_topology(node)
    chips = len(_conv_nodes(ours)) + sum(
        1 for _, d in ours.nodes(data=True) if d["kind"] == "fc"
    )
    tree = build_fat_tree(chips, node.cluster.arc_bandwidth)
    return {
        "grid-wheel-ring": profile_topology(ours, "grid-wheel-ring"),
        "fat-tree": profile_topology(tree, "fat-tree"),
    }
