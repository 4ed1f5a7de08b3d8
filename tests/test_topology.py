"""Tests for the grid-wheel-ring interconnect graph (Figs 6/12)."""

import networkx as nx
import pytest

from repro.arch import single_precision_node
from repro.arch.topology import (
    bisection_bandwidth,
    build_fat_tree,
    build_topology,
    compare_with_fat_tree,
    conv_chip_name,
    hub_name,
    profile_topology,
)
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def node():
    return single_precision_node()


@pytest.fixture(scope="module")
def graph(node):
    return build_topology(node)


class TestStructure:
    def test_chip_inventory(self, graph, node):
        kinds = nx.get_node_attributes(graph, "kind")
        assert sum(1 for k in kinds.values() if k == "conv") == 16
        assert sum(1 for k in kinds.values() if k == "fc") == 4
        # No dedicated switch hardware anywhere: every link is
        # point-to-point between processing chips (Sec 3.2.1).
        assert all(k in ("conv", "fc") for k in kinds.values())

    def test_link_classes_and_counts(self, graph, node):
        kinds = [d["kind"] for _, _, d in graph.edges(data=True)]
        assert kinds.count("spoke") == 16  # 4 per wheel
        assert kinds.count("arc") == 16  # rim of each wheel
        assert kinds.count("ring") == 4  # hub ring

    def test_bandwidth_attributes(self, graph, node):
        for _, _, data in graph.edges(data=True):
            expected = {
                "spoke": node.cluster.spoke_bandwidth,
                "arc": node.cluster.arc_bandwidth,
                "ring": node.ring_bandwidth,
            }[data["kind"]]
            assert data["bandwidth"] == expected

    def test_wheel_adjacency(self, graph):
        """Adjacent ConvLayer chips of a wheel are one arc apart; their
        hub is one spoke away — the locality the mapping exploits."""
        a = conv_chip_name(0, 0)
        b = conv_chip_name(0, 1)
        assert nx.shortest_path_length(graph, a, b) == 1
        assert nx.shortest_path_length(graph, a, hub_name(0)) == 1

    def test_cross_cluster_path_goes_through_ring(self, graph):
        path = nx.shortest_path(
            graph, conv_chip_name(0, 0), conv_chip_name(2, 0)
        )
        hubs = [n for n in path if n.endswith("hub")]
        assert len(hubs) >= 2  # enters the ring at one hub, exits at another


class TestFatTreeComparison:
    def test_profiles(self, node):
        profiles = compare_with_fat_tree(node)
        ours = profiles["grid-wheel-ring"]
        tree = profiles["fat-tree"]
        assert ours.chips == tree.chips == 20
        # The fat tree needs dedicated switches; ScaleDeep does not.
        assert tree.switch_nodes > 0
        assert ours.switch_nodes == 0
        # Producer->consumer locality: one hop on the wheel rim, two+
        # through the tree (up to a switch and back down).
        assert ours.neighbour_hops == 1
        assert tree.neighbour_hops >= 2
        # FC work sits one spoke away on ScaleDeep.
        assert ours.fc_hops == 1.0

    def test_fat_tree_validation(self):
        with pytest.raises(ConfigError):
            build_fat_tree(0, 1e9)
        with pytest.raises(ConfigError):
            build_fat_tree(8, 1e9, arity=1)

    def test_fat_tree_shape(self):
        tree = build_fat_tree(16, 1e9, arity=4)
        leaves = [n for n, d in tree.nodes(data=True) if d["kind"] == "conv"]
        assert len(leaves) == 16
        assert nx.is_connected(tree)

    def test_bisection_bandwidth_positive(self, graph):
        assert bisection_bandwidth(graph) > 0


def _shrunk_node(node, clusters, conv_chips):
    """The node with its hierarchy shrunk to the degenerate edge sizes
    a scale-out sweep can construct."""
    from dataclasses import replace

    return replace(
        node,
        cluster_count=clusters,
        cluster=replace(node.cluster, conv_chip_count=conv_chips),
    )


class TestScaleOutEdges:
    """Degenerate hierarchy sizes: graphs must stay simple (no
    self-loops) and the fat-tree comparison must stay well-defined."""

    def test_single_cluster_has_no_ring(self, node):
        graph = build_topology(_shrunk_node(node, 1, 4))
        kinds = [d["kind"] for _, _, d in graph.edges(data=True)]
        assert kinds.count("ring") == 0
        assert nx.number_of_selfloops(graph) == 0
        assert nx.is_connected(graph)

    def test_single_chip_wheel_has_no_arcs(self, node):
        graph = build_topology(_shrunk_node(node, 4, 1))
        kinds = [d["kind"] for _, _, d in graph.edges(data=True)]
        assert kinds.count("arc") == 0
        assert kinds.count("spoke") == 4
        assert nx.number_of_selfloops(graph) == 0

    def test_minimal_node_is_one_spoke(self, node):
        graph = build_topology(_shrunk_node(node, 1, 1))
        assert graph.number_of_nodes() == 2
        assert graph.number_of_edges() == 1
        assert bisection_bandwidth(graph) > 0

    def test_fat_tree_comparison_at_minimal_counts(self, node):
        profiles = compare_with_fat_tree(_shrunk_node(node, 1, 1))
        ours = profiles["grid-wheel-ring"]
        tree = profiles["fat-tree"]
        assert ours.chips == tree.chips == 2
        assert ours.switch_nodes == 0


class TestSystemTopology:
    def test_one_node_system_is_the_node_graph_prefixed(self, node):
        from repro.arch.system import make_system
        from repro.arch.topology import build_system_topology

        base = build_topology(node)
        system = build_system_topology(make_system(node))
        assert system.number_of_nodes() == base.number_of_nodes()
        assert system.number_of_edges() == base.number_of_edges()
        kinds = [d["kind"] for _, _, d in system.edges(data=True)]
        assert "fabric" not in kinds
        assert all(v.startswith("node0/") for v in system.nodes)

    def test_fabric_ring_joins_the_nodes(self, node):
        from repro.arch.system import make_system
        from repro.arch.topology import build_system_topology

        system_cfg = make_system(node, 4)
        graph = build_system_topology(system_cfg)
        base = build_topology(node)
        assert graph.number_of_nodes() == 4 * base.number_of_nodes()
        fabric = [
            (u, v, d) for u, v, d in graph.edges(data=True)
            if d["kind"] == "fabric"
        ]
        assert len(fabric) == 4  # a ring over the 4 nodes
        assert all(
            d["bandwidth"] == system_cfg.fabric_bandwidth
            for _, _, d in fabric
        )
        assert nx.is_connected(graph)
        # Cross-node paths exist and transit the fabric endpoints.
        path = nx.shortest_path(
            graph, "node0/cluster0/conv0", "node2/cluster0/conv0"
        )
        assert any("/hub" in v for v in path)

    def test_two_node_fabric_is_simple(self, node):
        """The 2-node 'ring' must not emit parallel or self edges."""
        from repro.arch.system import make_system
        from repro.arch.topology import build_system_topology

        graph = build_system_topology(make_system(node, 2))
        assert nx.number_of_selfloops(graph) == 0
        fabric = [
            d for _, _, d in graph.edges(data=True)
            if d["kind"] == "fabric"
        ]
        assert len(fabric) == 1  # collapsed, not doubled


class TestLazyImport:
    def test_networkx_loads_only_for_a_graph(self):
        """The engine, serving and validate never build a topology
        graph, so importing them leaves networkx unloaded; building a
        topology loads it."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        script = (
            "import sys\n"
            "import repro.arch.presets, repro.serve.simulator\n"
            "import repro.sim.validation, repro.compiler.codegen_dag\n"
            "assert 'networkx' not in sys.modules\n"
            "from repro.arch.topology import build_topology\n"
            "build_topology(repro.arch.presets.single_precision_node())\n"
            "assert 'networkx' in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", script], check=True, env=env)
