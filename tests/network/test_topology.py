"""Tests for the hierarchical F2C topology."""

import itertools
import os
import subprocess
import sys

import pytest

from repro.city.barcelona import build_barcelona_city, build_barcelona_topology
from repro.common.errors import ConfigurationError, RoutingError
from repro.core.baseline import build_centralized_topology
from repro.network.topology import LayerName, NetworkTopology, layer_index


@pytest.fixture()
def tiny_topology() -> NetworkTopology:
    """cloud <- fog2 <- {fog1-a, fog1-b}; fog1-a <- edge device."""
    topology = NetworkTopology()
    topology.add_node("cloud", LayerName.CLOUD)
    topology.add_node("fog2", LayerName.FOG_2)
    topology.add_node("fog1-a", LayerName.FOG_1)
    topology.add_node("fog1-b", LayerName.FOG_1)
    topology.add_node("dev-1", LayerName.EDGE)
    topology.connect("fog2", "cloud", latency_s=0.05, bandwidth_bps=1e9)
    topology.connect("fog1-a", "fog2", latency_s=0.005, bandwidth_bps=1e8)
    topology.connect("fog1-b", "fog2", latency_s=0.005, bandwidth_bps=1e8)
    topology.connect("dev-1", "fog1-a", latency_s=0.002, bandwidth_bps=1e7)
    return topology


class TestConstruction:
    def test_duplicate_node_rejected(self, tiny_topology):
        with pytest.raises(ConfigurationError):
            tiny_topology.add_node("cloud", LayerName.CLOUD)

    def test_connect_unknown_node_rejected(self, tiny_topology):
        with pytest.raises(ConfigurationError):
            tiny_topology.connect("ghost", "cloud", latency_s=0.1, bandwidth_bps=1e6)

    def test_node_counts(self, tiny_topology):
        assert tiny_topology.node_count() == 5
        assert tiny_topology.node_count(LayerName.FOG_1) == 2

    def test_layer_of(self, tiny_topology):
        assert tiny_topology.layer_of("fog2") == LayerName.FOG_2
        with pytest.raises(RoutingError):
            tiny_topology.layer_of("ghost")

    def test_node_attribute(self, tiny_topology):
        tiny_topology.add_node("extra", LayerName.FOG_1, area_km2=1.5)
        assert tiny_topology.node_attribute("extra", "area_km2") == 1.5
        assert tiny_topology.node_attribute("extra", "missing", default=0) == 0


class TestHierarchyNavigation:
    def test_parent_and_children(self, tiny_topology):
        assert tiny_topology.parent_of("fog1-a") == "fog2"
        assert tiny_topology.parent_of("fog2") == "cloud"
        assert tiny_topology.parent_of("cloud") is None
        assert tiny_topology.children_of("fog2") == ["fog1-a", "fog1-b"]

    def test_siblings(self, tiny_topology):
        assert tiny_topology.siblings_of("fog1-a") == ["fog1-b"]
        assert tiny_topology.siblings_of("cloud") == []

    def test_ancestors(self, tiny_topology):
        assert tiny_topology.ancestors_of("dev-1") == ["fog1-a", "fog2", "cloud"]

    def test_path_and_latency(self, tiny_topology):
        path = tiny_topology.path("dev-1", "cloud")
        assert path == ["dev-1", "fog1-a", "fog2", "cloud"]
        assert tiny_topology.path_latency("dev-1", "cloud") == pytest.approx(0.002 + 0.005 + 0.05)

    def test_path_missing_raises(self, tiny_topology):
        tiny_topology.add_node("island", LayerName.FOG_1)
        with pytest.raises(RoutingError):
            tiny_topology.path("island", "cloud")

    def test_transfer_time_accumulates_hops(self, tiny_topology):
        # 1 MB over three hops; serialisation dominated by the slowest link.
        time = tiny_topology.transfer_time("dev-1", "cloud", 1_000_000)
        assert time > tiny_topology.path_latency("dev-1", "cloud")


class TestValidation:
    def test_valid_hierarchy_passes(self, tiny_topology):
        tiny_topology.validate_hierarchy()

    def test_orphan_fog_node_fails(self, tiny_topology):
        tiny_topology.add_node("orphan", LayerName.FOG_1)
        with pytest.raises(ConfigurationError):
            tiny_topology.validate_hierarchy()

    def test_layer_skipping_link_fails(self):
        topology = NetworkTopology()
        topology.add_node("cloud", LayerName.CLOUD)
        topology.add_node("fog1", LayerName.FOG_1)
        topology.add_node("fog2", LayerName.FOG_2)
        topology.connect("fog1", "fog2", latency_s=0.01, bandwidth_bps=1e6)
        topology.connect("fog2", "cloud", latency_s=0.01, bandwidth_bps=1e6)
        topology.connect("fog1", "cloud", latency_s=0.01, bandwidth_bps=1e6)  # skips a layer
        with pytest.raises(ConfigurationError):
            topology.validate_hierarchy()

    def test_summary(self, tiny_topology):
        summary = tiny_topology.summary()
        assert summary["fog_layer_1"] == 2
        assert summary["cloud"] == 1
        assert summary["links"] > 0


class TestLayerOrdering:
    def test_layer_index_order(self):
        assert layer_index(LayerName.EDGE) < layer_index(LayerName.FOG_1)
        assert layer_index(LayerName.FOG_1) < layer_index(LayerName.FOG_2)
        assert layer_index(LayerName.FOG_2) < layer_index(LayerName.CLOUD)


def _parents(topology):
    """Each node's parent: the far end of its one link to a higher layer.

    (The centralized baseline links the edge straight to the cloud.)
    """
    return {
        link.source: link.target
        for link in topology.links()
        if layer_index(topology.layer_of(link.target)) > layer_index(topology.layer_of(link.source))
    }


def _tree_path(parents, source, target):
    """The walk from *source* up to the lowest common ancestor and back down."""

    def chain(node):
        nodes = [node]
        while nodes[-1] in parents:
            nodes.append(parents[nodes[-1]])
        return nodes

    up_source, up_target = chain(source), chain(target)
    common = next(node for node in up_source if node in up_target)
    down = up_target[: up_target.index(common)]
    return up_source[: up_source.index(common) + 1] + down[::-1]


class TestPathReference:
    @pytest.fixture(scope="class")
    def barcelona(self):
        return build_barcelona_topology(build_barcelona_city())

    @pytest.mark.parametrize("which", ["barcelona", "centralized"])
    def test_every_pair_walks_through_the_lowest_common_ancestor(self, which, barcelona):
        topology = barcelona if which == "barcelona" else build_centralized_topology()
        parents = _parents(topology)
        nodes = [node for layer in LayerName for node in topology.nodes_in_layer(layer)]
        for source, target in itertools.product(nodes, repeat=2):
            assert topology.path(source, target) == _tree_path(parents, source, target)

    def test_barcelona_link_count(self, barcelona):
        # 10 districts and 73 sections, each linked to its parent both ways.
        assert barcelona.summary()["links"] == 166
        assert len(barcelona.links()) == 166

    def test_unknown_or_unconnected_node_raises(self, barcelona):
        with pytest.raises(RoutingError):
            barcelona.path("ghost", "cloud")
        with pytest.raises(RoutingError):
            barcelona.path("cloud", "ghost")
        barcelona_island = build_barcelona_topology(build_barcelona_city())
        barcelona_island.add_node("island", LayerName.FOG_1)
        with pytest.raises(RoutingError):
            barcelona_island.path("cloud", "island")
        with pytest.raises(RoutingError):
            barcelona_island.path("island", "cloud")

    def test_tie_goes_to_the_first_inserted_link(self):
        topology = NetworkTopology()
        for node_id, layer in [
            ("cloud", LayerName.CLOUD),
            ("fog2-b", LayerName.FOG_2),
            ("fog2-a", LayerName.FOG_2),
            ("fog1", LayerName.FOG_1),
        ]:
            topology.add_node(node_id, layer)
        topology.connect("fog2-b", "cloud", latency_s=0.01, bandwidth_bps=1e9)
        topology.connect("fog2-a", "cloud", latency_s=0.01, bandwidth_bps=1e9)
        topology.connect("fog1", "fog2-a", latency_s=0.01, bandwidth_bps=1e9)
        topology.connect("fog1", "fog2-b", latency_s=0.01, bandwidth_bps=1e9)
        assert topology.path("fog1", "cloud") == ["fog1", "fog2-a", "cloud"]
        assert topology.path("cloud", "fog1") == ["cloud", "fog2-b", "fog1"]


def test_package_imports_without_networkx():
    src_path = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    snippet = (
        f"import sys; sys.path.insert(0, {src_path!r}); "
        "import repro, repro.api, repro.cli; print('networkx' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", snippet], capture_output=True, text=True, check=True, timeout=120
    )
    assert result.stdout.strip() == "False"
