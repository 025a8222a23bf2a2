"""Hierarchical F2C network topology.

The topology is a tree: edge devices attach to fog layer-1 nodes, fog layer-1
nodes attach to fog layer-2 nodes, and fog layer-2 nodes attach to the cloud.
Nodes and links live in two insertion-ordered dicts: node id → attributes
(``layer`` among them), and node id → {neighbour id → outgoing
:class:`~repro.network.link.Link`}; :meth:`NetworkTopology.connect` adds a
link in each direction by default.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError, RoutingError
from repro.network.link import Link, LinkProfile


class LayerName(str, Enum):
    """The layers of the hierarchical F2C architecture (Fig. 4 of the paper)."""

    EDGE = "edge"
    FOG_1 = "fog_layer_1"
    FOG_2 = "fog_layer_2"
    CLOUD = "cloud"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Ordering of layers from the edge upwards; used to validate that links only
#: connect adjacent layers and to reason about "lowest layer" placement.
LAYER_ORDER: Tuple[LayerName, ...] = (
    LayerName.EDGE,
    LayerName.FOG_1,
    LayerName.FOG_2,
    LayerName.CLOUD,
)


def layer_index(layer: LayerName) -> int:
    """Position of *layer* in the edge→cloud ordering."""
    return LAYER_ORDER.index(layer)


class NetworkTopology:
    """A hierarchical fog-to-cloud topology with link and path utilities."""

    def __init__(self) -> None:
        self._nodes: Dict[str, Dict] = {}
        self._links: Dict[str, Dict[str, Link]] = {}
        # Bumped on every structural change; lets consumers (the network
        # simulator's route cache) memoize paths safely.
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic counter of structural changes (nodes/links added)."""
        return self._version

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, node_id: str, layer: LayerName, **attributes) -> None:
        """Register a node in the given layer."""
        if node_id in self._nodes:
            raise ConfigurationError(f"node already exists: {node_id}")
        self._nodes[node_id] = dict(attributes, layer=layer)
        self._links[node_id] = {}
        self._version += 1

    def connect(
        self,
        lower: str,
        upper: str,
        latency_s: float,
        bandwidth_bps: float,
        profile: Optional[LinkProfile] = None,
        bidirectional: bool = True,
    ) -> Link:
        """Connect *lower* to *upper* with a link (and the reverse by default)."""
        for node_id in (lower, upper):
            if node_id not in self._nodes:
                raise ConfigurationError(f"unknown node: {node_id}")
        up_link = Link(
            source=lower,
            target=upper,
            latency_s=latency_s,
            bandwidth_bps=bandwidth_bps,
            profile=profile,
        )
        self._links[lower][upper] = up_link
        if bidirectional:
            self._links[upper][lower] = up_link.reversed()
        self._version += 1
        return up_link

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def nodes_in_layer(self, layer: LayerName) -> List[str]:
        return [n for n, data in self._nodes.items() if data["layer"] == layer]

    def layer_of(self, node_id: str) -> LayerName:
        try:
            return self._nodes[node_id]["layer"]
        except KeyError as exc:
            raise RoutingError(f"unknown node: {node_id}") from exc

    def node_attribute(self, node_id: str, key: str, default=None):
        if node_id not in self._nodes:
            raise RoutingError(f"unknown node: {node_id}")
        return self._nodes[node_id].get(key, default)

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def node_count(self, layer: Optional[LayerName] = None) -> int:
        if layer is None:
            return len(self._nodes)
        return len(self.nodes_in_layer(layer))

    def link(self, source: str, target: str) -> Link:
        """The link from *source* to *target*; raises if absent."""
        try:
            return self._links[source][target]
        except KeyError as exc:
            raise RoutingError(f"no link {source} -> {target}") from exc

    def links(self) -> List[Link]:
        return [link for out in self._links.values() for link in out.values()]

    # ------------------------------------------------------------------ #
    # Hierarchy navigation
    # ------------------------------------------------------------------ #
    def parent_of(self, node_id: str) -> Optional[str]:
        """The node one layer up that *node_id* reports to, if any."""
        own_layer = layer_index(self.layer_of(node_id))
        for upper in self._links[node_id]:
            if layer_index(self.layer_of(upper)) == own_layer + 1:
                return upper
        return None

    def children_of(self, node_id: str) -> List[str]:
        """Nodes one layer down that report to *node_id*."""
        own_layer = layer_index(self.layer_of(node_id))
        children = []
        for lower in self._links[node_id]:
            if layer_index(self.layer_of(lower)) == own_layer - 1:
                children.append(lower)
        return sorted(children)

    def siblings_of(self, node_id: str) -> List[str]:
        """Other nodes sharing the same parent (neighbour fog nodes)."""
        parent = self.parent_of(node_id)
        if parent is None:
            return []
        return [c for c in self.children_of(parent) if c != node_id]

    def ancestors_of(self, node_id: str) -> List[str]:
        """The chain of parents from *node_id* up to the root (cloud)."""
        chain = []
        current = self.parent_of(node_id)
        while current is not None:
            chain.append(current)
            current = self.parent_of(current)
        return chain

    def path(self, source: str, target: str) -> List[str]:
        """Shortest path (node ids) between two nodes, following links.

        A breadth-first search: the path has the fewest hops, and on a tie
        it is the first one in link-insertion order.  The topologies built
        in this package are trees, where the path is unique.
        """
        if source not in self._nodes or target not in self._nodes:
            raise RoutingError(f"no path {source} -> {target}")
        previous: Dict[str, Optional[str]] = {source: None}
        frontier = [source]
        while frontier and target not in previous:
            reached = []
            for node_id in frontier:
                for neighbour in self._links[node_id]:
                    if neighbour not in previous:
                        previous[neighbour] = node_id
                        reached.append(neighbour)
            frontier = reached
        if target not in previous:
            raise RoutingError(f"no path {source} -> {target}")
        nodes = [target]
        while nodes[-1] != source:
            nodes.append(previous[nodes[-1]])
        return nodes[::-1]

    def path_links(self, source: str, target: str) -> List[Link]:
        nodes = self.path(source, target)
        return [self.link(a, b) for a, b in zip(nodes, nodes[1:])]

    def path_latency(self, source: str, target: str) -> float:
        """Sum of one-way propagation latencies along the path."""
        return sum(link.latency_s for link in self.path_links(source, target))

    def transfer_time(self, source: str, target: str, size_bytes: int, timestamp: float = 0.0) -> float:
        """Total time to push *size_bytes* hop-by-hop from source to target."""
        return sum(
            link.transfer_time(size_bytes, timestamp) for link in self.path_links(source, target)
        )

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate_hierarchy(self) -> None:
        """Check the topology forms a proper layered tree.

        Rules: every non-cloud node (except edge devices, which are optional)
        has exactly one parent in the next layer up; there is exactly one
        cloud node or more, each being a root; links only connect adjacent
        layers.
        """
        for node_id in self._nodes:
            layer = self.layer_of(node_id)
            if layer == LayerName.CLOUD:
                continue
            if layer == LayerName.EDGE and self.parent_of(node_id) is None:
                raise ConfigurationError(f"edge device {node_id} has no fog layer-1 parent")
            if layer in (LayerName.FOG_1, LayerName.FOG_2) and self.parent_of(node_id) is None:
                raise ConfigurationError(f"{layer.value} node {node_id} has no parent")
        for link in self.links():
            source, target = link.source, link.target
            gap = abs(layer_index(self.layer_of(source)) - layer_index(self.layer_of(target)))
            if gap > 1:
                raise ConfigurationError(
                    f"link {source} -> {target} skips a layer (links must connect "
                    "adjacent layers or siblings)"
                )

    def summary(self) -> Dict[str, int]:
        """Node counts per layer plus link count; handy for Fig. 6 style output."""
        result = {layer.value: self.node_count(layer) for layer in LAYER_ORDER}
        result["links"] = len(self.links())
        return result
