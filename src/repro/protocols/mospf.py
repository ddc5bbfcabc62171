"""MOSPF-style forward shortest-path trees (reference baseline).

The paper singles it out: "MOSPF - Multicast Open Shortest Path First
is the only Internet protocol that constructs SPTs" (Section 2.3) —
every router computes the source-rooted *forward* SPT from the
link-state database, so data reaches each receiver over the true
shortest path and each tree link carries one copy.

That makes MOSPF the ideal reference curve for HBH: the paper's claim
is that HBH achieves the same tree quality (forward SPT, minimal
copies) *without* requiring every router to run multicast — so at full
deployment the two curves should coincide, which
``tests/unit/pim/test_mospf.py`` and the cross-protocol property test
verify.  Like the PIM baselines (and NS's centralized multicast), the
tree is computed centrally rather than by simulating the LSA flooding.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set

from repro.errors import ProtocolError
from repro.metrics.distribution import DataDistribution
from repro.protocols.base import MulticastProtocol, register_protocol
from repro.routing.tables import UnicastRouting, shared_routing
from repro.topology.model import Topology

NodeId = Hashable


class ForwardSpt:
    """A source-rooted forward SPT over the joined receivers.

    The dual of :class:`~repro.protocols.pim.trees.ReverseSpt`: each
    receiver's branch is the source's *forward* shortest path to it,
    so branches are grafted from the source side.
    """

    def __init__(self, topology: Topology, root: NodeId,
                 routing: Optional[UnicastRouting] = None) -> None:
        topology.kind(root)
        self.topology = topology
        self.routing = routing or shared_routing(topology)
        self.root = root
        #: node -> parent (toward the root) on the forward SPT.
        self._parent: Dict[NodeId, NodeId] = {}
        self.receivers: Set[NodeId] = set()

    def graft(self, receiver: NodeId) -> None:
        """Install the forward path root -> receiver."""
        if receiver == self.root:
            raise ProtocolError("the root cannot graft onto its own tree")
        self.receivers.add(receiver)
        path = self.routing.path(self.root, receiver)
        for parent, child in zip(path, path[1:]):
            self._parent[child] = parent

    def prune(self, receiver: NodeId) -> None:
        """Remove the receiver and any branch serving nobody else."""
        self.receivers.discard(receiver)
        needed: Set[NodeId] = set()
        for live in self.receivers:
            for node in self.routing.path(self.root, live)[1:]:
                needed.add(node)
        for node in list(self._parent):
            if node not in needed:
                del self._parent[node]

    def tree_links(self) -> List:
        """Directed data-plane links (parent -> child), sorted."""
        return sorted(
            (parent, child) for child, parent in self._parent.items()
        )

    def children(self) -> Dict[NodeId, List[NodeId]]:
        """parent -> sorted children."""
        result: Dict[NodeId, List[NodeId]] = {}
        for child, parent in self._parent.items():
            result.setdefault(parent, []).append(child)
        for siblings in result.values():
            siblings.sort()
        return result

    def distribute(self, distribution: DataDistribution) -> None:
        """One packet root->leaves, one copy per tree link."""
        delays: Dict[NodeId, float] = {self.root: 0.0}
        children = self.children()
        frontier = [self.root]
        while frontier:
            node = frontier.pop()
            for child in children.get(node, ()):
                cost = self.topology.cost(node, child)
                distribution.record_hop(node, child, cost)
                delays[child] = delays[node] + cost
                frontier.append(child)
        for receiver in self.receivers:
            distribution.record_delivery(receiver, delays[receiver])


@register_protocol("mospf")
class MospfProtocol(MulticastProtocol):
    """MOSPF baseline: the forward SPT every router would compute."""

    def __init__(self, topology: Topology, source: NodeId,
                 routing: Optional[UnicastRouting] = None,
                 group: str = "G") -> None:
        super().__init__(topology, source, routing, group=group)
        self.tree = ForwardSpt(topology, source, routing=self.routing)

    def add_receiver(self, receiver: NodeId) -> None:
        self.tree.graft(receiver)
        self.receivers.add(receiver)

    def remove_receiver(self, receiver: NodeId) -> None:
        self.tree.prune(receiver)
        self.receivers.discard(receiver)

    def converge(self, max_rounds: int = 40) -> int:
        """Centralized computation: already in place."""
        return 0

    def distribute_data(self) -> DataDistribution:
        distribution = DataDistribution(expected=set(self.receivers))
        self.tree.distribute(distribution)
        return distribution

    def branching_nodes(self) -> List[NodeId]:
        return sorted(node for node, kids in self.tree.children().items()
                      if len(kids) > 1)

    def soft_state(self):
        """Link-state computed tree: no refresh-timed state at all."""
        return None
