"""Nodes and protocol agents.

A :class:`Node` is a topology vertex brought to life: it has a unicast
address, links to its neighbors, and a unicast forwarding function.
Protocol behaviour is *attached* to nodes as :class:`Agent` objects
(the NS model): an HBH router agent, a REUNITE router agent, a source
or a receiver.

The receive pipeline at a node is:

1. every attached agent gets a chance to **intercept** the packet
   (consume or transform it) — this is how joins are examined hop by
   hop even though they are addressed to the source;
2. if the packet is addressed to this node it is **delivered** to the
   agents (and otherwise logged as an unclaimed sink);
3. otherwise it is **forwarded** on the plain unicast next hop — which
   is all a unicast-only router ever does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Optional

from repro.addressing import Address
from repro.errors import RoutingError, SimulationError
from repro.netsim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.netsim.link import Link
    from repro.netsim.network import Network

NodeId = Hashable


class Agent:
    """Base class for protocol behaviour attached to a node.

    Subclasses override :meth:`intercept` (examine packets in transit)
    and/or :meth:`deliver` (handle packets addressed to the node) and
    return True to consume the packet.  ``start()`` runs once the
    network is fully built (schedule periodic work there).
    """

    def __init__(self) -> None:
        self.node: Optional["Node"] = None

    # -- lifecycle -----------------------------------------------------
    def attached(self, node: "Node") -> None:
        """Called when the agent is attached; keeps a back-reference."""
        self.node = node

    def start(self) -> None:
        """Called by :meth:`Network.start` once everything is wired."""

    def crash(self) -> None:
        """Called by :meth:`Network.crash_router`: wipe volatile
        protocol state (tables), as a power-cycled router would.
        Periodic timers may keep running — a restarted router simply
        finds its tables empty."""

    # -- packet hooks ----------------------------------------------------
    def intercept(self, packet: Packet, arrived_from: Optional[NodeId]) -> bool:
        """Examine a packet arriving at the node (any destination).

        Return True to consume it (no further processing).
        """
        return False

    def deliver(self, packet: Packet) -> bool:
        """Handle a packet addressed to this node.

        Return True when handled.
        """
        return False


class Node:
    """A live network node (router or host)."""

    def __init__(self, network: "Network", node_id: NodeId, address: Address,
                 multicast_capable: bool = True, is_host: bool = False) -> None:
        self.network = network
        self.node_id = node_id
        self.address = address
        self.multicast_capable = multicast_capable
        self.is_host = is_host
        self.links: Dict[NodeId, "Link"] = {}
        self.agents: List[Agent] = []
        #: Packets addressed here that no agent claimed (visible to tests).
        self.unclaimed: List[Packet] = []
        #: Packets dropped for lack of a route to their destination.
        self.dropped_no_route = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_link(self, neighbor: NodeId, link: "Link") -> None:
        """Register the link leading to ``neighbor``."""
        if neighbor in self.links:
            raise SimulationError(
                f"node {self.node_id}: duplicate link to {neighbor}"
            )
        self.links[neighbor] = link

    def attach_agent(self, agent: Agent) -> Agent:
        """Attach a protocol agent; returns it for chaining."""
        self.agents.append(agent)
        agent.attached(self)
        return agent

    # ------------------------------------------------------------------
    # Packet path
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, arrived_from: Optional[NodeId]) -> None:
        """Entry point for packets arriving over a link (or injected
        locally with ``arrived_from=None``)."""
        for agent in self.agents:
            if agent.intercept(packet, arrived_from):
                return
        if packet.dst == self.address:
            self._deliver_local(packet)
        else:
            self.forward(packet)

    def _deliver_local(self, packet: Packet) -> None:
        for agent in self.agents:
            if agent.deliver(packet):
                return
        self.unclaimed.append(packet)

    def forward(self, packet: Packet) -> None:
        """Forward on the unicast next hop toward ``packet.dst``.

        A destination with no route drops the packet, exactly like a
        real router — soft state retries later.
        """
        network = self.network
        destination_node = network.node_of(packet.dst)
        try:
            next_hop = network.routing.next_hop(
                self.node_id, destination_node.node_id
            )
        except RoutingError:
            self.dropped_no_route += 1
            return
        self.send_via(next_hop, packet)

    def send_via(self, neighbor: NodeId, packet: Packet) -> None:
        """Transmit ``packet`` over the direct link to ``neighbor``."""
        try:
            link = self.links[neighbor]
        except KeyError:
            raise SimulationError(
                f"node {self.node_id}: no link to {neighbor}"
            ) from None
        link.transmit(self.node_id, packet)

    def originate(self, packet: Packet) -> None:
        """Inject an externally-generated packet into the network.

        Runs the full receive pipeline (including agent interception) —
        use for traffic arriving from outside the simulation, e.g. a
        test injecting a packet "from an application".
        """
        self.receive(packet, arrived_from=None)

    def emit(self, packet: Packet) -> None:
        """Send a packet generated *by this node's own agents*.

        Skips local interception — a protocol agent must never process
        its own emissions — and goes straight to local delivery or
        unicast forwarding.
        """
        if packet.dst == self.address:
            self._deliver_local(packet)
        else:
            self.forward(packet)

    def __repr__(self) -> str:
        role = "host" if self.is_host else "router"
        return f"Node({self.node_id}, {role}, {self.address})"
