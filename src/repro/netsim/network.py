"""The Network: a topology wired into a running simulation.

``Network(topology)`` creates one :class:`~repro.netsim.node.Node` per
topology vertex (with a unicast address), one
:class:`~repro.netsim.link.Link` per physical link (delay = directed
cost), a shared :class:`~repro.routing.tables.UnicastRouting` substrate
and transmission counters.  Protocol agents are attached afterwards;
:meth:`start` kicks off their periodic behaviour.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.addressing import Address, AddressAllocator
from repro.errors import SimulationError
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.node import Agent, Node
from repro.netsim.packet import Packet, PacketKind
from repro.netsim.stats import LinkCounters
from repro.obs.causal import CausalTracer
from repro.obs.flow import FlowTelemetry
from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import TreeTimeline
from repro.routing.tables import shared_routing
from repro.topology.model import NodeKind, Topology

NodeId = Hashable


class Network:
    """A simulated network over a validated topology."""

    def __init__(self, topology: Topology,
                 simulator: Optional[Simulator] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        topology.validate()
        self.topology = topology
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.simulator = simulator or Simulator()
        if self.simulator.metrics is None:
            self.simulator.metrics = self.metrics
        self.routing = shared_routing(topology)
        self.counters = LinkCounters(registry=self.metrics)
        # The three instruments below are attached by assignment: put
        # an enabled one in place before the run starts.
        #: Causal span tracer (see :mod:`repro.obs.causal`), disabled by
        #: default: agents consult ``causal.enabled`` before spending
        #: anything on span bookkeeping.
        self.causal = CausalTracer(enabled=False)
        #: Tree-dynamics timeline (see :mod:`repro.obs.timeline`),
        #: disabled by default under the same single enabled-check
        #: fast-path rule as causal tracing.
        self.timeline = TreeTimeline(enabled=False)
        #: Data-plane flow telemetry (see :mod:`repro.obs.flow`),
        #: disabled by default under the same fast-path rule.
        self.flow = FlowTelemetry(enabled=False)
        self._nodes: Dict[NodeId, Node] = {}
        self._by_address: Dict[Address, Node] = {}
        self._saved_costs: Dict = {}
        #: Crashed routers -> neighbors whose links the crash took down.
        self._crashed: Dict[NodeId, List[NodeId]] = {}
        allocator = AddressAllocator()
        for node_id in topology.nodes:
            node = Node(
                self,
                node_id,
                allocator.next_unicast(),
                multicast_capable=topology.is_multicast_capable(node_id),
                is_host=topology.kind(node_id) is NodeKind.HOST,
            )
            self._nodes[node_id] = node
            self._by_address[node.address] = node
        for a, b in topology.undirected_edges():
            link = Link(
                self.simulator,
                self._nodes[a],
                self._nodes[b],
                delay_ab=topology.cost(a, b),
                delay_ba=topology.cost(b, a),
                on_transmit=self._on_transmit,
            )
            self._nodes[a].attach_link(b, link)
            self._nodes[b].attach_link(a, link)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def node(self, node_id: NodeId) -> Node:
        """The live node for a topology vertex id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise SimulationError(f"unknown node {node_id}") from None

    def node_of(self, address: Address) -> Node:
        """The node owning a unicast address."""
        try:
            return self._by_address[address]
        except KeyError:
            raise SimulationError(f"no node has address {address}") from None

    def address_of(self, node_id: NodeId) -> Address:
        """The unicast address of a topology vertex."""
        return self.node(node_id).address

    @property
    def nodes(self) -> List[Node]:
        """All live nodes, in topology id order."""
        return [self._nodes[node_id] for node_id in self.topology.nodes]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, node_id: NodeId, agent: Agent) -> Agent:
        """Attach a protocol agent to a node (chained helper)."""
        return self.node(node_id).attach_agent(agent)

    def start(self) -> None:
        """Start every attached agent (after all wiring is done)."""
        for node in self.nodes:
            for agent in node.agents:
                agent.start()

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Run the simulation (delegates to the engine)."""
        return self.simulator.run(until=until, max_events=max_events)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    #: Routing cost of a failed link: effectively unreachable, but
    #: finite so Dijkstra still terminates; packets forced onto a down
    #: link (no alternative path) are dropped by the link itself.
    FAILED_LINK_COST = 1e12

    def fail_link(self, a: NodeId, b: NodeId) -> None:
        """Cut the link between ``a`` and ``b``.

        Packets in flight are delivered (they already left); future
        transmissions are lost.  Unicast routing immediately reconverges
        around the cut (our substrate abstracts the IGP's convergence
        time); multicast soft state repairs itself over the next
        refresh periods — the recovery the failure tests measure.
        """
        link = self.link_between(a, b)
        if not link.up:
            raise SimulationError(f"link {a}-{b} is already down")
        link.up = False
        self._saved_costs[(a, b)] = (self.topology.cost(a, b),
                                     self.topology.cost(b, a))
        # The routing substrate observes set_cost itself and repairs
        # only the origin trees the cut actually crosses (lazily, on
        # the next query) — no wholesale invalidation.
        self.topology.set_cost(a, b, self.FAILED_LINK_COST)
        self.topology.set_cost(b, a, self.FAILED_LINK_COST)

    def restore_link(self, a: NodeId, b: NodeId) -> None:
        """Bring a failed link back with its original costs."""
        link = self.link_between(a, b)
        if link.up:
            raise SimulationError(f"link {a}-{b} is not down")
        try:
            cost_ab, cost_ba = self._saved_costs.pop((a, b))
        except KeyError:
            cost_ab, cost_ba = self._saved_costs.pop((b, a))
            cost_ab, cost_ba = cost_ba, cost_ab
        link.up = True
        self.topology.set_cost(a, b, cost_ab)
        self.topology.set_cost(b, a, cost_ba)

    def link_between(self, a: NodeId, b: NodeId) -> Link:
        """The live link joining ``a`` and ``b`` (fault plane and tests
        configure per-link perturbations through this)."""
        try:
            return self.node(a).links[b]
        except KeyError:
            raise SimulationError(f"no link between {a} and {b}") from None

    def crash_router(self, node_id: NodeId) -> None:
        """Crash ``node_id``: every adjacent up link goes down and all
        attached agents wipe their tables (:meth:`Agent.crash`).

        Mirrors a real router losing power: neighbors see only silence
        (soft state decays), and a restarted router comes back with
        empty MCT/MFT state — recovery must rebuild it from protocol
        refreshes alone.
        """
        node = self.node(node_id)
        if node_id in self._crashed:
            raise SimulationError(f"router {node_id} is already down")
        downed = []
        for neighbor, link in sorted(node.links.items(), key=lambda kv: str(kv[0])):
            if link.up:
                self.fail_link(node_id, neighbor)
                downed.append(neighbor)
        self._crashed[node_id] = downed
        for agent in node.agents:
            agent.crash()

    def restart_router(self, node_id: NodeId) -> None:
        """Bring a crashed router back up (links restored, tables still
        empty — the wipe happened at crash time)."""
        try:
            downed = self._crashed.pop(node_id)
        except KeyError:
            raise SimulationError(f"router {node_id} is not down") from None
        for neighbor in downed:
            self.restore_link(node_id, neighbor)

    def is_crashed(self, node_id: NodeId) -> bool:
        """Whether ``node_id`` is currently crashed."""
        return node_id in self._crashed

    def links(self) -> List[Link]:
        """Every distinct link, ordered by (sorted) endpoint pair."""
        seen = {}
        for node in self.nodes:
            for link in node.links.values():
                seen.setdefault(link.endpoints(), link)
        return [seen[key] for key in sorted(seen, key=str)]

    def set_loss_everywhere(self, rate: float, seed=None) -> None:
        """Make every link drop each transmission with probability
        ``rate`` (seeded; 0.0 restores reliability).  Soft-state
        protocols are expected to ride this out — the lossy-network
        robustness tests measure how well."""
        from repro._rand import derive_rng, make_rng

        rng = make_rng(seed)
        seen = set()
        for node in self.nodes:
            for neighbor, link in node.links.items():
                if id(link) in seen:
                    continue
                seen.add(id(link))
                if rate == 0.0:
                    # Through the setter, not attribute pokes, so the
                    # link's fast-path flag is recomputed.
                    link.set_loss(0.0, None)
                else:
                    link.set_loss(rate, derive_rng(rng, "loss",
                                                   len(seen)))

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _on_transmit(self, link: Link, src: NodeId, dst: NodeId,
                     packet: Packet) -> None:
        self.counters.record(src, dst, self.topology.cost(src, dst),
                             packet.kind)
        causal = self.causal
        if causal.enabled and packet.span_id is not None:
            causal.hop(packet.span_id, dst)
        flow = self.flow
        if flow.enabled:
            flow.record_transmit(
                self.simulator.now, src, dst, self.topology.cost(src, dst),
                "data" if packet.kind is PacketKind.DATA else "control",
            )

    def data_tally(self):
        """Aggregate data-traffic tally (tree-cost measurement)."""
        return self.counters.tally(PacketKind.DATA)

    def control_tally(self):
        """Aggregate control-traffic tally (protocol overhead)."""
        return self.counters.tally(PacketKind.CONTROL)

    def __repr__(self) -> str:
        return f"Network({self.topology.name!r}, nodes={len(self._nodes)})"
