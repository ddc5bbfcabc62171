"""High-level facade for running an HBH channel on a simulated network.

:class:`HbhChannel` wires one source, the router agents and any number
of receivers onto a :class:`~repro.netsim.network.Network`, and exposes
converge/measure helpers so tests and examples read like the paper's
scenarios::

    network = Network(isp_topology(seed=1))
    channel = HbhChannel(network, source_node=18)
    channel.join(25)
    channel.join(31)
    channel.converge(periods=8)
    distribution = channel.measure_data()
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.addressing import Channel, GroupAddress
from repro.core.receiver import HbhReceiverAgent
from repro.core.router import HbhRouterAgent
from repro.core.source import HbhSourceAgent
from repro.core.tables import ProtocolTiming
from repro.errors import ChannelError
from repro.metrics.distribution import DataDistribution
from repro.netsim.network import Network
from repro.netsim.packet import PacketKind

NodeId = Hashable

_DEFAULT_GROUP = GroupAddress.parse("232.1.0.1")


def ensure_hbh_routers(network: Network,
                       timing: Optional[ProtocolTiming] = None) -> int:
    """Attach an :class:`HbhRouterAgent` to every multicast-capable
    router that lacks one; returns how many were added.  Router agents
    are channel-agnostic, so channels share them."""
    added = 0
    for node in network.nodes:
        if node.is_host or not node.multicast_capable:
            continue
        if any(isinstance(agent, HbhRouterAgent) for agent in node.agents):
            continue
        node.attach_agent(HbhRouterAgent(timing=timing))
        added += 1
    return added


class HbhChannel:
    """One HBH multicast channel ``<S, G>`` on a live network."""

    def __init__(
        self,
        network: Network,
        source_node: NodeId,
        group: GroupAddress = _DEFAULT_GROUP,
        timing: Optional[ProtocolTiming] = None,
    ) -> None:
        self.network = network
        self.timing = timing or ProtocolTiming()
        ensure_hbh_routers(network, timing=self.timing)
        self.source_node = source_node
        self.source = HbhSourceAgent(group, timing=self.timing)
        network.attach(source_node, self.source)
        self.receivers: Dict[NodeId, HbhReceiverAgent] = {}
        self._former: Dict[NodeId, HbhReceiverAgent] = {}
        self._started = False

    @property
    def channel(self) -> Channel:
        """The ``<S, G>`` identifier (available once attached)."""
        return self.source.channel

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def join(self, receiver_node: NodeId) -> HbhReceiverAgent:
        """Subscribe the host/node ``receiver_node`` to the channel."""
        if receiver_node == self.source_node:
            raise ChannelError("the source cannot join its own channel")
        if receiver_node in self.receivers:
            raise ChannelError(f"{receiver_node} already joined {self.channel}")
        agent = self._former.pop(receiver_node, None)
        if agent is None:
            agent = HbhReceiverAgent(self.channel, timing=self.timing)
            self.network.attach(receiver_node, agent)
        self.receivers[receiver_node] = agent
        self._ensure_started()
        timeline = self.network.timeline
        if timeline.enabled:
            timeline.perturb(self.network.simulator.now, "hbh",
                             str(self.channel), node=receiver_node,
                             detail="join")
        agent.join()
        return agent

    def leave(self, receiver_node: NodeId) -> None:
        """Unsubscribe ``receiver_node`` (goes silent; state decays).
        A later :meth:`join` of the same node reuses the agent."""
        try:
            agent = self.receivers.pop(receiver_node)
        except KeyError:
            raise ChannelError(
                f"{receiver_node} is not joined to {self.channel}"
            ) from None
        timeline = self.network.timeline
        if timeline.enabled:
            timeline.perturb(self.network.simulator.now, "hbh",
                             str(self.channel), node=receiver_node,
                             detail="leave")
        agent.leave()
        self._former[receiver_node] = agent

    def _ensure_started(self) -> None:
        if not self._started:
            self.network.start()
            self._started = True

    # ------------------------------------------------------------------
    # Convergence & measurement
    # ------------------------------------------------------------------
    def converge(self, periods: float = 10.0) -> None:
        """Run the simulation for ``periods`` tree periods."""
        self._ensure_started()
        simulator = self.network.simulator
        simulator.run(until=simulator.now + periods * self.timing.tree_period)

    def measure_data(self, settle_periods: float = 1.0) -> DataDistribution:
        """Send one data packet and record its distribution.

        Counters are reset first so the tally isolates this packet;
        the simulation then runs ``settle_periods`` so every copy
        lands.  Control traffic continues but is tallied separately.
        """
        self.network.counters.reset()
        baseline = {
            node: len(agent.deliveries)
            for node, agent in self.receivers.items()
        }
        self.source.send_data()
        simulator = self.network.simulator
        simulator.run(until=simulator.now + settle_periods * self.timing.tree_period)
        distribution = DataDistribution(expected=set(self.receivers))
        for (src, dst), count in self.network.counters.per_link(
                PacketKind.DATA).items():
            cost = self.network.topology.cost(src, dst)
            for _ in range(count):
                distribution.record_hop(src, dst, cost)
        for node, agent in self.receivers.items():
            # One record per arrival: duplicate copies (a pathology the
            # convergence oracle looks for) must stay visible.
            for delivery in agent.deliveries[baseline[node]:]:
                distribution.record_delivery(node, delivery.delay)
        return distribution
