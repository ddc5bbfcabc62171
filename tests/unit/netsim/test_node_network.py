"""Unit tests for nodes, agents, and the network container."""

import pytest

from repro.errors import SimulationError
from repro.netsim.network import Network
from repro.netsim.node import Agent
from repro.netsim.packet import Packet, PacketKind
from repro.topology.random_graphs import line_topology


class Recorder(Agent):
    """Test agent: records everything, optionally consumes."""

    def __init__(self, consume_intercept=False, consume_deliver=True):
        super().__init__()
        self.intercepted = []
        self.delivered = []
        self.started = 0
        self.consume_intercept = consume_intercept
        self.consume_deliver = consume_deliver

    def start(self):
        self.started += 1

    def intercept(self, packet, arrived_from):
        self.intercepted.append((packet, arrived_from))
        return self.consume_intercept

    def deliver(self, packet):
        self.delivered.append(packet)
        return self.consume_deliver


@pytest.fixture
def network():
    return Network(line_topology(4))


class TestForwarding:
    def test_multi_hop_unicast(self, network):
        packet = Packet(
            src=network.address_of(0), dst=network.address_of(3),
            payload="x", kind=PacketKind.DATA,
        )
        network.node(0).emit(packet)
        network.run()
        assert len(network.node(3).unclaimed) == 1
        assert network.simulator.now == 3.0  # three unit-cost hops

    def test_transit_node_does_not_deliver(self, network):
        agent = Recorder()
        network.attach(1, agent)
        packet = Packet(
            src=network.address_of(0), dst=network.address_of(3),
            payload="x",
        )
        network.node(0).emit(packet)
        network.run()
        assert len(agent.intercepted) == 1  # saw it in transit
        assert agent.delivered == []        # never delivered locally

    def test_intercepting_agent_consumes(self, network):
        agent = Recorder(consume_intercept=True)
        network.attach(1, agent)
        packet = Packet(
            src=network.address_of(0), dst=network.address_of(3),
            payload="x",
        )
        network.node(0).emit(packet)
        network.run()
        assert network.node(3).unclaimed == []

    def test_emit_skips_local_agents(self, network):
        agent = Recorder(consume_intercept=True)
        network.attach(0, agent)
        packet = Packet(
            src=network.address_of(0), dst=network.address_of(2),
            payload="x",
        )
        network.node(0).emit(packet)
        network.run()
        assert agent.intercepted == []  # own emission not re-examined
        assert len(network.node(2).unclaimed) == 1

    def test_originate_runs_local_pipeline(self, network):
        agent = Recorder(consume_intercept=True)
        network.attach(0, agent)
        packet = Packet(
            src=network.address_of(0), dst=network.address_of(2),
            payload="x",
        )
        network.node(0).originate(packet)
        network.run()
        assert len(agent.intercepted) == 1  # injected traffic is examined

    def test_emit_to_self_delivers_locally(self, network):
        agent = Recorder()
        network.attach(0, agent)
        packet = Packet(
            src=network.address_of(0), dst=network.address_of(0),
            payload="x",
        )
        network.node(0).emit(packet)
        assert len(agent.delivered) == 1
        assert network.counters.tally(PacketKind.CONTROL).copies == 0

    def test_unclaimed_sink(self, network):
        packet = Packet(
            src=network.address_of(0), dst=network.address_of(1),
            payload="x",
        )
        network.node(0).emit(packet)
        network.run()
        assert len(network.node(1).unclaimed) == 1

    def test_send_via_unknown_neighbor(self, network):
        packet = Packet(
            src=network.address_of(0), dst=network.address_of(3),
            payload="x",
        )
        with pytest.raises(SimulationError):
            network.node(0).send_via(3, packet)  # not adjacent


class TestNetworkContainer:
    def test_address_mapping_bijective(self, network):
        for node in network.nodes:
            assert network.node_of(node.address) is node

    def test_unknown_lookups(self, network):
        from repro.addressing import Address

        with pytest.raises(SimulationError):
            network.node(99)
        with pytest.raises(SimulationError):
            network.node_of(Address.parse("1.2.3.4"))

    def test_start_reaches_all_agents(self, network):
        agents = [Recorder() for _ in range(3)]
        for node_id, agent in enumerate(agents):
            network.attach(node_id, agent)
        network.start()
        assert all(agent.started == 1 for agent in agents)

    def test_counters_split_by_kind(self, network):
        control = Packet(src=network.address_of(0),
                         dst=network.address_of(1), payload="c")
        data = Packet(src=network.address_of(0),
                      dst=network.address_of(1), payload="d",
                      kind=PacketKind.DATA)
        network.node(0).emit(control)
        network.node(0).emit(data)
        network.run()
        assert network.control_tally().copies == 1
        assert network.data_tally().copies == 1

    def test_counters_weighted_by_cost(self):
        from repro.topology.model import Topology

        topology = Topology()
        topology.add_router(0)
        topology.add_router(1)
        topology.add_link(0, 1, 4.0, 1.0)
        network = Network(topology)
        packet = Packet(src=network.address_of(0),
                        dst=network.address_of(1), payload="x",
                        kind=PacketKind.DATA)
        network.node(0).emit(packet)
        network.run()
        assert network.data_tally().weighted_cost == 4.0

    def test_duplicate_agent_link_attach_rejected(self, network):
        node = network.node(0)
        with pytest.raises(SimulationError):
            node.attach_link(1, node.links[1])

    def test_repr(self, network):
        assert "nodes=4" in repr(network)

    def test_host_flag(self):
        from repro.topology.isp import isp_topology

        network = Network(isp_topology(seed=1))
        assert network.node(18).is_host
        assert not network.node(0).is_host
