"""Work ledger of the event plane: exact counts for one fixed run.

Replays one live HBH channel through a fault storm and a mass leave on
the packet simulator (the first case of the end-to-end benchmark's
``event-faults`` workload, named ``perfbench/event-faults/1/0``) and
pins the work it did: rule applications per message kind, simulator
events, link transmissions and routing repairs.  The counts are exact
on any host.  A change that only makes the same work cheaper leaves
them alone; a change that alters them updates this ledger and says
why.
"""

import random
import zlib

import pytest

from repro.core.protocol import HbhChannel
from repro.experiments.config import make_random50_setup
from repro.netsim.faults import FaultInjector, random_schedule
from repro.netsim.network import Network

CASE = "perfbench/event-faults/1/0"
RECEIVERS = 16
FAULT_EVENTS = 8
JOIN_PERIODS = 8
STORM_PERIODS = 4
SETTLE_PERIODS = 8


@pytest.fixture(scope="module")
def replay():
    """Join, storm, half leave; one data probe after each phase."""
    setup = make_random50_setup(CASE)
    receivers = sorted(random.Random(CASE).sample(setup.candidates,
                                                  RECEIVERS))
    network = Network(setup.topology)
    channel = HbhChannel(network, source_node=setup.source)
    for receiver in receivers:
        channel.join(receiver)
    channel.converge(periods=JOIN_PERIODS)
    probes = [channel.measure_data()]
    storm = random_schedule(
        setup.topology, setup.source, receivers,
        seed=zlib.crc32(CASE.encode()), events=FAULT_EVENTS,
        horizon=STORM_PERIODS * channel.timing.tree_period)
    FaultInjector(network, storm, time_offset=network.simulator.now).arm()
    channel.converge(periods=STORM_PERIODS + SETTLE_PERIODS)
    probes.append(channel.measure_data())
    for receiver in receivers[::2]:
        channel.leave(receiver)
    channel.converge(periods=SETTLE_PERIODS)
    probes.append(channel.measure_data())
    network.routing.export_repair_metrics(network.metrics)
    return network.metrics, probes


class TestEventPlaneLedger:
    def test_rule_events_per_message_kind(self, replay):
        metrics, _ = replay
        counts = {
            message: metrics.value("control.rule_events", protocol="hbh",
                                   message=message)
            for message in ("join", "tree", "fusion")
        }
        assert counts == {"join": 1852, "tree": 1974, "fusion": 843}

    def test_simulator_events(self, replay):
        metrics, _ = replay
        assert metrics.value("engine.events") == 7434

    def test_link_transmissions(self, replay):
        metrics, _ = replay
        assert metrics.value("net.tx.copies", kind="control") == 5929
        assert metrics.value("net.tx.copies", kind="data") == 128
        assert metrics.value("net.tx.weighted_cost",
                             kind="control") == 18975.0
        assert metrics.value("net.tx.weighted_cost", kind="data") == 479.0

    def test_routing_repairs(self, replay):
        metrics, _ = replay
        repairs = {
            name: metrics.value(f"routing.repair.{name}")
            for name in ("refreshes", "origins_changed", "nodes_touched",
                         "full_rebuilds")
        }
        assert repairs == {"refreshes": 170, "origins_changed": 39,
                           "nodes_touched": 179, "full_rebuilds": 0}

    def test_every_probe_completes(self, replay):
        _, probes = replay
        assert len(probes) == 3
        for distribution in probes:
            assert distribution.expected
            assert distribution.missing == set()
            assert distribution.duplicate_deliveries() == {}
