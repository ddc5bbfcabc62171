"""Discrete-event network simulator substrate.

The paper evaluates HBH in NS; this package is the equivalent substrate
built from scratch: a virtual-time event engine (:mod:`engine`),
soft-state timers (:mod:`timers`), unicast datagrams (:mod:`packet`),
per-direction-cost links (:mod:`link`), protocol-agnostic nodes
(:mod:`node`) and the :class:`~repro.netsim.network.Network` container
that wires a :class:`~repro.topology.model.Topology` into a running
simulation.

Link cost doubles as propagation delay ("time units"), exactly the
paper's model.  Every packet transmission is counted per directed link,
which is how tree cost — "the number of copies of the same packet that
are transmitted in the network links" — is measured.
"""

from repro.netsim.engine import EventHandle, Simulator
from repro.netsim.timers import SoftStateEntryTimers, Timer
from repro.netsim.packet import Packet, PacketKind
from repro.netsim.link import Link
from repro.netsim.node import Agent, Node
from repro.netsim.network import Network
from repro.netsim.stats import LinkCounters, TransmissionTally

__all__ = [
    "Simulator",
    "EventHandle",
    "Timer",
    "SoftStateEntryTimers",
    "Packet",
    "PacketKind",
    "Link",
    "Node",
    "Agent",
    "Network",
    "LinkCounters",
    "TransmissionTally",
]
