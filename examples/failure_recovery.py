#!/usr/bin/env python3
"""End-to-end self-healing: a link failure repaired by soft state alone.

HBH takes unicast routes as an input.  Here they come from the
library's shortest-path substrate, which re-routes around a failed link
at once (it abstracts the IGP's convergence time), so no data packet is
lost.  The multicast tree is another matter: nothing tells HBH that the
link died.  Data first detours through the old branching router, joins
then take the new routes, tree messages install the new branch, and the
stale state decays at t2.  The copy count per data packet tells the
story: it jumps at the cut, then falls back as soft state re-routes and
the stale entries expire.  Restoring the link replays the same dance
back onto the cheap path.

Run:  python examples/failure_recovery.py
"""

from repro import HbhChannel, Network
from repro.core.tables import ProtocolTiming
from repro.netsim.faults import FaultInjector, FaultSchedule, LinkDown, LinkUp
from repro.topology.model import Topology

TIMING = ProtocolTiming(join_period=50.0, tree_period=50.0,
                        t1=130.0, t2=260.0)

#: Settle after each topology change, in steps of 4 tree periods.  The
#: copy count does not fall monotonically: it touches the steady
#: state's, bounces up once as the last stale entries age out, and only
#: then stays put.  Six steps (24 periods) get past the bounce.
SETTLE_STEPS = 6


def ladder() -> Topology:
    """source host 10 - R0 = (R1-R2 primary | R3-R4 backup) = hosts."""
    topology = Topology(name="ladder")
    for router in (0, 1, 2, 3, 4):
        topology.add_router(router)
    topology.add_link(0, 1, 1, 1)
    topology.add_link(1, 2, 1, 1)
    topology.add_link(0, 3, 5, 5)
    topology.add_link(3, 4, 5, 5)
    topology.add_link(4, 2, 5, 5)
    topology.add_host(10, attached_to=0)
    topology.add_host(12, attached_to=2)
    topology.add_host(14, attached_to=4)
    return topology


def probe(channel, label):
    distribution = channel.measure_data()
    status = "OK" if distribution.complete else f"MISSING {distribution.missing}"
    print(f"  [{status:>12}] {label}: delays={distribution.delays} "
          f"copies={distribution.copies}")
    assert distribution.complete  # routing repairs at once: nothing lost
    return distribution


def inject(network, event):
    """Apply one fault event now, through the fault plane."""
    FaultInjector(network, FaultSchedule([event]),
                  time_offset=network.simulator.now).arm()


def settle(channel):
    """Converge in 4-period steps, narrating the copy count."""
    for step in range(1, SETTLE_STEPS + 1):
        channel.converge(periods=4)
        distribution = probe(channel, f"+{4 * step:>2} periods      ")
    return distribution


def main() -> None:
    network = Network(ladder())

    print("1. HBH channel over shortest-path unicast routes...")
    channel = HbhChannel(network, source_node=10, timing=TIMING)
    channel.join(12)
    channel.join(14)
    channel.converge(periods=10)
    steady = probe(channel, "steady state     ")

    print("2. cutting the primary link R1-R2: unicast routes move to the")
    print("   backup path at once, data detours via the old branch at R2...")
    inject(network, LinkDown(0.0, 1, 2))
    probe(channel, "immediately after")

    print("3. soft state re-routes: joins take the new routes, tree")
    print("   messages build the new branch, the old one decays...")
    settle(channel)

    print("4. restoring the link: traffic drifts back to the cheap path...")
    inject(network, LinkUp(0.0, 1, 2))
    probe(channel, "immediately after")
    final = settle(channel)
    assert final.delays == steady.delays
    assert final.copies == steady.copies
    print("\nno operator action, no failure signalling — pure soft state.")


if __name__ == "__main__":
    main()
