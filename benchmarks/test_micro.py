"""Micro-benchmarks of the substrates (classic pytest-benchmark style:
many rounds, statistical timing) — the knobs that bound how large a
Monte-Carlo budget the figure sweeps can afford."""

from repro.core.static_driver import StaticHbh
from repro.netsim.engine import Simulator
from repro.routing.dijkstra import shortest_paths_from
from repro.routing.tables import UnicastRouting
from repro.topology.isp import isp_topology
from repro.topology.random_graphs import random_topology_50


def test_engine_event_throughput(benchmark):
    """Schedule+execute 10k chained events."""

    def run():
        simulator = Simulator()
        remaining = [10_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                simulator.schedule(1.0, tick)

        simulator.schedule(1.0, tick)
        simulator.run()
        return simulator.events_executed

    events = benchmark(run)
    assert events == 10_000


def test_dijkstra_random50(benchmark):
    """One single-source shortest-path computation on the paper's
    50-node topology."""
    topology = random_topology_50(seed=3)

    distance, _ = benchmark(shortest_paths_from, topology, 0)
    assert len(distance) == 50


def test_full_routing_tables_isp(benchmark):
    """All 36 nodes' forwarding tables on the ISP topology."""
    topology = isp_topology(seed=3)

    def run():
        routing = UnicastRouting(topology)
        for node in topology.nodes:
            routing.table(node)
        return routing

    benchmark(run)


def test_hbh_converge_isp_8_receivers(benchmark):
    """One converged HBH tree, the unit of every Monte-Carlo run."""
    topology = isp_topology(seed=3)
    routing = UnicastRouting(topology)
    receivers = [20, 22, 25, 27, 29, 31, 33, 35]

    def run():
        driver = StaticHbh(topology, 18, routing=routing)
        for receiver in receivers:
            driver.add_receiver(receiver)
            driver.converge(max_rounds=80)
        return driver.distribute_data()

    distribution = benchmark(run)
    assert distribution.complete


def test_hbh_converge_disabled_tracer(benchmark):
    """The causal-tracing guard: a *disabled* tracer attached to the
    driver must keep convergence at the untraced benchmark's speed
    (compare against ``test_hbh_converge_isp_8_receivers`` in the same
    run) and record nothing — the disabled path is one boolean check
    per message walk, not a span allocation."""
    from repro.obs.causal import CausalTracer

    topology = isp_topology(seed=3)
    routing = UnicastRouting(topology)
    receivers = [20, 22, 25, 27, 29, 31, 33, 35]
    tracer = CausalTracer(enabled=False)

    def run():
        driver = StaticHbh(topology, 18, routing=routing)
        driver.attach_tracer(tracer)
        for receiver in receivers:
            driver.add_receiver(receiver)
            driver.converge(max_rounds=80)
        return driver.distribute_data()

    distribution = benchmark(run)
    assert distribution.complete
    assert len(tracer) == 0 and tracer.dropped == 0


def test_hbh_converge_disabled_timeline(benchmark):
    """The tree-dynamics guard: a *disabled* timeline attached to the
    driver must keep convergence at the unwatched benchmark's speed
    (compare against ``test_hbh_converge_isp_8_receivers`` in the same
    run) and record nothing — the disabled path is the same single
    boolean check per seam that causal tracing pays, not a table diff."""
    from repro.obs.timeline import TreeTimeline

    topology = isp_topology(seed=3)
    routing = UnicastRouting(topology)
    receivers = [20, 22, 25, 27, 29, 31, 33, 35]
    timeline = TreeTimeline(enabled=False)

    def run():
        driver = StaticHbh(topology, 18, routing=routing)
        driver.attach_timeline(timeline)
        for receiver in receivers:
            driver.add_receiver(receiver)
            driver.converge(max_rounds=80)
        return driver.distribute_data()

    distribution = benchmark(run)
    assert distribution.complete
    assert len(timeline) == 0 and timeline.dropped == 0


def test_pending_is_constant_time(benchmark):
    """`Simulator.pending` must stay O(1) under lazy-deletion debris:
    reading it 10k times against a 50k-event heap (half cancelled)
    costs microseconds with the live counter, seconds with a scan."""
    simulator = Simulator()
    handles = [simulator.schedule(float(i + 1), lambda: None)
               for i in range(50_000)]
    for handle in handles[::2]:
        handle.cancel()

    def read():
        total = 0
        for _ in range(10_000):
            total += simulator.pending
        return total

    total = benchmark(read)
    assert total == 25_000 * 10_000


def test_shared_routing_one_table_build_per_draw(benchmark):
    """The four-protocol paired comparison must build unicast routing
    once per topology draw, not once per protocol: `shared_routing`
    memoizes on the topology instance, so protocols constructed without
    an explicit routing all land on the same table set.  Benchmarks the
    memoized path and asserts the sharing that makes it cheap."""
    from repro.protocols.base import build_protocol
    from repro.routing.tables import shared_routing
    from repro.topology.isp import ISP_SOURCE_NODE

    base = isp_topology(seed=3)

    def run():
        # A fresh instance per round = a fresh Monte-Carlo draw.
        topology = base.copy()
        instances = [
            build_protocol(name, topology, ISP_SOURCE_NODE)
            for name in ("pim-sm", "pim-ss", "reunite", "hbh")
        ]
        return topology, instances

    topology, instances = benchmark(run)
    shared = shared_routing(topology)
    assert all(instance.routing is shared for instance in instances)
    # The copy did not inherit the parent's memoized tables.
    assert shared is not shared_routing(base)


def test_link_transmit_batched(benchmark):
    """Benchmark + structural guard of the data-plane fast path: 1k
    same-instant packets through ``Link.transmit`` on a fault-free
    network must ride batched drain events — consulting no fault RNG
    (tripwires on every knob) — and use strictly fewer engine events
    than one per packet."""
    from repro.netsim.network import Network
    from repro.netsim.packet import Packet
    from repro.topology.paper import fig2_topology

    draws = []

    class Tripwire:
        """Any consultation is a fast-path violation."""

        def random(self):
            draws.append("random")
            return 0.5

        def uniform(self, low, high):
            draws.append("uniform")
            return low

    def run():
        network = Network(fig2_topology())
        a, b = network.links()[0].endpoints()
        link = network.link_between(a, b)
        # Arm the tripwires directly (set_* would flip the link off the
        # plain path, which is exactly what must not happen here).
        link.loss_rng = Tripwire()
        link.jitter_rng = Tripwire()
        link.duplicate_rng = Tripwire()
        link.reorder_rng = Tripwire()
        packet = Packet(src=network.address_of(a),
                        dst=network.address_of(b), payload=None)
        for _ in range(1_000):
            link.transmit(a, packet)
        network.run()
        return network

    network = benchmark(run)
    assert draws == []
    # 1k transmissions coalesced into far fewer drain events: the whole
    # burst shares one batch (plus the handful of bookkeeping events).
    assert network.simulator.events_executed < 1_000


def test_link_transmit_disabled_flow(benchmark):
    """The flow-telemetry guard: the default (disabled) flow plane must
    keep ``link.transmit`` at the batched benchmark's speed (compare
    against ``test_link_transmit_batched`` in the same run) and record
    nothing — the disabled path is one attribute check in the transmit
    tap, not a utilization-cell update or a record allocation."""
    from repro.netsim.network import Network
    from repro.netsim.packet import Packet
    from repro.topology.paper import fig2_topology

    def run():
        network = Network(fig2_topology())
        a, b = network.links()[0].endpoints()
        link = network.link_between(a, b)
        packet = Packet(src=network.address_of(a),
                        dst=network.address_of(b), payload=None)
        for _ in range(1_000):
            link.transmit(a, packet)
        network.run()
        return network

    network = benchmark(run)
    flow = network.flow
    assert not flow.enabled
    assert len(flow) == 0 and flow.dropped == 0
    assert flow.util_rows() == []


def test_workload_stream_generation(benchmark):
    """10k churn events drawn from a 1k-channel Zipf model — the
    stream-generation half of the churn engine, no protocol work.
    Guards the lazy slot machinery against accidental
    materialization (an eager variant holds every future leave in
    memory and is an order of magnitude slower to first event)."""
    from repro.workload import ChurnModel, ChurnSchedule, SessionDuration

    model = ChurnModel(
        channels=1_000, base_rate=400.0,
        session=SessionDuration(scale=120.0, cap=600.0),
    )
    sites = tuple(f"site{i}" for i in range(16))

    def run():
        schedule = ChurnSchedule(model, sites, seed=11)
        return sum(1 for _ in schedule.events(limit=10_000))

    assert benchmark(run) == 10_000


def test_hbh_converge_with_group_label(benchmark):
    """The no-churn guard: threading a non-default group label through
    the driver (the only packet-plane seam the churn engine touched)
    must keep convergence at the plain benchmark's speed — the label is
    resolved once at construction, never per message walk (compare
    against ``test_hbh_converge_isp_8_receivers`` in the same run)."""
    topology = isp_topology(seed=3)
    routing = UnicastRouting(topology)
    receivers = [20, 22, 25, 27, 29, 31, 33, 35]

    def run():
        driver = StaticHbh(topology, 18, routing=routing, group="G42")
        for receiver in receivers:
            driver.add_receiver(receiver)
            driver.converge(max_rounds=80)
        return driver.distribute_data()

    distribution = benchmark(run)
    assert distribution.complete
    assert driver_channel_name_is("G42")


def driver_channel_name_is(group):
    topology = isp_topology(seed=3)
    driver = StaticHbh(topology, 18,
                       routing=UnicastRouting(topology), group=group)
    return driver.channel_name.endswith(f",{group}>")
