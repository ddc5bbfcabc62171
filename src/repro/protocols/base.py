"""The driver interface every multicast protocol implements.

A protocol driver owns one multicast conversation rooted at a source
node: receivers join/leave, the control plane converges, and
``distribute_data`` measures how one data packet spreads — producing the
:class:`~repro.metrics.distribution.DataDistribution` all metrics are
computed from.

A registry maps protocol names ("hbh", "reunite", "pim-sm", "pim-ss")
to factories so experiments can be configured by name, matching the
four curves of the paper's figures.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Set

from repro.core.tables import ProtocolTiming, ROUND_TIMING
from repro.errors import ExperimentError
from repro.metrics.distribution import DataDistribution
from repro.obs.registry import MetricsRegistry, channel_label
from repro.routing.tables import UnicastRouting, shared_routing
from repro.topology.model import Topology

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.verify.state import SoftStateView

NodeId = Hashable

#: The shared metric names every protocol emits (identical across HBH,
#: REUNITE and the PIM baselines, so one registry compares all four).
#: Labels on each: ``protocol`` and ``channel`` (the ``<S,G>`` pair).
SHARED_METRICS = {
    "tree.cost.copies": "histogram",
    "tree.cost.weighted": "histogram",
    "delay.receiver": "histogram",
    "delay.mean": "histogram",
    "join.converge.rounds": "histogram",
    "control.messages": "counter",
    "data.deliveries": "counter",
    "data.missing": "counter",
    "group.size": "gauge",
}


class MulticastProtocol(abc.ABC):
    """One multicast conversation under one routing protocol."""

    #: Registry name, set by subclasses ("hbh", "reunite", ...).
    name: str = "abstract"

    def __init__(self, topology: Topology, source: NodeId,
                 routing: Optional[UnicastRouting] = None,
                 group: str = "G") -> None:
        topology.kind(source)
        self.topology = topology
        self.routing = routing or shared_routing(topology)
        self.source = source
        self.group = group
        self.receivers: Set[NodeId] = set()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def add_receiver(self, receiver: NodeId) -> None:
        """Join ``receiver`` to the conversation."""

    @abc.abstractmethod
    def remove_receiver(self, receiver: NodeId) -> None:
        """Remove ``receiver`` from the conversation."""

    def add_receivers(self, receivers) -> None:
        """Join several receivers (deterministic sorted order)."""
        for receiver in sorted(receivers):
            self.add_receiver(receiver)

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def converge(self, max_rounds: int = 40) -> int:
        """Drive the control plane to a stable tree; returns the number
        of rounds/periods it took (0 for computed trees like PIM)."""

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def distribute_data(self) -> DataDistribution:
        """Send one data packet through the converged tree and record
        every link crossing and receiver delay."""

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def control_message_count(self) -> int:
        """Control messages processed so far by this conversation.

        Rule-driven protocols (HBH, REUNITE) report their rule-level
        message events; tree-computing baselines report the hop count
        of the join/prune walks that shaped their tree.  Used for the
        shared ``control.messages`` metric.
        """
        return 0

    def channel_id(self) -> str:
        """This conversation's ``<S,G>`` label value.  ``group``
        disambiguates the thousands of channels a churn workload runs
        off one source node."""
        return channel_label(self.source, self.group)

    def record_metrics(self, registry: MetricsRegistry,
                       distribution: DataDistribution,
                       converge_rounds: Optional[int] = None) -> None:
        """Emit the shared metric set (:data:`SHARED_METRICS`) for one
        measured data distribution.

        Every protocol goes through this one method, which is what
        guarantees apples-to-apples metric names across HBH, REUNITE
        and the PIM baselines.
        """
        labels = {"protocol": self.name, "channel": self.channel_id()}
        registry.observe("tree.cost.copies", float(distribution.copies),
                         **labels)
        registry.observe("tree.cost.weighted", distribution.weighted_cost,
                         **labels)
        for delay in distribution.delays.values():
            registry.observe("delay.receiver", delay, **labels)
        if distribution.delays:
            mean_delay = (sum(distribution.delays.values())
                          / len(distribution.delays))
            registry.observe("delay.mean", mean_delay, **labels)
        registry.inc("data.deliveries", float(len(distribution.delivered)),
                     **labels)
        registry.inc("data.missing", float(len(distribution.missing)),
                     **labels)
        registry.set_gauge("group.size", float(len(self.receivers)), **labels)
        registry.inc("control.messages", float(self.control_message_count()),
                     **labels)
        if converge_rounds is not None:
            registry.observe("join.converge.rounds", float(converge_rounds),
                             **labels)

    def record_flow(self, flow, distribution: DataDistribution,
                    t: float = 0.0, util: bool = True) -> None:
        """Digest one measured distribution into a
        :class:`~repro.obs.flow.FlowTelemetry` instrument: sampled flow
        records, per-link utilization and the per-channel SLO metrics.

        Like :meth:`record_metrics`, every protocol goes through this
        one method — the channel label, routing baselines (for path
        stretch and the concentration ratio) and source all come from
        the driver itself, so flow accounting stays apples-to-apples
        across HBH, REUNITE and the PIM baselines.  Callers on the
        event plane pass ``util=False`` when a live transmit tap
        already tallied the crossings.
        """
        if flow is None or not flow.enabled:
            return
        flow.observe_distribution(self.name, self.channel_id(),
                                  distribution, routing=self.routing,
                                  source=self.source, t=t, util=util)

    # ------------------------------------------------------------------
    # Causal tracing (optional, default unsupported)
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer, flight=None) -> bool:
        """Wire a :class:`~repro.obs.causal.CausalTracer` (and
        optionally a :class:`~repro.obs.flight.FlightRecorder`) into
        this conversation's control plane.  Returns whether the
        protocol supports tracing; the default does not.
        """
        return False

    def causal_tracer(self):
        """The attached causal tracer, or ``None``.  The convergence
        oracle uses this to explain violations."""
        return None

    # ------------------------------------------------------------------
    # Tree-dynamics timeline (optional, default unsupported)
    # ------------------------------------------------------------------
    def attach_timeline(self, timeline, monitor=None) -> bool:
        """Wire a :class:`~repro.obs.timeline.TreeTimeline` (and
        optionally a :class:`~repro.obs.timeline.ConvergenceMonitor`)
        into this conversation's control plane so membership changes
        and table mutations appear as timeline events.  Returns whether
        the protocol supports the timeline; the default does not.
        """
        return False

    def finish_timeline(self) -> None:
        """Settle the attached convergence monitor at the driver's
        current simulated time (no-op when unsupported/unattached)."""

    # ------------------------------------------------------------------
    # Introspection (optional, default empty)
    # ------------------------------------------------------------------
    def branching_nodes(self) -> List[NodeId]:
        """Nodes that duplicate data packets (empty if not applicable)."""
        return []

    def soft_state(self) -> Optional["SoftStateView"]:
        """Snapshot of every soft-state table entry for the
        convergence oracle's t2-hygiene check.

        ``None`` means "not applicable": protocols that compute their
        trees (the PIM baselines, MOSPF) hold no refresh-timed state
        that could go stale.
        """
        return None

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(source={self.source}, "
            f"receivers={len(self.receivers)})"
        )


class RoundDriverProtocol(MulticastProtocol):
    """A rule-driven protocol (HBH, REUNITE) whose conversation is one
    :class:`~repro.core.round_driver.RoundDriver`.

    Subclasses set :attr:`driver_cls` and define ``add_receiver``,
    ``remove_receiver``, ``converge`` and ``distribute_data`` in their
    own bodies, so each protocol's entry points stay distinct functions
    that profilers can wrap per protocol.
    """

    #: The :class:`~repro.core.round_driver.RoundDriver` subclass.
    driver_cls: type

    def __init__(self, topology: Topology, source: NodeId,
                 routing: Optional[UnicastRouting] = None,
                 timing: ProtocolTiming = ROUND_TIMING,
                 group: str = "G") -> None:
        super().__init__(topology, source, routing, group=group)
        self.driver = self.driver_cls(topology, source, routing=self.routing,
                                      timing=timing, group=group)

    def control_message_count(self) -> int:
        return self.driver.messages_processed

    def branching_nodes(self) -> List[NodeId]:
        return self.driver.branching_nodes()

    def attach_tracer(self, tracer, flight=None) -> bool:
        self.driver.attach_tracer(tracer, flight=flight)
        return True

    def causal_tracer(self):
        return self.driver.causal

    def attach_timeline(self, timeline, monitor=None) -> bool:
        self.driver.attach_timeline(timeline, monitor=monitor)
        return True

    def finish_timeline(self) -> None:
        timeline = self.driver.timeline
        if timeline is not None and timeline.monitor is not None:
            timeline.monitor.finalize(self.driver.now)


ProtocolFactory = Callable[..., MulticastProtocol]

PROTOCOL_REGISTRY: Dict[str, ProtocolFactory] = {}


def register_protocol(name: str) -> Callable[[ProtocolFactory], ProtocolFactory]:
    """Class decorator registering a protocol under ``name``."""

    def decorator(factory: ProtocolFactory) -> ProtocolFactory:
        if name in PROTOCOL_REGISTRY:
            raise ExperimentError(f"protocol {name!r} already registered")
        PROTOCOL_REGISTRY[name] = factory
        factory.name = name
        return factory

    return decorator


def protocol_names() -> List[str]:
    """Every name :func:`build_protocol` accepts, sorted."""
    # Importing the implementations registers them; deferred to avoid
    # circular imports at package-load time.
    import repro.protocols.reunite.protocol  # noqa: F401
    import repro.protocols.pim.protocol  # noqa: F401
    import repro.protocols.hbh_adapter  # noqa: F401
    import repro.protocols.mospf  # noqa: F401

    return sorted(PROTOCOL_REGISTRY)


def build_protocol(name: str, topology: Topology, source: NodeId,
                   routing: Optional[UnicastRouting] = None,
                   **kwargs) -> MulticastProtocol:
    """Instantiate a registered protocol by name."""
    known = protocol_names()
    if name not in known:
        raise ExperimentError(
            f"unknown protocol {name!r} (known: {', '.join(known)})"
        )
    return PROTOCOL_REGISTRY[name](topology, source, routing=routing,
                                   **kwargs)
