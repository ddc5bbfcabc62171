"""Event-driven HBH router agent.

Wraps the pure Appendix-A rules (:mod:`repro.core.rules`) for the
packet-level simulator: the agent intercepts join/tree/fusion packets
crossing its node, mutates the per-channel MCT/MFT state, and turns the
rules' actions into packets.  Data packets addressed to this node are
consumed and re-emitted once per data-eligible MFT entry — the
recursive-unicast data plane.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.addressing import Channel
from repro.core.messages import FusionMessage, JoinMessage, TreeMessage
from repro.core.rules import (
    Action,
    Consume,
    Forward,
    OriginateFusion,
    OriginateJoin,
    OriginateTree,
    process_fusion,
    process_join,
    process_tree,
)
from repro.core.tables import HbhChannelState, ProtocolTiming
from repro.errors import ProtocolError, RoutingError, SimulationError
from repro.netsim.node import Agent
from repro.netsim.packet import DataPayload, Packet
from repro.obs.causal import DATA, FUSION, JOIN, TREE
from repro.obs.registry import Counter
from repro.obs.timeline import (
    BRANCH_ADD,
    BRANCH_REMOVE,
    ENTRY_ADD,
    ENTRY_MARK,
    ENTRY_REMOVE,
    REROUTE,
)

NodeId = Hashable


class HbhRouterAgent(Agent):
    """The HBH protocol engine running on one multicast-capable router."""

    def __init__(self, timing: Optional[ProtocolTiming] = None) -> None:
        super().__init__()
        self.timing = timing or ProtocolTiming()
        self.states: Dict[Channel, HbhChannelState] = {}
        #: ``control.rule_events`` counters by message kind, resolved
        #: from the network's registry on first use.
        self._rule_events: Dict[str, Counter] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the periodic soft-state housekeeping scan."""
        self._schedule_housekeeping()

    def crash(self) -> None:
        """Fault plane: lose every channel's MCT/MFT state."""
        timeline = self.node.network.timeline
        if timeline.enabled and self.states:
            now = self.node.network.simulator.now
            node = self.node.node_id
            for channel, state in self.states.items():
                channel_text = str(channel)
                if state.mct is not None:
                    timeline.record(now, "hbh", channel_text, ENTRY_REMOVE,
                                    node=node,
                                    detail=f"crash mct "
                                           f"{state.mct.entry.address}")
                if state.mft is not None:
                    for entry in state.mft:
                        timeline.record(now, "hbh", channel_text,
                                        ENTRY_REMOVE, node=node,
                                        detail=f"crash mft {entry.address}")
                    timeline.record(now, "hbh", channel_text, BRANCH_REMOVE,
                                    node=node, detail="crash")
        self.states.clear()

    def _schedule_housekeeping(self) -> None:
        self.node.network.simulator.schedule(
            self.timing.tree_period, self._housekeeping
        )

    def _housekeeping(self) -> None:
        now = self.node.network.simulator.now
        timeline = self.node.network.timeline
        watched = timeline.enabled
        emptied = []
        for channel, state in self.states.items():
            was_branching = state.is_branching
            removed = state.expire(now, self.timing)
            if removed and watched:
                channel_text = str(channel)
                node = self.node.node_id
                for address in removed:
                    timeline.record(now, "hbh", channel_text,
                                    ENTRY_REMOVE, node=node,
                                    detail=f"expired {address}")
                if was_branching and not state.is_branching:
                    timeline.record(now, "hbh", channel_text,
                                    BRANCH_REMOVE, node=node,
                                    detail="aged out")
            if not state.in_tree:
                emptied.append(channel)
        for channel in emptied:
            del self.states[channel]
        self._schedule_housekeeping()

    # ------------------------------------------------------------------
    # Packet processing
    # ------------------------------------------------------------------
    def intercept(self, packet: Packet, arrived_from: Optional[NodeId]) -> bool:
        payload = packet.payload
        now = self.node.network.simulator.now
        causal = self.node.network.causal
        if isinstance(payload, JoinMessage):
            self._count_rule_event("join", payload.channel, now)
            state = self._state(payload.channel)
            traced = causal.enabled and packet.span_id is not None
            actions = process_join(
                state, payload, self.node.address, now, self.timing,
                on_spt=self._on_spt(payload),
            )
            consumed = self._apply(payload.channel, actions, packet)
            if traced and consumed:
                # Rule 3: the joiner's entry was refreshed here.
                causal.effect(packet.span_id, self.node.node_id, "mft",
                              payload.joiner, "refresh-join", now)
                causal.finish(
                    packet.span_id,
                    f"intercepted by {self.node.node_id} (join rule 3)",
                )
            return consumed
        if isinstance(payload, TreeMessage):
            self._count_rule_event("tree", payload.channel, now)
            state = self._state(payload.channel)
            timeline = self.node.network.timeline
            traced = causal.enabled and packet.span_id is not None
            watched = timeline.enabled
            if traced or watched:
                before = self._tree_facts(state, payload.target)
            actions = process_tree(
                state, payload, self.node.address, now, self.timing,
                arrived_from=arrived_from,
            )
            consumed = self._apply(payload.channel, actions, packet)
            if traced:
                self._tree_trace(packet, state, payload.target, before,
                                 consumed, now)
            if watched:
                self._tree_timeline(timeline, state, payload, before, now)
            return consumed
        if isinstance(payload, FusionMessage):
            self._count_rule_event("fusion", payload.channel, now)
            state = self._state(payload.channel)
            timeline = self.node.network.timeline
            traced = causal.enabled and packet.span_id is not None
            watched = timeline.enabled
            if traced or watched:
                mft = state.mft
                marked = [] if mft is None else \
                    [r for r in payload.receivers if r in mft]
                adopted = mft is not None and payload.sender not in mft
            if watched:
                # Mark *transitions* only — a re-confirming fusion is
                # refresh noise, not a structural change.
                fresh_marks = [] if state.mft is None else [
                    r for r in payload.receivers
                    if (entry := state.mft.get(r)) is not None
                    and not entry.is_marked(now, self.timing)
                ]
            actions = process_fusion(state, payload, now,
                                     arrived_from=arrived_from)
            consumed = self._apply(payload.channel, actions, packet)
            if watched and consumed:
                channel_text = str(payload.channel)
                for receiver in fresh_marks:
                    timeline.record(now, "hbh", channel_text, ENTRY_MARK,
                                    node=self.node.node_id,
                                    detail=f"mft {receiver} marked")
                if adopted:
                    timeline.record(now, "hbh", channel_text, ENTRY_ADD,
                                    node=self.node.node_id,
                                    detail=f"mft {payload.sender} adopted")
            if traced and consumed:
                for receiver in marked:
                    causal.effect(packet.span_id, self.node.node_id,
                                  "mft", receiver, "mark", now)
                causal.effect(packet.span_id, self.node.node_id, "mft",
                              payload.sender,
                              "adopt" if adopted else "keep-alive", now)
                causal.finish(
                    packet.span_id,
                    f"intercepted by {self.node.node_id} "
                    f"(fusion: marked {marked}, "
                    f"{'adopted' if adopted else 'kept'} {payload.sender})",
                )
            if not consumed:
                return self._relay_fusion_upstream(state, packet,
                                                   arrived_from)
            return consumed
        if isinstance(payload, DataPayload) and packet.dst == self.node.address:
            return self._branch_data(packet, payload, now)
        return False

    def _on_spt(self, message: JoinMessage) -> Optional[bool]:
        """Is this router on a unicast shortest path from the channel
        source to the joiner?  Join rule 3's branching-node premise,
        answered from the routing substrate the way a link-state router
        would answer it from its LSDB.  Unknown endpoints (a crashed or
        detached router mid-fault) count as off-path: the join passes
        through and the stranded state ages out."""
        network = self.node.network
        routing = network.routing
        try:
            source = network.node_of(message.channel.source).node_id
            joiner = network.node_of(message.joiner).node_id
            here = self.node.node_id
            return (
                routing.distance(source, here)
                + routing.distance(here, joiner)
                == routing.distance(source, joiner)
            )
        except (RoutingError, SimulationError):
            return False

    def _tree_facts(self, state: HbhChannelState, target):
        """Cheap before-facts for causal effect inference (mirrors the
        static driver's ``_tree_facts``)."""
        mct = state.mct
        return (
            state.mft is not None,
            state.mft is not None and target in state.mft,
            None if mct is None else mct.entry.address,
        )

    def _tree_trace(self, packet: Packet, state: HbhChannelState,
                    target, before, consumed: bool, now: float) -> None:
        """Record what one tree-rule application did to this router's
        tables, and close the span if the message ended here."""
        causal = self.node.network.causal
        span_id = packet.span_id
        node = self.node.node_id
        had_mft, had_entry, mct_addr = before
        if target == self.node.address:
            if consumed:
                causal.finish(
                    span_id,
                    f"delivered to branching node {node} (tree rule 1)"
                    if had_mft else f"reached {node}",
                )
            return
        if had_mft:
            causal.effect(span_id, node, "mft", target,
                          "refresh-tree" if had_entry else "add", now)
        elif state.mft is not None:
            # rule 8: this router just promoted itself to branching.
            causal.effect(span_id, node, "mct", mct_addr, "promote", now)
            for entry in state.mft:
                causal.effect(span_id, node, "mft", entry.address, "add",
                              now)
        elif state.mct is not None:
            if mct_addr is None:  # rule 4
                causal.effect(span_id, node, "mct", target, "add", now)
            elif mct_addr == target:  # rules 5, 6
                causal.effect(span_id, node, "mct", target,
                              "refresh-tree", now)
            elif state.mct.entry.address == target:  # rule 7
                causal.effect(span_id, node, "mct", target, "replace", now)

    def _tree_timeline(self, timeline, state: HbhChannelState, payload,
                       before, now: float) -> None:
        """Emit tree-dynamics events for one tree-rule application
        (the structural subset of :meth:`_tree_trace`: refreshes are
        not structure)."""
        target = payload.target
        if target == self.node.address:
            return
        node = self.node.node_id
        channel = str(payload.channel)
        had_mft, had_entry, mct_addr = before
        if had_mft:
            if not had_entry:
                timeline.record(now, "hbh", channel, ENTRY_ADD, node=node,
                                detail=f"mft {target}")
        elif state.mft is not None:
            # rule 8: this router just promoted itself to branching.
            timeline.record(now, "hbh", channel, BRANCH_ADD, node=node,
                            detail=f"promoted (mct {mct_addr})")
            for entry in state.mft:
                timeline.record(now, "hbh", channel, ENTRY_ADD, node=node,
                                detail=f"mft {entry.address}")
        elif state.mct is not None:
            if mct_addr is None:  # rule 4: node newly on the tree
                timeline.record(now, "hbh", channel, ENTRY_ADD, node=node,
                                detail=f"mct {target}")
            elif mct_addr != target and state.mct.entry.address == target:
                # rule 7: the cached tree address changed — the node's
                # path through the tree moved (the paper's re-route).
                timeline.record(now, "hbh", channel, REROUTE, node=node,
                                detail=f"mct {mct_addr} -> {target}")

    def _relay_fusion_upstream(self, state: HbhChannelState, packet: Packet,
                               arrived_from) -> bool:
        """Relay a non-intercepted fusion up the *tree*: out of the
        upstream interface learned from tree-message arrivals.  This is
        what lets a fusion find the data-plane parent even when the
        unicast reverse route toward the source would miss it.  Off the
        tree (or if the hop would bounce straight back), fall through
        to plain unicast forwarding toward the source."""
        upstream = state.upstream
        if upstream is None or upstream == arrived_from:
            return False
        if upstream not in self.node.links:
            return False  # stale upstream hint: unicast fallback
        self.node.send_via(upstream, packet)
        return True

    def _branch_data(self, packet: Packet, payload: DataPayload,
                     now: float) -> bool:
        """Recursive-unicast branching: consume data addressed to this
        node and emit one modified copy per data-eligible MFT entry."""
        state = self.states.get(payload.channel)
        if state is None or state.mft is None:
            return False  # not a branching node: let a local receiver claim it
        causal = self.node.network.causal
        traced = causal.enabled and packet.span_id is not None
        copies = 0
        for target in state.mft.data_targets(now, self.timing):
            if target == self.node.address:
                continue
            copy = packet.readdressed(target)
            if traced:
                child = causal.begin(DATA, self.node.node_id, now,
                                     str(payload.channel),
                                     parent=packet.span_id, target=target)
                copy = copy.with_span(child)
            copies += 1
            self.node.emit(copy)
        if traced:
            causal.finish(
                packet.span_id,
                f"branched into {copies} copies at {self.node.node_id}",
            )
        return True

    # ------------------------------------------------------------------
    # Action execution
    # ------------------------------------------------------------------
    def _apply(self, channel: Channel, actions: List[Action],
               packet: Packet) -> bool:
        consumed = False
        causal = self.node.network.causal
        traced = causal.enabled and packet.span_id is not None
        now = self.node.network.simulator.now if traced else 0.0
        for action in actions:
            if isinstance(action, Forward):
                continue  # node.receive falls through to unicast forwarding
            if isinstance(action, Consume):
                consumed = True
            elif isinstance(action, OriginateJoin):
                trace_id = span_id = None
                if traced:
                    child = causal.begin(
                        JOIN, self.node.node_id, now, str(channel),
                        parent=packet.span_id, target=action.joiner,
                    )
                    trace_id, span_id = child.trace_id, child.span_id
                self.node.emit(Packet(
                    src=self.node.address,
                    dst=channel.source,
                    payload=JoinMessage(channel, action.joiner,
                                        trace_id=trace_id, span_id=span_id),
                    trace_id=trace_id, span_id=span_id,
                ))
            elif isinstance(action, OriginateTree):
                if action.target == self.node.address:
                    continue
                trace_id = span_id = None
                if traced:
                    child = causal.begin(
                        TREE, self.node.node_id, now, str(channel),
                        parent=packet.span_id, target=action.target,
                    )
                    trace_id, span_id = child.trace_id, child.span_id
                self.node.emit(Packet(
                    src=self.node.address,
                    dst=action.target,
                    payload=TreeMessage(channel, action.target,
                                        trace_id=trace_id, span_id=span_id),
                    trace_id=trace_id, span_id=span_id,
                ))
            elif isinstance(action, OriginateFusion):
                trace_id = span_id = None
                if traced:
                    child = causal.begin(
                        FUSION, self.node.node_id, now, str(channel),
                        parent=packet.span_id, target=action.receivers,
                    )
                    trace_id, span_id = child.trace_id, child.span_id
                fusion_packet = Packet(
                    src=self.node.address,
                    dst=channel.source,
                    payload=FusionMessage(
                        channel, action.receivers, sender=self.node.address,
                        trace_id=trace_id, span_id=span_id,
                    ),
                    trace_id=trace_id, span_id=span_id,
                )
                upstream = self.states[channel].upstream
                if upstream is not None and upstream in self.node.links:
                    # Fusions climb the tree, not the unicast route.
                    self.node.send_via(upstream, fusion_packet)
                else:
                    self.node.emit(fusion_packet)
            else:  # pragma: no cover - exhaustive
                raise ProtocolError(f"unknown action {action!r}")
        return consumed

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _state(self, channel: Channel) -> HbhChannelState:
        state = self.states.get(channel)
        if state is None:
            state = HbhChannelState()
            self.states[channel] = state
        return state

    def _count_rule_event(self, message: str, channel: Channel,
                          now: float) -> None:
        """Tally one processed control message into the network's
        metrics registry — the event-driven analogue of the static
        driver's ``messages_processed`` counter — and into the
        timeline's windowed control-load series when enabled."""
        network = self.node.network
        counter = self._rule_events.get(message)
        if counter is None:
            # Resolved once: registry.inc() would build and sort the
            # label key on every control message.
            counter = self._rule_events[message] = network.metrics.counter(
                "control.rule_events", protocol="hbh", message=message
            )
        counter.value += 1.0
        timeline = network.timeline
        if timeline.enabled:
            timeline.control(now, "hbh", str(channel))
