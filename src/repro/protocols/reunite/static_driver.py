"""Round-based REUNITE driver (the HBH static driver's sibling on the
shared :class:`~repro.core.round_driver.RoundDriver`).

One round = one protocol period: every receiver's periodic join walks
toward the source under the interception rules; the source then emits
its periodic tree messages (marked for a stale dst), which branching
nodes regenerate per fresh receiver; finally soft state ages.  The
asymmetric-routing pathologies of paper Figs. 2-3 emerge naturally from
these rules — nothing is special-cased.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Hashable, List, Optional, Set, Tuple

from repro.core.round_driver import MAX_CASCADE, RoundDriver
from repro.core.rules import CONSUME_ONLY, FORWARD_ONLY, Consume, Forward
from repro.errors import ProtocolError
from repro.metrics.distribution import DataDistribution
from repro.obs.causal import DATA, TREE, Span
from repro.obs.profiling import profiled
from repro.protocols.reunite.messages import ReuniteJoin, ReuniteTree
from repro.protocols.reunite.rules import (
    RegenerateTree,
    process_join,
    process_join_at_source,
    process_tree,
)
from repro.protocols.reunite.tables import ReuniteMft, ReuniteState

NodeId = Hashable


class StaticReunite(RoundDriver):
    """One REUNITE conversation driven round-by-round to convergence.

    Unlike HBH, REUNITE has no first-join exemption: a receiver's
    first join may be intercepted anywhere in the existing tree (the
    root of the Fig. 2 problem), and a leaving receiver's upstream
    state decays while marked tree messages reconfigure the branch
    (Fig. 2(b-d)).
    """

    protocol = "reunite"
    unit = "conversation"
    state_cls = ReuniteState
    join_cls = ReuniteJoin

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.source_state = ReuniteState()
        #: One tree message per ``(target, marked)``, built once: the
        #: cascade re-emits the same frozen messages every round
        #: (traced walks stamp a copy with their span).
        self._tree_messages: Dict[Tuple[NodeId, bool], ReuniteTree] = {}

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def _snapshot(self, expire: bool = False) -> Tuple:
        """A hashable structural view of all channel state, source
        first (see :meth:`RoundDriver._snapshot`).

        Runs at every round boundary, so the stale flags are computed
        inline — the predicate of :meth:`ReuniteEntry.is_stale` —
        instead of one method call per entry.
        """
        now, timing = self.now, self.timing
        t1 = timing.t1
        items: List[Tuple] = []
        append = items.append

        def emit(node: NodeId, state: ReuniteState) -> None:
            mct = state.mct
            if mct is not None:
                for entry in mct:
                    append((node, "mct", entry.address,
                            entry.forced_stale
                            or (now - entry.refreshed_at) >= t1))
            mft = state.mft
            if mft is not None:
                dst = mft.dst
                if dst is None:
                    append((node, "dst", None, True))
                else:
                    append((node, "dst", dst.address,
                            dst.forced_stale
                            or (now - dst.refreshed_at) >= t1))
                for entry in mft.receivers():
                    append((node, "mft", entry.address,
                            entry.forced_stale
                            or (now - entry.refreshed_at) >= t1))

        source_state = self.source_state
        if expire:
            source_state.expire(now, timing)
            source_mft = source_state.mft
            if source_mft is not None and source_mft.dst is None:
                # Fig. 2(d): the source re-anchors data on the oldest
                # fresh receiver once the old dst entry dies.
                source_mft.promote_receiver_to_dst(now, timing)
                if source_mft.empty:
                    source_state.mft = None
        emit(self.source, source_state)
        states = self.states
        for node in sorted(states):
            state = states[node]
            if expire:
                state.expire(now, timing)
                if not state.in_tree:
                    del states[node]
                    continue
            emit(node, state)
        return tuple(items)

    @staticmethod
    def _timeline_rows(snapshot: Tuple) -> Tuple[List[Tuple], List[Tuple]]:
        """Table rows; REUNITE has no fusion marks.  The dst anchor is
        its own table (a headless MFT has no dst row), so a Fig. 2(d)
        re-anchor shows up as the dst row moving."""
        rows = [item[:3] for item in snapshot if item[2] is not None]
        return rows, []

    def _source_table(self) -> Optional[ReuniteMft]:
        return self.source_state.mft

    # ------------------------------------------------------------------
    # Message walks
    # ------------------------------------------------------------------
    def _walk_join(self, origin: NodeId, message: ReuniteJoin,
                   span: Optional[Span] = None) -> None:
        self.messages_processed += 1
        now, timing = self.now, self.timing
        source = self.source
        states = self.states
        for current in self._hops(origin, source):
            if span is not None:
                span.hops.append(current)
            if current == source:
                if span is not None:
                    before = self._join_facts(self.source_state, message)
                process_join_at_source(self.source_state, message, now,
                                       timing)
                if span is not None:
                    self._join_effects(span, source, self.source_state,
                                       message, before, at_source=True)
                return
            if not self._applies_rules(current):
                continue
            state = states.get(current)
            if state is None:
                continue  # no MFT or MCT here, so the join passes
            if span is not None:
                before = self._join_facts(state, message)
            actions = process_join(state, message, now, timing)
            if actions is FORWARD_ONLY:
                continue
            if actions is not CONSUME_ONLY:  # pragma: no cover
                raise ProtocolError(f"unexpected join actions {actions!r}")
            if span is not None:
                self._join_effects(span, current, state, message, before,
                                   at_source=False)
            return

    def _join_facts(self, state, message: ReuniteJoin) -> Tuple[bool, bool]:
        """(joiner already known, node already branching) before the
        join rules ran — enough to name what the interception did."""
        mft = state.mft
        known = (
            mft is not None
            and (mft.get_receiver(message.joiner) is not None
                 or (mft.dst is not None
                     and mft.dst.address == message.joiner))
        )
        return known, mft is not None

    def _join_effects(self, span: Span, node: NodeId, state,
                      message: ReuniteJoin, before: Tuple[bool, bool],
                      at_source: bool) -> None:
        """Record what a consumed REUNITE join did to the node's MFT."""
        known, was_branching = before
        causal = self.causal
        now = self.now
        table = "mft"
        if known:
            causal.effect(span, node, table, message.joiner,
                          "refresh-join", now)
            what = f"refreshed {message.joiner}"
        elif was_branching or at_source:
            causal.effect(span, node, table, message.joiner, "add", now)
            what = f"added {message.joiner}"
        else:
            # An MCT node promoted itself to branching (dst = the old
            # MCT receiver, the joiner added alongside).
            mft = state.mft
            if mft is not None and mft.dst is not None:
                causal.effect(span, node, table, mft.dst.address,
                              "promote-dst", now)
            causal.effect(span, node, table, message.joiner, "add", now)
            what = f"promoted to branching node, added {message.joiner}"
        where = "reached source" if at_source else f"intercepted by {node}"
        causal.finish(span, f"{where} ({what})")

    def _tree_phase(self) -> None:
        queue: Deque[Tuple[NodeId, ReuniteTree, Optional[Span]]] = deque()
        # A node regenerates tree(S, rj) once per period in the real
        # protocol; dedupe per round so pathological mutual-dst state
        # (possible under asymmetric routing) cannot make the cascade
        # unbounded — the loop then resolves through soft state.
        emitted: Set[Tuple[NodeId, NodeId, bool]] = set()
        channel = self.channel
        tree_messages = self._tree_messages

        def enqueue(origin: NodeId, target: NodeId, marked: bool = False,
                    parent: Optional[Span] = None) -> None:
            key = (origin, target, marked)
            if key not in emitted:
                emitted.add(key)
                message = tree_messages.get((target, marked))
                if message is None:
                    message = tree_messages[(target, marked)] = \
                        ReuniteTree(channel, target, marked=marked)
                queue.append((origin, message, parent))

        mft = self.source_state.mft
        if mft is None:
            return
        now, timing = self.now, self.timing
        if mft.dst is not None:
            enqueue(self.source, mft.dst.address,
                    mft.dst.is_stale(now, timing))
        for entry in mft.fresh_receivers(now, timing):
            enqueue(self.source, entry.address)
        causal = self.causal
        tracing = causal is not None and causal.enabled
        round_trace = (
            f"{self.channel_name}/round{self.round_no}.tree" if tracing
            else None
        )
        steps = 0
        while queue:
            steps += 1
            if steps > MAX_CASCADE:  # pragma: no cover - safety valve
                raise ProtocolError("REUNITE tree cascade did not terminate")
            origin, message, parent = queue.popleft()
            span: Optional[Span] = None
            if tracing:
                span = causal.begin(
                    TREE, origin, self.now, self.channel_name,
                    trace_id=round_trace if parent is None else None,
                    parent=parent, target=message.target,
                )
                message = self._stamp(message, span)
            self._walk_tree(origin, message, enqueue, span)

    def _walk_tree(self, origin: NodeId, message: ReuniteTree,
                   enqueue: Callable,
                   span: Optional[Span] = None) -> None:
        self.messages_processed += 1
        now, timing = self.now, self.timing
        target_node = message.target
        for current in self._hops(origin, target_node):
            if span is not None:
                span.hops.append(current)
            if current == target_node:
                if span is not None:
                    self.causal.finish(span, f"reached {target_node}")
                return  # consumed by the receiver (or its leaf node)
            if not self._applies_rules(current):
                continue
            state = self._state_at(current)
            if span is not None:
                before = self._tree_facts(state, message)
            actions = process_tree(state, message, now, timing)
            if span is not None:
                self._tree_effects(span, current, state, message, before)
            if actions is FORWARD_ONLY:
                continue
            consumed = False
            for action in actions:
                cls = action.__class__
                if cls is Consume:
                    consumed = True
                elif cls is RegenerateTree:
                    if action.target != current:
                        enqueue(current, action.target, action.marked, span)
                elif cls is not Forward:  # pragma: no cover
                    raise ProtocolError(f"unexpected tree action {action!r}")
            if consumed:
                if span is not None:
                    self.causal.finish(span, f"consumed by {current}")
                return
        if span is not None and not span.finished:
            self.causal.finish(span, f"reached {target_node}")

    def _tree_facts(self, state,
                    message: ReuniteTree) -> Tuple[bool, bool]:
        """(target is this node's MFT.dst, target held an MCT entry)
        before the tree rules ran."""
        mft = state.mft
        is_dst = (mft is not None and mft.dst is not None
                  and mft.dst.address == message.target)
        had_mct = (state.mct is not None
                   and state.mct.get(message.target) is not None)
        return is_dst, had_mct

    def _tree_effects(self, span: Span, node: NodeId, state,
                      message: ReuniteTree,
                      before: Tuple[bool, bool]) -> None:
        """Record what one REUNITE tree-rule application mutated."""
        is_dst, had_mct = before
        causal = self.causal
        now = self.now
        target = message.target
        if is_dst:
            causal.effect(span, node, "mft", target,
                          "make-stale" if message.marked else "refresh-tree",
                          now)
        elif state.mft is not None:
            pass  # transit through a branching node: no mutation
        elif message.marked:
            if had_mct:
                causal.effect(span, node, "mct", target, "remove", now)
        else:
            causal.effect(span, node, "mct", target,
                          "refresh-tree" if had_mct else "add", now)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    @profiled("reunite.distribute_data")
    def distribute_data(self) -> DataDistribution:
        """One data packet: the source addresses the original to
        ``MFT.dst`` and one modified copy to every other receiver in
        its MFT; each branching node below does the same when the
        original (addressed to *its* dst) passes through."""
        distribution = DataDistribution(expected=set(self.receivers))
        mft = self.source_state.mft
        if mft is None:
            return distribution
        now, timing = self.now, self.timing
        expanded: Set[Tuple[NodeId, NodeId]] = set()
        root = self._span(DATA, self.source)
        targets: List[NodeId] = []
        if mft.dst is not None:
            targets.append(mft.dst.address)
        targets.extend(e.address for e in mft.live_receivers(now, timing))
        for target in targets:
            child = self._span(DATA, self.source, target=target, parent=root)
            self._walk_data(self.source, target, 0.0, distribution,
                            expanded, child)
        if root is not None:
            self.causal.finish(root, f"data fan-out from {self.source}")
        return distribution

    def _walk_data(self, origin: NodeId, target: NodeId, elapsed: float,
                   distribution: DataDistribution,
                   expanded: Set[Tuple[NodeId, NodeId]],
                   span: Optional[Span] = None) -> None:
        now, timing = self.now, self.timing
        copies = 0
        current = origin
        for nxt in self._hops(origin, target):
            cost = self.topology.cost(current, nxt)
            distribution.record_hop(current, nxt, cost)
            elapsed += cost
            current = nxt
            if span is not None:
                span.hops.append(current)
            if current == target:
                break
            state = self.states.get(current)
            if state is None or state.mft is None:
                continue
            mft = state.mft
            if mft.dst is not None and mft.dst.address == target:
                # The original passes its branching node: one modified
                # copy per live receiver (the original continues).  A
                # (node, target) pair duplicates once per packet — a
                # pathological mutual-dst loop would otherwise recurse
                # forever where a real packet just dies by TTL.
                if (current, target) in expanded:
                    continue
                expanded.add((current, target))
                for entry in mft.live_receivers(now, timing):
                    child = self._span(DATA, current, target=entry.address,
                                       parent=span)
                    copies += 1
                    self._walk_data(current, entry.address, elapsed,
                                    distribution, expanded, child)
        delivered = current in self.receivers
        if delivered:
            distribution.record_delivery(current, elapsed)
        if span is not None:
            parts = []
            if delivered:
                parts.append(f"delivered to {current} (delay {elapsed:g})")
            if copies:
                parts.append(f"branched into {copies} copies en route")
            self.causal.finish(
                span, "; ".join(parts) or f"terminated at {current}"
            )
