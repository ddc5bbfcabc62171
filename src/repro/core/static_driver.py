"""Round-based ("static") HBH driver.

The Monte-Carlo sweeps of Section 4 need thousands of converged trees;
running the full packet-level simulator for each would dominate wall
clock without changing the outcome (the paper's scenarios have static
membership).  This driver executes the *same* Appendix-A rules
(:mod:`repro.core.rules`) synchronously, one protocol period per round:

1. every receiver emits its periodic ``join`` (walked along its unicast
   route toward the source, applying the join rules at each HBH router);
2. the source emits ``tree`` messages for its non-stale MFT entries;
   tree messages walk forward unicast routes, applying the tree rules,
   cascading regenerated trees and ``fusion`` messages to a fixpoint
   within the round;
3. soft state ages: entries missing refreshes go stale (t1) and are
   destroyed (t2), with one round = one refresh period.

The round loop, membership and convergence live in
:class:`~repro.core.round_driver.RoundDriver`, shared with the REUNITE
driver; this module supplies HBH's walks, tables and data plane.
Each walk follows a plan of its route, so the transparent unicast hops
cost nothing; a traced walk is the same walk, recording on its causal
span.  ``converge()`` repeats rounds until the table state stops
changing.
``distribute_data()`` then injects one data packet and records every
link crossing and receiver delay — the measurement the paper's figures
are built from.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Hashable, List, Optional, Set, Tuple, Union

from repro.core.messages import FusionMessage, JoinMessage, TreeMessage
from repro.core.round_driver import MAX_CASCADE, RoundDriver
from repro.core.rules import (
    FORWARD_ONLY,
    Consume,
    Forward,
    OriginateFusion,
    OriginateTree,
    process_fusion,
    process_fusion_at_source,
    process_join,
    process_join_at_source,
    process_tree,
)
from repro.core.tables import HbhChannelState, Mft
from repro.errors import ProtocolError, RoutingError
from repro.metrics.distribution import DataDistribution
from repro.obs.causal import DATA, FUSION, JOIN, TREE, Span
from repro.obs.profiling import profiled

NodeId = Hashable
#: A walk plan, ``(path, steps, deps)``: see :attr:`StaticHbh._join_plans`.
Plan = Tuple[Tuple, Tuple[Tuple, ...], Tuple[Tuple[NodeId, Optional[int]], ...]]

#: Sentinel for "origin generation not queried yet" during plan
#: revalidation (``None`` is a legitimate answer: origin not cached).
_UNKNOWN = object()


class StaticHbh(RoundDriver):
    """One HBH channel driven round-by-round to convergence."""

    protocol = "hbh"
    unit = "channel"
    state_cls = HbhChannelState
    join_cls = JoinMessage

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.source_mft = Mft()
        #: Walk plans, one per route a message walks: ``(path, steps,
        #: deps)`` with the routing view's memoized hop tuple, one
        #: ``(node, verdict, index)`` step per rule-applying hop (its
        #: on-SPT verdict for a join, its full-path predecessor for a
        #: tree, and its index in ``path``), and the ``(origin,
        #: generation)`` pairs of every table the plan consulted.  The
        #: walks skip the transparent unicast hops entirely; a traced
        #: walk reads them back from ``path``.
        self._join_plans: Dict[NodeId, Plan] = {}
        self._tree_plans: Dict[Tuple[NodeId, NodeId], Plan] = {}
        #: The routing generation the plans were last revalidated
        #: against (:meth:`_sync_plans`).
        self._plan_generation: Optional[int] = None
        #: Control messages are frozen dataclasses and the walks re-emit
        #: identical ones every round, so each is built once (no
        #: generation dependency; messages carry no routing facts):
        #: tree messages per target, fusions per ``send_fusion`` dedup
        #: key.  Joins share :attr:`_join_messages`.  Traced walks stamp
        #: a copy with their span.
        self._tree_messages: Dict[NodeId, TreeMessage] = {}
        self._fusion_messages: Dict[Tuple, FusionMessage] = {}

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def _snapshot(self, expire: bool = False) -> Tuple:
        """A hashable structural view of all channel state (see
        :meth:`RoundDriver._snapshot`).

        Runs at every round boundary, so the entry flags are computed
        inline — same predicates as :meth:`MftEntry.is_marked` /
        ``is_stale`` — instead of two method calls per entry.
        """
        now, timing = self.now, self.timing
        t1 = timing.t1
        items: List[Tuple] = []
        append = items.append
        states = self.states
        for node in sorted(states):
            state = states[node]
            if expire:
                state.expire(now, timing)
                if not state.in_tree:
                    del states[node]
                    continue
            mct = state.mct
            if mct is not None:
                append((node, "mct", mct.entry.address,
                        mct.is_stale(now, timing)))
            mft = state.mft
            if mft is not None:
                for entry in mft.entries():
                    marked_at = entry.marked_at
                    append((node, "mft", entry.address,
                            marked_at is not None and (now - marked_at) < t1,
                            entry.forced_stale
                            or (now - entry.refreshed_at) >= t1))
        source = self.source
        source_mft = self.source_mft
        if expire:
            source_mft.expire(now, timing)
        for entry in source_mft.entries():
            marked_at = entry.marked_at
            append((source, "src", entry.address,
                    marked_at is not None and (now - marked_at) < t1,
                    entry.forced_stale or (now - entry.refreshed_at) >= t1))
        return tuple(items)

    @staticmethod
    def _timeline_rows(snapshot: Tuple) -> Tuple[List[Tuple], List[Tuple]]:
        """Table rows plus the fusion-marked subset.  The mark flag is
        the snapshot's (an MFT or source row's fourth field), so an
        expired mark is a fusion change."""
        rows: List[Tuple] = []
        marks: List[Tuple] = []
        for item in snapshot:
            row = item[:3]
            rows.append(row)
            if item[1] != "mct" and item[3]:
                marks.append(row)
        return rows, marks

    def _source_table(self) -> Mft:
        return self.source_mft

    # ------------------------------------------------------------------
    # Walk plans (memoized per routing generation)
    # ------------------------------------------------------------------
    def _sync_plans(self) -> None:
        """Bring the walk plans up to the current routing generation:
        when it has moved, drop exactly the plans whose recorded
        ``(origin, generation)`` dependencies changed.  Each origin is
        queried once (the query triggers its lazy repair, so a clean
        origin costs one repaired no-op and its plans survive)."""
        routing = self.routing
        generation = routing.generation
        if generation == self._plan_generation:
            return
        self._plan_generation = generation
        origin_gen = routing.origin_generation
        fresh: Dict[NodeId, Optional[int]] = {}

        def moved(deps) -> bool:
            for node, gen in deps:
                current = fresh.get(node, _UNKNOWN)
                if current is _UNKNOWN:
                    current = fresh[node] = origin_gen(node)
                if gen is None or current != gen:
                    return True
            return False

        for plans in (self._join_plans, self._tree_plans):
            for key in [key for key, plan in plans.items() if moved(plan[2])]:
                del plans[key]

    def _route_deps(self, nodes) -> Tuple[Tuple[NodeId, Optional[int]], ...]:
        """``(origin, generation)`` pairs for the tables a just-built
        plan consulted (the distinct nodes of a loop-free route; all
        built and synced, so each query is one integer compare)."""
        origin_gen = self.routing.origin_generation
        return tuple((node, origin_gen(node)) for node in nodes)

    def _join_plan(self, origin: NodeId) -> Plan:
        """Plan the join route ``origin -> source``.

        Every walked join has ``joiner == origin`` (periodic joins
        start at the receiver; rule-3 re-originations carry the
        interceptor's own address), so each step's verdict for join
        rule 3 — does the hop lie on a unicast shortest path from the
        source to the joiner? (a branching node serves receivers on
        forward shortest paths) — is a function of the origin alone.
        Unreachable endpoints, e.g. mid-fault, count as off-path.
        """
        routing = self.routing
        source = self.source
        applies = self._applies_rules
        path = routing.path_tuple(origin, source)
        steps = []
        for index in range(1, len(path)):
            hop = path[index]
            if applies(hop):
                try:
                    on_spt = (
                        routing.distance(source, hop)
                        + routing.distance(hop, origin)
                        == routing.distance(source, origin)
                    )
                except RoutingError:
                    on_spt = False
                steps.append((hop, on_spt, index))
        plan = self._join_plans[origin] = \
            (path, tuple(steps), self._route_deps(path))
        return plan

    def _tree_plan(self, origin: NodeId, target: NodeId) -> Plan:
        """Plan the tree route ``origin -> target``: each rule-applying
        hop with its full-path predecessor, the ``arrived_from`` (the
        upstream interface) the tree rules record."""
        path = self.routing.path_tuple(origin, target)
        applies = self._applies_rules
        steps = tuple((path[index], path[index - 1], index)
                      for index in range(1, len(path))
                      if applies(path[index]))
        # The walk consults the tables of every hop except the final
        # target (the last next_hop decision happens one node earlier).
        plan = self._tree_plans[(origin, target)] = \
            (path, steps, self._route_deps(path[:-1]))
        return plan

    # ------------------------------------------------------------------
    # Message walks (over unicast routes, one plan step per HBH router)
    # ------------------------------------------------------------------
    def _walk_join(self, origin: NodeId, message: JoinMessage,
                   span: Optional[Span] = None) -> None:
        """Walk a join from ``origin`` toward the source, applying the
        join rules at every HBH router until interception or arrival.

        The walk follows the origin's plan; a traced walk also records
        every hop, table effect and outcome on ``span``.  Rule-3
        re-originations are walked in the same loop (an interception
        stops the outer walk, so at most one nested join is ever
        pending); the intercepted joins' spans are finished afterwards,
        innermost first — the recursive order, in which the flight
        recorder logs them.
        """
        self._sync_plans()
        now = float(self.round_no)
        timing = self.timing
        states = self.states
        join_plans = self._join_plans
        join_messages = self._join_messages
        causal = self.causal
        intercepted: List[Tuple[Span, NodeId]] = []
        walk: Optional[Tuple] = (origin, message, span)
        while walk is not None:
            origin, message, span = walk
            walk = None
            self.messages_processed += 1
            path, steps, _ = join_plans.get(origin) or self._join_plan(origin)
            for current, on_spt, index in steps:
                state = states.get(current)
                if state is None:
                    continue  # rule 1: no MFT here, so the join passes
                actions = process_join(state, message, current, now,
                                       timing, on_spt=on_spt)
                if actions is FORWARD_ONLY:
                    continue
                if actions is not state.intercept:  # pragma: no cover
                    raise ProtocolError(f"unexpected join actions {actions!r}")
                # Rule 3: the interceptor refreshed the joiner's entry,
                # consumed the join and joins the channel itself upstream.
                nested = join_messages.get(current)
                if nested is None:
                    nested = join_messages[current] = \
                        JoinMessage(self.channel, current)
                child = None
                if span is not None:
                    causal.effect(span, current, "mft", message.joiner,
                                  "refresh-join", now)
                    child = self._span(JOIN, current, target=current,
                                       parent=span)
                    nested = self._stamp(nested, child)
                    span.hops.extend(path[1:index + 1])
                    intercepted.append((span, current))
                walk = (current, nested, child)
                break
            else:
                source_mft = self.source_mft
                if span is not None:
                    joiner = message.joiner
                    existed = joiner in source_mft
                process_join_at_source(source_mft, message, now)
                if span is not None:
                    span.hops.extend(path[1:])
                    causal.effect(span, self.source, "source-mft", joiner,
                                  "refresh-join" if existed else "add", now)
                    causal.finish(
                        span,
                        f"reached source (MFT entry {joiner} "
                        f"{'refreshed' if existed else 'added'})",
                    )
        while intercepted:
            span, node = intercepted.pop()
            causal.finish(span, f"intercepted by {node} (join rule 3)")

    def _tree_phase(self) -> None:
        """The source's periodic tree emission plus the full in-round
        cascade of regenerated tree and fusion messages.

        Each distinct message is walked at most once per round: the
        real protocol emits one ``tree(S, G, target)`` per refresh
        period, so replaying duplicates within one synchronous round
        would be an artifact.  This also guarantees the cascade
        terminates when a route flip leaves a transient table cycle
        (two nodes regenerating trees at each other) — the cycle is
        walked once and left to age out over subsequent rounds.
        Duplicates are dropped when sent, before a message is looked
        up; the queue is FIFO, so the first send of each message is the
        one walked, in the order it was sent.  Tree walks drop a
        repeated transit outcome before even that (see
        :meth:`_walk_tree`).
        """
        queue: Deque[
            Tuple[NodeId, Union[TreeMessage, FusionMessage], Optional[Span]]
        ] = deque()
        seen: Set[Tuple] = set()
        transits: Dict[NodeId, List] = {}
        channel = self.channel
        tree_messages = self._tree_messages
        fusion_messages = self._fusion_messages

        def send_tree(origin: NodeId, target: NodeId,
                      parent: Optional[Span]) -> None:
            key = ("tree", origin, target)
            if key not in seen:
                seen.add(key)
                message = tree_messages.get(target)
                if message is None:
                    message = tree_messages[target] = \
                        TreeMessage(channel, target)
                queue.append((origin, message, parent))

        def send_fusion(origin: NodeId, receivers: Tuple[NodeId, ...],
                        parent: Optional[Span]) -> None:
            key = ("fusion", origin, receivers)
            if key not in seen:
                seen.add(key)
                message = fusion_messages.get(key)
                if message is None:
                    message = fusion_messages[key] = \
                        FusionMessage(channel, receivers, sender=origin)
                queue.append((origin, message, parent))

        for target in self.source_mft.tree_targets(self.now, self.timing):
            send_tree(self.source, target, None)
        causal = self.causal
        tracing = causal is not None and causal.enabled
        #: All of one round's emission shares one trace: the origin
        #: event is "the source's periodic tree refresh of round N".
        round_trace = (
            f"{self.channel_name}/round{self.round_no}.tree" if tracing
            else None
        )
        steps = 0
        popleft = queue.popleft
        self._sync_plans()
        now = float(self.round_no)
        span = None
        while queue:
            steps += 1
            if steps > MAX_CASCADE:  # pragma: no cover - safety valve
                raise ProtocolError("tree/fusion cascade did not terminate")
            origin, message, parent = popleft()
            is_tree = message.__class__ is TreeMessage
            if tracing:
                # Only the source's own emissions have no parent span.
                span = causal.begin(
                    TREE if is_tree else FUSION, origin, now,
                    self.channel_name,
                    trace_id=round_trace if parent is None else None,
                    parent=parent,
                    target=message.target if is_tree else message.receivers,
                )
                message = self._stamp(message, span)
            if is_tree:
                self._walk_tree(origin, message, send_tree, send_fusion,
                                transits, now, span)
            else:
                self._walk_fusion(origin, message, span)

    def _walk_tree(self, origin: NodeId, message: TreeMessage,
                   send_tree: Callable, send_fusion: Callable,
                   transits: Dict[NodeId, List], now: float,
                   span: Optional[Span] = None) -> None:
        """Walk ``tree(S, target)`` from ``origin`` toward its target
        over the route's plan, applying the tree rules at every HBH
        router on the way; a traced walk also records every hop, table
        effect and outcome on ``span``.  Callers must have called
        :meth:`_sync_plans` this round.

        ``transits`` maps each node to the last transit outcome it sent
        this round.  A rule returns the same list object only while the
        node's MFT keeps its address set, so the fusion it asks for is
        one ``send_fusion`` already dropped as a duplicate: the walk
        skips the dispatch."""
        self.messages_processed += 1
        timing = self.timing
        states = self.states
        target_node = message.target
        path, steps, _ = (self._tree_plans.get((origin, target_node))
                          or self._tree_plan(origin, target_node))
        for current, arrived_from, index in steps:
            state = states.get(current)
            if state is None:
                state = states[current] = HbhChannelState()
            if span is not None:
                before = self._tree_facts(state, target_node)
            actions = process_tree(state, message, current, now,
                                   timing, arrived_from=arrived_from)
            if span is not None:
                self._tree_effects(span, current, state, target_node, before)
            if actions is FORWARD_ONLY:
                continue
            mft = state.mft
            if mft is not None and actions is mft.transit:
                if transits.get(current) is actions:
                    continue
                transits[current] = actions
            consumed = False
            for action in actions:
                cls = action.__class__
                if cls is Consume:
                    consumed = True
                elif cls is OriginateTree:
                    target = action.target
                    if target != current:
                        send_tree(current, target, span)
                elif cls is OriginateFusion:
                    send_fusion(current, action.receivers, span)
                elif cls is not Forward:  # pragma: no cover
                    raise ProtocolError(f"unexpected tree action {action!r}")
            if consumed:
                if span is not None:
                    span.hops.extend(path[1:index + 1])
                    outcome = f"reached {target_node}"
                    if before[0]:  # the target held an MFT: rule 1
                        regenerated = sum(isinstance(a, OriginateTree)
                                          for a in actions)
                        outcome = (f"delivered to branching node {current} "
                                   f"(tree rule 1: {regenerated} trees "
                                   f"regenerated)")
                    self.causal.finish(span, outcome)
                return
        if span is not None:
            span.hops.extend(path[1:])
            self.causal.finish(span, f"reached {target_node}")

    def _tree_facts(self, state: HbhChannelState,
                    target: NodeId) -> Tuple[bool, bool, Optional[NodeId]]:
        """Cheap before-facts from which :meth:`_tree_effects` infers
        which Appendix-A tree rule fired (the rules stay pure)."""
        mct = state.mct
        return (
            state.mft is not None,
            state.mft is not None and target in state.mft,
            None if mct is None else mct.entry.address,
        )

    def _tree_effects(self, span: Span, node: NodeId,
                      state: HbhChannelState, target: NodeId,
                      before: Tuple[bool, bool, Optional[NodeId]]) -> None:
        """Record the table mutations one tree-rule application made."""
        had_mft, had_entry, mct_addr = before
        causal = self.causal
        now = self.now
        if target == node:
            return  # rule 1 (or plain consume): regeneration only
        if had_mft:
            # rule 3 refreshes an existing entry, rule 2 adds a new one.
            causal.effect(span, node, "mft", target,
                          "refresh-tree" if had_entry else "add", now)
            return
        if state.mft is not None:
            # rule 8: the MCT promoted into an MFT (new branching node).
            causal.effect(span, node, "mct", mct_addr, "promote", now)
            for entry in state.mft:
                causal.effect(span, node, "mft", entry.address, "add", now)
            return
        if state.mct is None:
            return  # no mutation (shouldn't happen on this path)
        if mct_addr is None:  # rule 4
            causal.effect(span, node, "mct", target, "add", now)
        elif mct_addr == target:  # rules 5, 6
            causal.effect(span, node, "mct", target, "refresh-tree", now)
        elif state.mct.entry.address == target:  # rule 7
            causal.effect(span, node, "mct", target, "replace", now)

    def _fusion_next_hop(self, node: NodeId,
                         visited: Set[NodeId]) -> NodeId:
        """Where a fusion leaves ``node``: up the *tree* (the upstream
        interface learned from tree-message arrivals) when known — this
        is what makes the fusion find the data-plane parent even when
        the unicast reverse route toward S misses it — otherwise (off
        tree, unicast-only stretch, or a would-be loop) plain unicast
        toward the source."""
        state = self.states.get(node)
        if (
            state is not None
            and state.upstream is not None
            and state.upstream not in visited
            and self._applies_rules(node)
        ):
            return state.upstream
        return self.routing.next_hop(node, self.source)

    def _walk_fusion(
        self,
        origin: NodeId,
        message: FusionMessage,
        span: Optional[Span] = None,
    ) -> None:
        """Walk a fusion from ``origin`` upstream toward the source
        (tree-path first, unicast fallback), applying the fusion rules
        until interception."""
        self.messages_processed += 1
        now = float(self.round_no)
        source = self.source
        states = self.states
        current = origin
        visited: Set[NodeId] = {origin}
        while current != source:
            previous = current
            current = self._fusion_next_hop(current, visited)
            visited.add(current)
            if span is not None:
                span.hops.append(current)
            if current == source:
                if span is not None:
                    marked = [r for r in message.receivers
                              if r in self.source_mft]
                    adopted = message.sender not in self.source_mft
                process_fusion_at_source(self.source_mft, message, now)
                if span is not None:
                    self._fusion_effects(span, source, "source-mft",
                                         message.sender, marked, adopted)
                return
            if not self._applies_rules(current):
                continue
            state = states.get(current)
            if state is None:
                continue  # rule 1: no MFT here, so the fusion passes
            if span is not None:
                mft = state.mft
                marked = [] if mft is None else \
                    [r for r in message.receivers if r in mft]
                adopted = mft is not None and message.sender not in mft
            actions = process_fusion(
                state, message, now,
                arrived_from=previous,
            )
            if actions is FORWARD_ONLY:
                continue
            if any(isinstance(action, Consume) for action in actions):
                if span is not None:
                    self._fusion_effects(span, current, "mft",
                                         message.sender, marked, adopted)
                return

    def _fusion_effects(self, span: Span, node: NodeId, table: str,
                        sender: NodeId, marked: List[NodeId],
                        adopted: bool) -> None:
        """Record a fusion interception: marks plus sender adoption."""
        causal = self.causal
        now = self.now
        for receiver in marked:
            causal.effect(span, node, table, receiver, "mark", now)
        causal.effect(span, node, table, sender,
                      "adopt" if adopted else "keep-alive", now)
        where = ("reached source" if node == self.source
                 else f"intercepted by {node}")
        causal.finish(
            span,
            f"{where} (fusion: marked {marked}, "
            f"{'adopted' if adopted else 'kept'} {sender})",
        )

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    @profiled("hbh.distribute_data")
    def distribute_data(self) -> DataDistribution:
        """Inject one data packet at the source and record its journey.

        The source addresses one copy to every data-eligible MFT entry
        (stale entries included, marked ones skipped); each branching
        node consumes copies addressed to itself and re-emits per its
        own MFT — the recursive-unicast data plane of Section 2.2.
        """
        distribution = DataDistribution(expected=set(self.receivers))
        expanded: Set[NodeId] = set()
        root = self._span(DATA, self.source)
        for target in self.source_mft.data_targets(self.now, self.timing):
            child = self._span(DATA, self.source, target=target, parent=root)
            self._walk_data(self.source, target, 0.0, distribution,
                            expanded, child)
        if root is not None:
            self.causal.finish(
                root, f"data fan-out from {self.source}"
            )
        return distribution

    def _walk_data(
        self,
        origin: NodeId,
        target: NodeId,
        elapsed: float,
        distribution: DataDistribution,
        expanded: Set[NodeId],
        span: Optional[Span] = None,
    ) -> None:
        current = origin
        topology_cost = self.topology.cost
        for nxt in self._hops(origin, target):
            cost = topology_cost(current, nxt)
            distribution.record_hop(current, nxt, cost)
            elapsed += cost
            current = nxt
            if span is not None:
                span.hops.append(current)
        delivered = current in self.receivers
        if delivered:
            distribution.record_delivery(current, elapsed)
        if current in expanded:
            # A transient table cycle would re-copy forever; a real
            # packet would loop until its TTL died.  The first-visit
            # expansion already served this subtree.
            if span is not None:
                self.causal.finish(
                    span, f"suppressed at {current} (already expanded)"
                )
            return
        expanded.add(current)
        copies = 0
        state = self.states.get(current)
        if state is not None and state.mft is not None:
            for address in state.mft.data_targets(self.now, self.timing):
                if address == current:
                    continue  # a self-entry is the local delivery above
                child = self._span(DATA, current, target=address, parent=span)
                copies += 1
                self._walk_data(
                    current, address, elapsed, distribution, expanded, child
                )
        if span is not None:
            parts = []
            if delivered:
                parts.append(f"delivered to {current} (delay {elapsed:g})")
            if copies:
                parts.append(f"branched into {copies} copies at {current}")
            self.causal.finish(
                span, "; ".join(parts) or f"terminated at {current}"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def tree_nodes(self) -> List[NodeId]:
        """All routers holding any state for the channel."""
        return sorted(node for node, state in self.states.items()
                      if state.in_tree)
