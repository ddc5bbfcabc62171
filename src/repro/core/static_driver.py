"""Round-based ("static") HBH driver.

The Monte-Carlo sweeps of Section 4 need thousands of converged trees;
running the full packet-level simulator for each would dominate wall
clock without changing the outcome (the paper's scenarios have static
membership).  This driver executes the *same* Appendix-A rules
(:mod:`repro.core.rules`) synchronously, one protocol period per round:

1. every receiver emits its periodic ``join`` (walked hop-by-hop along
   its unicast route toward the source, applying the join rules);
2. the source emits ``tree`` messages for its non-stale MFT entries;
   tree messages walk forward unicast routes, applying the tree rules,
   cascading regenerated trees and ``fusion`` messages to a fixpoint
   within the round;
3. soft state ages: entries missing refreshes go stale (t1) and are
   destroyed (t2), with one round = one refresh period.

The round loop, membership and convergence live in
:class:`~repro.core.round_driver.RoundDriver`, shared with the REUNITE
driver; this module supplies HBH's walks, tables and data plane.
``converge()`` repeats rounds until the table state stops changing.
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
    OriginateJoin,
    OriginateTree,
    process_fusion,
    process_fusion_at_source,
    process_join,
    process_join_at_source,
    process_tree,
)
from repro.core.tables import HbhChannelState, Mft, ProtocolTiming
from repro.errors import ProtocolError, RoutingError
from repro.metrics.distribution import DataDistribution
from repro.obs.causal import DATA, FUSION, JOIN, TREE, Span
from repro.obs.profiling import profiled

NodeId = Hashable

#: Sentinel for "origin generation not queried yet" during cache
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
        #: Memoized :meth:`_on_spt` verdicts, valid for one routing
        #: generation.
        self._spt_cache: Dict[Tuple[NodeId, NodeId], bool] = {}
        #: Precomputed walk plans for the untraced fast paths: the
        #: rule-applying hops of a route (with their full-path
        #: predecessors for ``arrived_from``, or the on-SPT verdicts a
        #: join walk feeds rule 3), so steady-state walks skip the
        #: transparent unicast hops entirely.  Valid for one routing
        #: generation, like :attr:`_spt_cache`.
        self._join_plans: Dict[NodeId, Tuple[Tuple[NodeId, bool], ...]] = {}
        self._tree_plans: Dict[
            Tuple[NodeId, NodeId], Tuple[Tuple[NodeId, NodeId], ...]
        ] = {}
        #: The routing generation the three route-fact caches above
        #: were last revalidated against (:meth:`_sync_plans`).
        self._plan_generation: Optional[int] = None
        #: Per-entry origin dependencies of the three route-fact caches,
        #: as ``(origin, origin_generation)`` pairs captured at build
        #: time.  A global generation bump revalidates each entry
        #: against its own origins and keeps everything a fault did not
        #: touch.
        self._join_plan_deps: Dict[
            NodeId, Tuple[Tuple[NodeId, Optional[int]], ...]
        ] = {}
        self._tree_plan_deps: Dict[
            Tuple[NodeId, NodeId], Tuple[Tuple[NodeId, Optional[int]], ...]
        ] = {}
        self._spt_deps: Dict[
            Tuple[NodeId, NodeId], Tuple[Tuple[NodeId, Optional[int]], ...]
        ] = {}
        #: Control messages are frozen dataclasses and the walks re-emit
        #: identical ones every round — cache per target (no generation
        #: dependency; messages carry no routing facts).  Joins are
        #: cached by the untraced walks, trees by every cascade.
        self._join_msg_cache: Dict[NodeId, JoinMessage] = {}
        self._tree_msg_cache: Dict[NodeId, TreeMessage] = {}

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def _join_phase(self, receivers: List[NodeId]) -> None:
        """Traced rounds walk every join hop by hop; untraced ones
        dispatch straight to the fast walk, with one tracing/plan check
        for the whole round."""
        causal = self.causal
        if causal is not None and causal.enabled:
            super()._join_phase(receivers)
            return
        self._sync_plans()
        now = float(self.round_no)
        channel = self.channel
        fast = self._walk_join_fast
        msg_cache = self._join_msg_cache
        for receiver in receivers:
            message = msg_cache.get(receiver)
            if message is None:
                message = JoinMessage(channel, receiver)
                msg_cache[receiver] = message
            fast(receiver, message, now)

    def _snapshot(self) -> Tuple:
        """A hashable structural view of all channel state.

        Runs twice per round (convergence compares consecutive
        snapshots), so the entry flags are computed inline — same
        predicates as :meth:`MftEntry.is_marked` / ``is_stale`` —
        instead of two method calls per entry.
        """
        now, timing = self.now, self.timing
        t1 = timing.t1
        items: List[Tuple] = []
        append = items.append
        states = self.states
        for node in sorted(states):
            state = states[node]
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
        for entry in self.source_mft.entries():
            marked_at = entry.marked_at
            append((source, "src", entry.address,
                    marked_at is not None and (now - marked_at) < t1,
                    entry.forced_stale or (now - entry.refreshed_at) >= t1))
        return tuple(items)

    def _timeline_rows(self) -> Tuple[List[Tuple], List[Tuple]]:
        """Table rows plus the fusion-marked subset.  Mark flags use the
        same freshness predicate as :meth:`_snapshot`, so an expired
        mark is a fusion change."""
        now, t1 = self.now, self.timing.t1
        rows: List[Tuple] = []
        marks: List[Tuple] = []
        states = self.states
        for node in sorted(states):
            state = states[node]
            mct = state.mct
            if mct is not None:
                rows.append((node, "mct", mct.entry.address))
            mft = state.mft
            if mft is not None:
                for entry in mft.entries():
                    row = (node, "mft", entry.address)
                    rows.append(row)
                    marked_at = entry.marked_at
                    if marked_at is not None and (now - marked_at) < t1:
                        marks.append(row)
        source = self.source
        for entry in self.source_mft.entries():
            row = (source, "src", entry.address)
            rows.append(row)
            marked_at = entry.marked_at
            if marked_at is not None and (now - marked_at) < t1:
                marks.append(row)
        return rows, marks

    def _expire_source(self, now: float, timing: ProtocolTiming) -> None:
        self.source_mft.expire(now, timing)

    def _source_table(self) -> Mft:
        return self.source_mft

    # ------------------------------------------------------------------
    # Route facts (memoized per routing generation)
    # ------------------------------------------------------------------
    def _sync_plans(self) -> None:
        """Bring the walk plans and on-SPT verdicts up to the current
        routing generation, revalidating them if it has moved."""
        generation = self.routing.generation
        if generation != self._plan_generation:
            self._revalidate_route_caches()
            self._plan_generation = generation

    def _revalidate_route_caches(self) -> None:
        """The routing generation moved: drop exactly the cached route
        facts whose origin trees changed.

        Entries are checked against their recorded ``(origin,
        generation)`` dependencies via ``routing.origin_generation``.
        Each origin is queried once (the query triggers its lazy
        repair, so a clean origin costs one repaired no-op and every
        plan over it survives the fault).
        """
        origin_gen = self.routing.origin_generation
        fresh: Dict[NodeId, Optional[int]] = {}

        def stale(deps) -> bool:
            if deps is None:
                return True
            for node, gen in deps:
                current = fresh.get(node, _UNKNOWN)
                if current is _UNKNOWN:
                    current = origin_gen(node)
                    fresh[node] = current
                if gen is None or current is None or current != gen:
                    return True
            return False

        for cache, deps_map in (
            (self._join_plans, self._join_plan_deps),
            (self._tree_plans, self._tree_plan_deps),
            (self._spt_cache, self._spt_deps),
        ):
            dead = [key for key in cache if stale(deps_map.get(key))]
            for key in dead:
                del cache[key]
                deps_map.pop(key, None)

    def _route_deps(
        self, nodes
    ) -> Tuple[Tuple[NodeId, Optional[int]], ...]:
        """Capture ``(origin, generation)`` pairs for every distinct
        origin whose table a just-built route fact consulted.  Called
        immediately after the fact is computed, so every table is built
        and synced — each query is one integer compare."""
        origin_gen = self.routing.origin_generation
        deps: Dict[NodeId, Optional[int]] = {}
        for node in nodes:
            if node not in deps:
                deps[node] = origin_gen(node)
        return tuple(deps.items())

    def _on_spt(self, node: NodeId, receiver: NodeId) -> bool:
        """Does ``node`` lie on a unicast shortest path from the source
        to ``receiver``?  The routing fact behind join rule 3's premise
        (a branching node serves receivers on forward shortest paths);
        unreachable endpoints — e.g. mid-fault — count as off-path.
        Memoized per routing generation."""
        self._sync_plans()
        key = (node, receiver)
        cached = self._spt_cache.get(key)
        if cached is None:
            cached = self._compute_on_spt(node, receiver)
            self._spt_cache[key] = cached
            self._spt_deps[key] = self._route_deps((self.source, node))
        return cached

    def _compute_on_spt(self, node: NodeId, receiver: NodeId) -> bool:
        try:
            return (
                self.routing.distance(self.source, node)
                + self.routing.distance(node, receiver)
                == self.routing.distance(self.source, receiver)
            )
        except RoutingError:
            return False

    # ------------------------------------------------------------------
    # Message walks (hop-by-hop over unicast routes)
    # ------------------------------------------------------------------
    def _walk_join(self, origin: NodeId, message: JoinMessage,
                   span: Optional[Span] = None) -> None:
        """Walk a join from ``origin`` toward the source, applying the
        join rules at every HBH router until interception or arrival.

        Untraced joins take the plan-driven :meth:`_walk_join_fast`;
        traced ones walk hop by hop, recording every hop and table
        effect on ``span``."""
        if span is None:
            self._sync_plans()
            self._walk_join_fast(origin, message, float(self.round_no))
            return
        self.messages_processed += 1
        now = float(self.round_no)
        source = self.source
        causal = self.causal
        joiner = message.joiner
        for current in self._hops(origin, source):
            span.hops.append(current)
            if current == source:
                existed = joiner in self.source_mft
                process_join_at_source(self.source_mft, message, now)
                causal.effect(span, source, "source-mft", joiner,
                              "refresh-join" if existed else "add", now)
                causal.finish(
                    span,
                    f"reached source (MFT entry {joiner} "
                    f"{'refreshed' if existed else 'added'})",
                )
                return
            if not self._applies_rules(current):
                continue
            state = self.states.get(current)
            if state is None:
                continue  # rule 1: no MFT here, so the join passes
            actions = process_join(
                state, message, current, now, self.timing,
                on_spt=self._on_spt(current, joiner),
            )
            consumed = False
            for action in actions:
                cls = action.__class__
                if cls is Consume:
                    consumed = True
                elif cls is OriginateJoin:
                    # Rule 3: the interceptor refreshed the joiner's
                    # entry and joins the channel itself upstream.
                    causal.effect(span, current, "mft", joiner,
                                  "refresh-join", now)
                    child = self._span(JOIN, current, target=action.joiner,
                                       parent=span)
                    self._walk_join(
                        current,
                        self._stamp(JoinMessage(self.channel, action.joiner),
                                    child),
                        child,
                    )
                elif cls is not Forward:  # pragma: no cover
                    raise ProtocolError(f"unexpected join action {action!r}")
            if consumed:
                causal.finish(span, f"intercepted by {current} (join rule 3)")
                return

    def _walk_join_fast(self, origin: NodeId, message: JoinMessage,
                        now: float) -> None:
        """Untraced join walk over a precomputed plan.

        The hop sequence and the per-node rules verdicts are both
        static for a routing generation, so the walk reduces to "apply
        the join rules at each rule-applying hop, then deliver at the
        source" — the transparent unicast hops do nothing in an
        untraced walk and are precomputed away.  Rule-3 re-originations
        are walked iteratively (LIFO matches the recursive order: an
        interception stops the outer walk, so at most one nested join
        is ever pending).

        Every fast-walked join has ``joiner == origin`` (periodic joins
        start at the receiver; rule-3 re-originations carry the
        interceptor's own address), so the per-hop on-SPT verdicts are
        a function of the origin alone and live *inside* the plan.
        Callers must have called :meth:`_sync_plans` this round.
        """
        source = self.source
        timing = self.timing
        states = self.states
        join_plans = self._join_plans
        channel = self.channel
        source_mft = self.source_mft
        msg_cache = self._join_msg_cache
        walk = [(origin, message)]
        pop = walk.pop
        while walk:
            origin, message = pop()
            self.messages_processed += 1
            plan = join_plans.get(origin)
            if plan is None:
                applies = self._applies_rules
                on_spt = self._compute_on_spt
                hops = self._hops(origin, source)
                plan = tuple((h, on_spt(h, origin))
                             for h in hops
                             if applies(h))
                join_plans[origin] = plan
                self._join_plan_deps[origin] = \
                    self._route_deps((origin, *hops))
            consumed = False
            for current, on_spt in plan:
                state = states.get(current)
                if state is None:
                    continue  # rule 1: no MFT here, so the join passes
                actions = process_join(state, message, current, now,
                                       timing, on_spt=on_spt)
                if actions is FORWARD_ONLY:
                    continue
                for action in actions:
                    cls = action.__class__
                    if cls is Consume:
                        consumed = True
                    elif cls is OriginateJoin:
                        nested = msg_cache.get(current)
                        if nested is None:
                            nested = JoinMessage(channel, current)
                            msg_cache[current] = nested
                        walk.append((current, nested))
                    elif cls is not Forward:  # pragma: no cover
                        raise ProtocolError(
                            f"unexpected join action {action!r}"
                        )
                if consumed:
                    break
            if not consumed and origin != source:
                process_join_at_source(source_mft, message, now)

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
        Duplicates are dropped when sent, before a message is built;
        the queue is FIFO, so the first send of each message is the
        one walked, in the order it was sent.  Untraced walks drop a
        repeated transit outcome before even that (see
        :meth:`_walk_tree_fast`).
        """
        queue: Deque[
            Tuple[NodeId, Union[TreeMessage, FusionMessage], Optional[Span]]
        ] = deque()
        seen: Set[Tuple] = set()
        transits: Dict[NodeId, List] = {}
        channel = self.channel
        tree_messages = self._tree_msg_cache

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
                queue.append(
                    (origin, FusionMessage(channel, receivers, sender=origin),
                     parent)
                )

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
        if not tracing:
            self._sync_plans()
        now = float(self.round_no)
        while queue:
            steps += 1
            if steps > MAX_CASCADE:  # pragma: no cover - safety valve
                raise ProtocolError("tree/fusion cascade did not terminate")
            origin, message, parent = popleft()
            is_tree = message.__class__ is TreeMessage
            if not tracing:
                if is_tree:
                    self._walk_tree_fast(origin, message, send_tree,
                                         send_fusion, transits, now)
                else:
                    self._walk_fusion(origin, message)
            elif is_tree:
                span = causal.begin(
                    TREE, origin, now, self.channel_name,
                    trace_id=round_trace if parent is None else None,
                    parent=parent, target=message.target,
                )
                self._walk_tree(origin, self._stamp(message, span),
                                send_tree, send_fusion, span)
            else:
                span = causal.begin(
                    FUSION, origin, now, self.channel_name,
                    parent=parent, target=message.receivers,
                )
                self._walk_fusion(origin, self._stamp(message, span), span)

    def _walk_tree(self, origin: NodeId, message: TreeMessage,
                   send_tree: Callable, send_fusion: Callable,
                   span: Span) -> None:
        """Traced walk of ``tree(S, target)`` from ``origin`` toward its
        target, applying the tree rules at every HBH router on the way
        and recording every hop and table effect on ``span`` (untraced
        trees take :meth:`_walk_tree_fast`)."""
        self.messages_processed += 1
        now = float(self.round_no)
        causal = self.causal
        target_node = message.target
        previous = origin
        for current in self._hops(origin, target_node):
            span.hops.append(current)
            if not self._applies_rules(current):
                if current == target_node:
                    # Arrived at a host/receiver (or the source): consumed.
                    causal.finish(span, f"reached {target_node}")
                    return
                previous = current
                continue
            state = self._state_at(current)
            before = self._tree_facts(state, target_node)
            actions = process_tree(state, message, current, now,
                                   self.timing, arrived_from=previous)
            self._tree_effects(span, current, state, target_node, before)
            consumed = False
            for action in actions:
                cls = action.__class__
                if cls is Consume:
                    consumed = True
                elif cls is OriginateTree:
                    if action.target != current:
                        send_tree(current, action.target, span)
                elif cls is OriginateFusion:
                    send_fusion(current, action.receivers, span)
                elif cls is not Forward:  # pragma: no cover
                    raise ProtocolError(f"unexpected tree action {action!r}")
            if consumed:
                if before[0]:  # the target held an MFT: rule 1
                    regenerated = sum(
                        1 for a in actions if isinstance(a, OriginateTree)
                    )
                    causal.finish(
                        span,
                        f"delivered to branching node {current} "
                        f"(tree rule 1: {regenerated} trees regenerated)",
                    )
                else:
                    causal.finish(span, f"reached {target_node}")
                return
            previous = current
        if not span.finished:
            causal.finish(span, f"reached {target_node}")

    def _walk_tree_fast(self, origin: NodeId, message: TreeMessage,
                        send_tree: Callable, send_fusion: Callable,
                        transits: Dict[NodeId, List],
                        now: float) -> None:
        """Untraced tree walk over a precomputed plan (see
        :meth:`_walk_join_fast`): only the rule-applying hops do
        anything, and each needs its full-path predecessor as
        ``arrived_from`` (the upstream interface the tree message
        arrived on).  Callers must have called :meth:`_sync_plans` this
        round.

        ``transits`` maps each node to the last transit outcome it sent
        this round.  A rule returns the same list object only while the
        node's MFT keeps its address set, so the fusion it asks for is
        one ``send_fusion`` already dropped as a duplicate: the walk
        skips the dispatch."""
        self.messages_processed += 1
        timing = self.timing
        states = self.states
        target_node = message.target
        plan_key = (origin, target_node)
        plan = self._tree_plans.get(plan_key)
        if plan is None:
            applies = self._applies_rules
            steps = []
            prev = origin
            hops = self._hops(origin, target_node)
            for hop in hops:
                if applies(hop):
                    steps.append((hop, prev))
                prev = hop
            plan = tuple(steps)
            self._tree_plans[plan_key] = plan
            # The walk consults the tables of every hop except the
            # final target (the last next_hop decision happens one
            # node earlier).
            self._tree_plan_deps[plan_key] = \
                self._route_deps((origin, *hops[:-1]))
        for current, arrived_from in plan:
            state = states.get(current)
            if state is None:
                state = HbhChannelState()
                states[current] = state
            actions = process_tree(state, message, current, now,
                                   timing, arrived_from=arrived_from)
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
                        send_tree(current, target, None)
                elif cls is OriginateFusion:
                    send_fusion(current, action.receivers, None)
                elif cls is not Forward:  # pragma: no cover
                    raise ProtocolError(
                        f"unexpected tree action {action!r}"
                    )
            if consumed:
                return

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
