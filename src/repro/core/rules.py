"""The HBH message-processing rules of Appendix A (paper Fig. 9).

Each function takes the router's per-channel state and one message and
returns a list of :class:`Action` values describing what the router
does — forward the message, intercept it, originate a join/tree/fusion.
The functions are *pure* with respect to I/O (they mutate only the
passed-in table state), so the event-driven agents and the round-based
static driver execute byte-for-byte identical protocol logic.

Every steady-state outcome is a shared, read-only list, rebuilt only
when the table it describes changes: soft state makes most messages
refreshes that return what the same router returned a period earlier.

* a pure forward or pure consume returns :data:`FORWARD_ONLY` or
  :data:`CONSUME_ONLY`;
* a tree transit at a branching node (tree rules 2, 3 and 8) returns
  :attr:`Mft.transit <repro.core.tables.Mft.transit>`, which every
  change to the MFT's address set drops (``add``, ``remove``, a t2
  removal in ``expire``);
* a join interception (join rule 3) returns
  :attr:`HbhChannelState.intercept
  <repro.core.tables.HbhChannelState.intercept>`, kept for the
  router's lifetime;
* a regeneration (tree rule 1) returns a fresh list, since freshness
  changes it, of the ``OriginateTree`` actions kept per address in
  :attr:`Mft.tree_actions <repro.core.tables.Mft.tree_actions>`.

Consumers iterate or compare results and must never mutate one.

Rule numbering in comments follows the paper's Fig. 9 captions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple, Union

from repro.core.messages import FusionMessage, JoinMessage, TreeMessage
from repro.core.tables import (
    HbhChannelState,
    Mct,
    Mft,
    ProtocolTiming,
)

Addr = Hashable


# ----------------------------------------------------------------------
# Actions a rule can request from its driver
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Forward:
    """Keep forwarding the current message toward its destination."""


@dataclass(frozen=True, slots=True)
class Consume:
    """Drop the current message (it was intercepted or is spent)."""


@dataclass(frozen=True, slots=True)
class OriginateJoin:
    """Send ``join(S, joiner)`` upstream toward the source."""

    joiner: Addr


@dataclass(frozen=True, slots=True)
class OriginateTree:
    """Send ``tree(S, target)`` downstream from this router."""

    target: Addr


@dataclass(frozen=True, slots=True)
class OriginateFusion:
    """Send ``fusion(S, receivers)`` upstream toward the source."""

    receivers: Tuple[Addr, ...]


Action = Union[Forward, Consume, OriginateJoin, OriginateTree, OriginateFusion]

#: The zero-field actions carry no state, so every rule application can
#: share these two instances instead of allocating fresh ones (frozen
#: dataclasses compare by value, so ``_FORWARD == _FORWARD`` holds for
#: any caller that constructs its own).
_FORWARD = Forward()
_CONSUME = Consume()

#: Shared result lists for the two no-side-channel outcomes.  Like
#: every steady-state result (module docstring), they are read-only:
#: consumers iterate or compare them.  Hot callers identity-test
#: ``actions is FORWARD_ONLY`` to bypass action dispatch entirely.
FORWARD_ONLY: List[Action] = [_FORWARD]
CONSUME_ONLY: List[Action] = [_CONSUME]


def _transit(mft: Mft) -> List[Action]:
    """Build tree rules 2, 3 and 8's outcome: forward the tree message
    and send a fusion listing "all the nodes that B maintains in its
    MFT - the nodes for which B is branching node" (Appendix A).  The
    MFT keeps it until its address set changes, so callers read
    ``mft.transit`` first."""
    transit = mft.transit = [
        _FORWARD, OriginateFusion(receivers=mft.address_tuple())
    ]
    return transit


# ----------------------------------------------------------------------
# Join processing (Fig. 9(a))
# ----------------------------------------------------------------------
def process_join(
    state: HbhChannelState,
    message: JoinMessage,
    self_addr: Addr,
    now: float,
    timing: ProtocolTiming,
    on_spt: Optional[bool] = None,
) -> List[Action]:
    """Handle ``join(S, R)`` at transit router B.

    (1) B has no MFT -> forward unchanged.
    (2) R not in B's MFT -> forward unchanged.
    (3) R in B's MFT -> intercept: refresh R's entry and send
        ``join(S, B)`` upstream (B is a branching node of the channel
        and joins the group itself at the next upstream branching node).

    A receiver's *first* join is never intercepted (Section 3.1), so it
    is forwarded before any table lookup.

    Rule 3's premise is that B *is a branching node of the tree*, and
    the paper's construction (Section 3.1) guarantees every branching
    node lies on a unicast shortest path from S to the receivers it
    serves — tree messages travel forward routes, so branch state only
    ever forms on them.  Two checks re-validate that premise, because
    unicast route changes can strand old branch state on the *reverse*
    path of a receiver, where it would otherwise keep swallowing R's
    joins, re-originating its own, and so anchor the channel to an
    obsolete non-shortest path forever (exactly the REUNITE pathology
    of Fig. 2 that HBH exists to avoid):

    * an MFT holding R and nothing else means B no longer branches —
      it is a pure relay left over from an earlier tree shape;
    * ``on_spt`` is the driver-supplied routing fact "B lies on a
      unicast shortest path from S to R" (``dist(S,B) + dist(B,R) ==
      dist(S,R)`` on the router's own routing table — link-state
      routers know this locally).  ``False`` makes B transparent: the
      join passes unrefreshed toward the source, the stranded state
      ages out at t2, and the source's forward-path tree messages
      rebuild the branch where it belongs.  ``None`` (unknown, e.g. a
      substrate that cannot answer) preserves the paper's literal
      behaviour.
    """
    if message.initial:
        return FORWARD_ONLY
    mft = state.mft
    if mft is None:  # rule 1
        return FORWARD_ONLY
    entry = mft.get(message.joiner)
    if entry is None:  # rule 2
        return FORWARD_ONLY
    if len(mft) == 1:
        # Degenerate branch (R is B's only entry): B is not branching.
        return FORWARD_ONLY
    if on_spt is False:
        # B is off R's forward shortest path: not a legitimate branch
        # node for R, so it must not capture R's membership.
        return FORWARD_ONLY
    # rule 3
    entry.refresh_by_join(now)
    intercept = state.intercept
    if intercept is None or intercept[1].joiner != self_addr:
        intercept = state.intercept = [
            _CONSUME, OriginateJoin(joiner=self_addr)
        ]
    return intercept


def process_join_at_source(
    mft: Mft,
    message: JoinMessage,
    now: float,
) -> List[Action]:
    """Handle ``join(S, R)`` arriving at the source itself.

    The source maintains the MFT of its direct children: a new joiner
    is added fresh, an existing one refreshed.  (Fig. 5: "r1 joins the
    multicast channel at S"; Fig. 2-discussion: join refreshes the r1
    entry in S's MFT.)
    """
    entry = mft.get(message.joiner)
    if entry is None:
        mft.add(message.joiner, now)
    else:
        entry.refresh_by_join(now)
    return CONSUME_ONLY


# ----------------------------------------------------------------------
# Tree processing (Fig. 9(c))
# ----------------------------------------------------------------------
def process_tree(
    state: HbhChannelState,
    message: TreeMessage,
    self_addr: Addr,
    now: float,
    timing: ProtocolTiming,
    arrived_from: Optional[Addr] = None,
) -> List[Action]:
    """Handle ``tree(S, R)`` at router B.

    (1) addressed to B (B branching) -> discard; send ``tree(S, X)``
        for every non-stale X in the MFT.
    (2) B branching, R new -> add R to the MFT, fusion upstream.
    (3) B branching, R already in MFT -> refresh R, fusion upstream.
    (4) B not in the tree -> create ``MCT = {R}``.
    (5,6) B has an MCT containing R -> refresh it.
    (7) B's MCT is stale -> R replaces the previous entry.
    (8) B's MCT is fresh with a different R' -> B becomes a branching
        node: create ``MFT = {R', R}``, destroy the MCT, fusion
        upstream.

    In cases 2-8 the message also keeps travelling toward R ("a tree
    message received by router B is treated and forwarded").

    Tree messages always arrive from the router's current parent on the
    distribution tree, so ``arrived_from`` is recorded as the channel's
    upstream interface (consumed by the fusion interception check).
    """
    if arrived_from is not None:
        state.upstream = arrived_from
    target = message.target
    mft = state.mft
    if mft is not None:
        if target == self_addr:  # rule 1
            actions: List[Action] = [_CONSUME]
            tree_actions = mft.tree_actions
            for x in mft.tree_targets(now, timing):
                action = tree_actions.get(x)
                if action is None:
                    action = tree_actions[x] = OriginateTree(target=x)
                actions.append(action)
            return actions
        entry = mft.get(target)
        if entry is None:  # rule 2
            mft.add(target, now)
        else:  # rule 3
            entry.refresh_by_tree(now)
        return mft.transit or _transit(mft)

    if target == self_addr:
        # A tree message for this node but no MFT here: nothing to
        # regenerate (a receiver agent, if any, consumes it upstack).
        return CONSUME_ONLY

    mct = state.mct
    if mct is None:  # rule 4
        state.mct = Mct(target, now)
        return FORWARD_ONLY
    if mct.entry.address == target:  # rules 5, 6
        mct.refresh(now)
        return FORWARD_ONLY
    if mct.is_stale(now, timing):  # rule 7
        mct.replace(target, now)
        return FORWARD_ONLY
    # rule 8: second live target through a non-branching router -> branch.
    previous = mct.entry.address
    state.mct = None
    mft = Mft()
    # Preserve the original entry's freshness; the new target is fresh.
    mft.add(previous, mct.entry.refreshed_at)
    mft.add(target, now)
    state.mft = mft
    return _transit(mft)


# ----------------------------------------------------------------------
# Fusion processing (Fig. 9(b))
# ----------------------------------------------------------------------
def process_fusion(
    state: HbhChannelState,
    message: FusionMessage,
    now: float,
    arrived_from: Optional[Addr] = None,
) -> List[Action]:
    """Handle ``fusion(S, R1..Rn)`` from ``Bp`` at transit router B.

    (1) none of the listed receivers is in B's MFT -> forward upstream;
    (2) otherwise the fusion is "addressed to" B: mark the listed
        entries (tree forwarding only, no data);
    (3) add Bp with its t1 expired (data forwarding only, no tree
        messages) if absent;
    (4) if Bp is already present, refresh t2 only, keeping a stale Bp
        stale (a join-refreshed fresh Bp entry stays fresh).

    A fusion arriving through B's *upstream* interface (where B's own
    tree messages come from) was produced by an ancestor whose reverse
    unicast route to S happens to traverse B — B relays it untouched.
    Without this check a parent and child sharing receivers would adopt
    each other under asymmetric routing and the data plane would loop.
    """
    mft = state.mft
    if mft is None:
        return FORWARD_ONLY  # rule 1 (non-branching routers relay fusions)
    if arrived_from is not None and arrived_from == state.upstream:
        return FORWARD_ONLY  # ancestor's fusion in transit: not ours
    listed = [mft.get(r) for r in message.receivers]
    present = [entry for entry in listed if entry is not None]
    if not present:
        return FORWARD_ONLY  # rule 1
    for entry in present:  # rule 2
        entry.mark(now)
    sender_entry = mft.get(message.sender)
    if sender_entry is None:  # rule 3
        mft.add(message.sender, now, forced_stale=True)
    elif sender_entry.forced_stale:  # rule 4
        sender_entry.keep_alive_stale(now)
    else:
        # Bp is fresh (its joins reach us): just keep t2 alive.
        sender_entry.refreshed_at = now
    return CONSUME_ONLY


def process_fusion_at_source(
    mft: Mft,
    message: FusionMessage,
    now: float,
) -> List[Action]:
    """Handle a fusion that reached the source.

    Same marking/adoption logic as at a branching router (Fig. 5:
    "the reception of the fusion causes S to mark the r1 and r3 entries
    in its MFT and to add H1 to it"), except the source never forwards
    fusions further — it consumes them even when no listed receiver is
    present (a transient: the receivers' entries already expired).
    """
    listed = [mft.get(r) for r in message.receivers]
    present = [entry for entry in listed if entry is not None]
    if not present:
        return CONSUME_ONLY
    for entry in present:
        entry.mark(now)
    sender_entry = mft.get(message.sender)
    if sender_entry is None:
        mft.add(message.sender, now, forced_stale=True)
    elif sender_entry.forced_stale:
        sender_entry.keep_alive_stale(now)
    else:
        sender_entry.refreshed_at = now
    return CONSUME_ONLY
