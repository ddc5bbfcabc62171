"""REUNITE message-processing rules as pure functions.

Mirrors the structure of :mod:`repro.core.rules` so the static round
driver and the event-driven agents share one implementation.  Derived
from the tree-construction narrative of paper Section 2 (Figs. 2-3) and
Stoica et al.:

Join at router B:
  - B has a *fresh* MFT: a known receiver -> refresh, consume; the dst
    receiver -> refresh and *forward* (it joined upstream and its join
    must keep reaching that node); unknown -> add as receiver, consume
    ("r2 joined the channel at R3").
  - B has a *stale* MFT: forward (stale MFTs stop intercepting,
    Fig. 2(c)).
  - B has a fresh MCT entry for a *different* receiver -> B promotes
    itself to a branching node: ``MFT.dst`` = the existing MCT
    receiver, the joiner is added, the MCT is destroyed ("R3 drops the
    join(S, r2), creates a MFT<S> with r1 as dst, adds r2, removes
    <S, r1> from its MCT").
  - B's MCT contains the joiner itself -> forward (the join must reach
    the node where the receiver actually joined; R1 forwards r1's
    joins to S in Fig. 2 although it holds an <S, r1> MCT entry).

Tree at router B (target R):
  - B branching, R == dst, unmarked -> refresh dst; regenerate
    ``tree(S, rj)`` for each fresh receiver; forward the original.
  - B branching, R == dst, marked -> the MFT becomes stale; forward the
    marked tree (no regeneration).
  - B non-branching, unmarked -> install/refresh the R MCT entry,
    forward.
  - B non-branching, marked -> destroy any R MCT entries, forward.

As in HBH, the two plain outcomes return the shared, read-only
``FORWARD_ONLY`` / ``CONSUME_ONLY`` lists of :mod:`repro.core.rules`, so
the walks identity-test them instead of dispatching on each action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Union

from repro.core.rules import CONSUME_ONLY, FORWARD_ONLY, Consume, Forward
from repro.core.tables import ProtocolTiming
from repro.protocols.reunite.messages import ReuniteJoin, ReuniteTree
from repro.protocols.reunite.tables import ReuniteMct, ReuniteMft, ReuniteState

Addr = Hashable


@dataclass(frozen=True, slots=True)
class RegenerateTree:
    """Emit a downstream ``tree(S, target)`` from this branching node."""

    target: Addr
    marked: bool = False


ReuniteAction = Union[Forward, Consume, RegenerateTree]


def process_join(
    state: ReuniteState,
    message: ReuniteJoin,
    now: float,
    timing: ProtocolTiming,
) -> List[ReuniteAction]:
    """Handle a join at a transit router (see module docstring)."""
    mft = state.mft
    if mft is not None:
        if mft.is_stale(now, timing):
            return FORWARD_ONLY
        if mft.dst is not None and message.joiner == mft.dst.address:
            # The dst receiver joined *upstream* (originally at the
            # source): its join must keep travelling there or the
            # upstream entry dies and the whole branch collapses (the
            # Fig. 1(b) chains R1->R5->R7 all have dst=r1 while r1's
            # joins refresh S).  It does NOT refresh the local dst
            # entry either — "a tree(S, ri) message refreshes ... the
            # MFT.dst = ri entries down the tree": only tree messages
            # keep a dst alive, so a branching node that data stopped
            # passing through decays instead of intercepting forever.
            return FORWARD_ONLY
        receiver = mft.get_receiver(message.joiner)
        if receiver is not None:
            receiver.refresh(now)
            return CONSUME_ONLY
        if message.initial:
            mft.add_receiver(message.joiner, now)
            return CONSUME_ONLY
        # A periodic join of a receiver attached elsewhere: transit.
        return FORWARD_ONLY

    mct = state.mct
    if mct is not None and message.initial:
        if message.joiner in mct:
            return FORWARD_ONLY
        fresh = mct.fresh_entries(now, timing)
        if fresh:
            # Promote: oldest fresh MCT receiver becomes dst.
            dst_entry = fresh[0]
            mct.remove(dst_entry.address)
            mft = ReuniteMft(dst=dst_entry)
            mft.add_receiver(message.joiner, now)
            state.mft = mft
            state.mct = None
            return CONSUME_ONLY
    return FORWARD_ONLY


def process_join_at_source(
    state: ReuniteState,
    message: ReuniteJoin,
    now: float,
    timing: ProtocolTiming,
) -> List[ReuniteAction]:
    """Handle a join arriving at the source.

    The source's MFT: the very first receiver becomes ``dst`` ("the
    source sends data in unicast to the first receiver that joined"),
    later joiners become receiver entries.
    """
    mft = state.mft
    if mft is None:
        from repro.protocols.reunite.tables import ReuniteEntry

        state.mft = ReuniteMft(dst=ReuniteEntry(message.joiner, now))
        return CONSUME_ONLY
    if mft.dst is not None and message.joiner == mft.dst.address:
        mft.dst.refresh(now)
        return CONSUME_ONLY
    receiver = mft.get_receiver(message.joiner)
    if receiver is not None:
        receiver.refresh(now)
        return CONSUME_ONLY
    if mft.dst is None:
        from repro.protocols.reunite.tables import ReuniteEntry

        mft.dst = ReuniteEntry(message.joiner, now)
        return CONSUME_ONLY
    mft.add_receiver(message.joiner, now)
    return CONSUME_ONLY


def process_tree(
    state: ReuniteState,
    message: ReuniteTree,
    now: float,
    timing: ProtocolTiming,
) -> List[ReuniteAction]:
    """Handle a tree message at a transit router (see module docstring)."""
    mft = state.mft
    if mft is not None:
        if mft.dst is not None and message.target == mft.dst.address:
            if message.marked:
                mft.dst.make_stale()
                return FORWARD_ONLY
            mft.dst.refresh(now)
            return FORWARD_ONLY + [
                RegenerateTree(target=e.address)
                for e in mft.fresh_receivers(now, timing)
            ]
        # A tree for some other receiver passing through a branching
        # node: transit only (its state lives elsewhere).
        return FORWARD_ONLY

    if message.marked:
        if state.mct is not None:
            state.mct.remove(message.target)
            if len(state.mct) == 0:
                state.mct = None
        return FORWARD_ONLY

    if state.mct is None:
        state.mct = ReuniteMct()
    entry = state.mct.get(message.target)
    if entry is None:
        state.mct.add(message.target, now)
    else:
        entry.refresh(now)
    return FORWARD_ONLY
