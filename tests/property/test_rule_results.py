"""The HBH rules' shared steady-state results never go stale.

:mod:`repro.core.rules` hands out one shared, read-only list per
steady-state outcome and rebuilds it only when the table it describes
changes: the transit of tree rules 2, 3 and 8 lives on the MFT until its
address set changes, join rule 3's interception on the router's channel
state, and rule 1's per-address ``OriginateTree`` actions on the MFT.
This suite drives one router's :class:`HbhChannelState` through random
joins, tree messages (rules 1-8), fusions (rule-3 adoption adds the
sender), ``Mft.remove`` and ``expire`` with t2 removals, and checks
after every step that each result, and each cached one, equals the
list a rule without caches would build from the current table.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.messages import FusionMessage, JoinMessage, TreeMessage
from repro.core.rules import (
    Consume,
    Forward,
    OriginateFusion,
    OriginateJoin,
    OriginateTree,
    process_fusion,
    process_join,
    process_tree,
)
from repro.core.tables import ROUND_TIMING, HbhChannelState

COMMON = settings(max_examples=200, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])

CHANNEL = ("hbh", "S")
SELF = "B"
UPSTREAM = "up"
ADDRESSES = ("r1", "r2", "r3", "r4")

address = st.sampled_from(ADDRESSES)
#: One step: the time that passes first (each tick ends with the
#: router's ``expire``), then one message or table removal.
step = st.tuples(st.integers(0, 2), st.one_of(
    st.tuples(st.just("join"), address, st.sampled_from([None, True, False])),
    st.tuples(st.just("tree"), st.sampled_from(ADDRESSES + (SELF,))),
    st.tuples(st.just("fusion"),
              st.lists(address, min_size=1, max_size=3, unique=True),
              address),
    st.tuples(st.just("remove"), address),
))


def transit(state):
    return [Forward(), OriginateFusion(tuple(state.mft.addresses()))]


def regeneration(state, now):
    return [Consume()] + [OriginateTree(x) for x in
                          state.mft.tree_targets(now, ROUND_TIMING)]


def interception():
    return [Consume(), OriginateJoin(SELF)]


def assert_caches_fresh(state):
    """Every cached result equals the one built from the table now."""
    if state.intercept is not None:
        assert state.intercept == interception()
    mft = state.mft
    if mft is not None:
        if mft.transit is not None:
            assert mft.transit == transit(state)
        for target, action in mft.tree_actions.items():
            assert action == OriginateTree(target)


@COMMON
@given(steps=st.lists(step, min_size=1, max_size=40))
def test_shared_results_equal_fresh_ones(steps):
    state = HbhChannelState()
    now = 0.0
    for elapsed, (kind, *args) in steps:
        if elapsed:
            now += elapsed
            state.expire(now, ROUND_TIMING)
            assert_caches_fresh(state)
        if kind == "join":
            joiner, on_spt = args
            was_present = state.mft is not None and joiner in state.mft
            actions = process_join(state, JoinMessage(CHANNEL, joiner),
                                   SELF, now, ROUND_TIMING, on_spt=on_spt)
            if was_present and Consume() in actions:
                assert actions == interception()
                assert actions is state.intercept
        elif kind == "tree":
            (target,) = args
            actions = process_tree(state, TreeMessage(CHANNEL, target),
                                   SELF, now, ROUND_TIMING,
                                   arrived_from=UPSTREAM)
            if state.mft is not None:
                if target == SELF:
                    assert actions == regeneration(state, now)
                else:
                    assert actions == transit(state)
                    assert actions is state.mft.transit
        elif kind == "fusion":
            receivers, sender = args
            process_fusion(state, FusionMessage(CHANNEL, tuple(receivers),
                                                sender=sender),
                           now, arrived_from=sender)
        else:
            (victim,) = args
            if state.mft is not None and victim in state.mft:
                state.mft.remove(victim)
        assert_caches_fresh(state)
