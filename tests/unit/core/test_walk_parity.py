"""Recording spans never perturbs a static driver's state.

Each driver has one walk per message kind; with a causal tracer
attached, the same walk also records every hop, table effect and
outcome on a span (HBH's walks step through precomputed plans and read
the transparent hops back from the route).  Tracing must stay pure
bookkeeping: these tests run a traced and an untraced driver side by
side through joins, a fault storm with crashes, leaves and late joins,
and quiescent rounds, and compare their tables and message counts
after every round and every membership change.  Neither may hold state
for a router outside the tree at those points: walks allocate no state
where a rule only forwards, and the expiry at the end of a round drops
whatever a tree walk left empty.
"""

from __future__ import annotations

import random

import pytest

from repro.core.static_driver import StaticHbh
from repro.experiments.config import make_random50_setup
from repro.netsim.faults import RoundFaultPlayer, random_schedule
from repro.obs.causal import CausalTracer
from repro.protocols.reunite.static_driver import StaticReunite
from repro.routing.tables import UnicastRouting

SEEDS = range(1, 7)
GROUP_SIZE = 8
LATE_JOINERS = 2
STORM_EVENTS = 8
QUIESCENT_ROUNDS = 8


def _record_rounds(driver, log):
    """Append ``driver``'s state to ``log`` after each of its rounds,
    including the rounds :meth:`converge` runs (which compares the
    closing snapshots ``run_round`` returns)."""
    run_round = driver.run_round

    def recorded():
        snapshot = run_round()
        log.append(_state(driver))
        return snapshot

    driver.run_round = recorded


def _state(driver):
    return (driver.round_no, driver._snapshot(), driver.messages_processed,
            all(state.in_tree for state in driver.states.values()))


class _Pair:
    """A traced and an untraced driver for one channel, stepped
    together and compared after every step."""

    def __init__(self, driver_cls, setup) -> None:
        topology, source = setup.topology, setup.source
        self.traced = driver_cls(topology, source,
                                 routing=UnicastRouting(topology))
        self.plain = driver_cls(topology, source,
                                routing=UnicastRouting(topology))
        self.traced.attach_tracer(CausalTracer(maxlen=4096))
        self.traced_rounds, self.plain_rounds = [], []
        _record_rounds(self.traced, self.traced_rounds)
        _record_rounds(self.plain, self.plain_rounds)

    @property
    def drivers(self):
        return (self.traced, self.plain)

    def check(self) -> None:
        assert self.traced_rounds == self.plain_rounds
        traced, plain = _state(self.traced), _state(self.plain)
        assert traced == plain
        assert traced[3], "a driver kept state that is not in the tree"

    def join(self, receiver) -> None:
        for driver in self.drivers:
            driver.add_receiver(receiver)
        self.check()

    def leave(self, receiver) -> None:
        for driver in self.drivers:
            driver.remove_receiver(receiver)
        self.check()

    def run_round(self) -> None:
        for driver in self.drivers:
            driver.run_round()
        self.check()

    def converge(self) -> None:
        rounds = [driver.converge(max_rounds=80) for driver in self.drivers]
        assert rounds[0] == rounds[1]
        self.check()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("driver_cls", [StaticHbh, StaticReunite],
                         ids=["hbh", "reunite"])
def test_traced_and_untraced_walks_agree_every_round(driver_cls, seed):
    setup = make_random50_setup(seed)
    members = random.Random(seed).sample(setup.candidates,
                                         GROUP_SIZE + LATE_JOINERS)
    initial, late = members[:GROUP_SIZE], members[GROUP_SIZE:]
    pair = _Pair(driver_cls, setup)

    for receiver in initial:
        pair.join(receiver)
        pair.converge()

    schedule = random_schedule(setup.topology, setup.source, members,
                               seed=seed, events=STORM_EVENTS,
                               allow_crashes=True)

    def crash(node) -> None:
        for driver in pair.drivers:
            driver.states.pop(node, None)

    player = RoundFaultPlayer(setup.topology, schedule, on_crash=crash)
    # Membership changes land mid-storm: a leave, a late join, then a
    # leave and a late join in the same round.
    changes = {
        2: ([initial[0]], []),
        3: ([], [late[0]]),
        5: ([initial[1]], [late[1]]),
    }
    start = pair.traced.now
    storm_round = 0
    while not player.exhausted or storm_round <= max(changes):
        storm_round += 1
        pair.run_round()
        player.advance(pair.traced.now - start)
        leaves, joins = changes.get(storm_round, ([], []))
        for receiver in leaves:
            pair.leave(receiver)
        for receiver in joins:
            pair.join(receiver)

    for _ in range(QUIESCENT_ROUNDS):
        pair.run_round()
    pair.converge()
    assert pair.traced.receivers == set(initial[2:]) | set(late)
    assert pair.traced.causal.dag().spans(), "the traced driver traced nothing"
