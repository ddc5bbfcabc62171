"""Property-based fault recovery: soft state heals whatever we break.

The paper's resilience argument as an invariant: HBH (and REUNITE)
carry no failure-handling code at all — refreshes take the IGP's new
routes and stale branches age out at t2.  So for *any* topology, group
and connectivity-preserving fault schedule, once the faults have healed
and the protocol has quiesced, the convergence oracle must hold:
every receiver reached exactly once, every branch a shortest path,
no soft-state entry older than t2.

The example budget scales down in CI via ``FAULT_FUZZ_EXAMPLES``
(locally 200, CI 50 with a pinned ``--hypothesis-seed``).
"""

import os

from hypothesis import HealthCheck, given, settings

from repro.core.static_driver import StaticHbh
from repro.netsim.faults import RoundFaultPlayer
from repro.obs.causal import CausalTracer
from repro.obs.explain import Explainer
from repro.protocols.reunite.static_driver import StaticReunite
from repro.routing.tables import UnicastRouting
from repro.verify import ConvergenceOracle, hbh_soft_state, reunite_soft_state
from tests.property.strategies import fault_cases

MAX_EXAMPLES = int(os.environ.get("FAULT_FUZZ_EXAMPLES", "200"))
FUZZ = settings(max_examples=MAX_EXAMPLES, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])

#: Rounds run after the last fault so every entry refreshed during the
#: fault window can age past t2 (4.5 rounds under ROUND_TIMING).
QUIESCENCE_ROUNDS = 8


def _run_under_faults(driver, case):
    """Converge, replay the schedule round by round, quiesce."""
    topology, source, receivers, schedule = case
    # Trace every walk so a failing oracle can explain itself; the ring
    # bound keeps long schedules from hoarding spans.
    driver.attach_tracer(CausalTracer(maxlen=8192))
    player = RoundFaultPlayer(
        topology, schedule,
        on_crash=lambda node: driver.states.pop(node, None),
    )
    for receiver in receivers:
        driver.add_receiver(receiver)
    driver.converge(max_rounds=80)
    start = driver.now
    while not player.exhausted:
        driver.run_round()
        player.advance(driver.now - start)
    for _ in range(QUIESCENCE_ROUNDS):
        driver.run_round()
    driver.converge(max_rounds=80)


def _assert_oracle_holds(driver, case, soft_state):
    topology, source, receivers, schedule = case
    oracle = ConvergenceOracle(topology, source, receivers,
                               routing=driver.routing)
    report = oracle.check_distribution(driver.distribute_data(),
                                       view=soft_state(driver),
                                       explainer=Explainer(driver.causal.dag()))
    if not report.ok:
        # Every finding must come out causally explained (non-empty by
        # construction: the engine says "unexplained: ..." explicitly).
        assert len(report.explanations) == len(report.violations)
        assert all(report.explanations)
    assert report.ok, f"{schedule.describe()}\n{report.render()}"


class TestFaultRecoveryInvariants:
    @FUZZ
    @given(fault_cases())
    def test_hbh_oracle_holds_after_quiescence(self, case):
        topology, source, receivers, schedule = case
        driver = StaticHbh(topology, source,
                           routing=UnicastRouting(topology))
        _run_under_faults(driver, case)
        _assert_oracle_holds(driver, case, hbh_soft_state)

    @FUZZ
    @given(fault_cases(max_nodes=8, max_events=3))
    def test_reunite_oracle_holds_after_quiescence(self, case):
        topology, source, receivers, schedule = case
        driver = StaticReunite(topology, source,
                               routing=UnicastRouting(topology))
        _run_under_faults(driver, case)
        _assert_oracle_holds(driver, case, reunite_soft_state)
