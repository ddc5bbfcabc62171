"""Work ledger of the fault plane: exact counts for ``primary-cut``.

Runs the named ``primary-cut`` fault scenario at seed 1 (one live HBH
channel on the event plane; the primary tree link is cut once and the
soft state re-routes around it) and pins the work recorded in its
registry: rule applications per message kind, simulator events, link
transmissions, injected faults, routing repairs and the recovery
figures.  The counts are exact on any host.  A change that only makes
the same work cheaper leaves them alone; a change that alters them
updates this ledger and says why.
"""

import pytest

from repro.experiments.faults import run_scenario


@pytest.fixture(scope="module")
def registry():
    _, metrics = run_scenario("primary-cut", seed=1)
    return metrics


def by_name(registry, prefix):
    """Every unlabelled series under ``prefix``, keyed by metric name."""
    return {name: instrument.value
            for name, labels, instrument in registry.collect(prefix)
            if not labels}


class TestFaultsLedger:
    def test_rule_events_per_message_kind(self, registry):
        counts = {
            labels["message"]: instrument.value
            for _, labels, instrument in registry.collect(
                "control.rule_events")
        }
        assert counts == {"join": 31, "tree": 28}

    def test_simulator_events(self, registry):
        assert registry.value("engine.events") == 158

    def test_link_transmissions(self, registry):
        assert registry.value("net.tx.copies", kind="control") == 80
        assert registry.value("net.tx.copies", kind="data") == 9
        assert registry.value("net.tx.weighted_cost",
                              kind="control") == 104.0
        assert registry.value("net.tx.weighted_cost", kind="data") == 21.0

    def test_injected_faults(self, registry):
        assert by_name(registry, "fault.") == {"fault.injected.link_down": 1}

    def test_routing_repairs(self, registry):
        assert by_name(registry, "routing.repair.") == {
            "routing.repair.full_rebuilds": 0,
            "routing.repair.nodes_touched": 14,
            "routing.repair.origins_changed": 4,
            "routing.repair.origins_clean": 0,
            "routing.repair.refreshes": 4,
        }

    def test_recovery(self, registry):
        labels = {"scenario": "primary-cut", "protocol": "hbh"}
        assert registry.histogram("recovery.time", **labels).values() == [50.0]
        assert registry.value("recovery.loss", **labels) == 0
