"""Work ledger of the static drivers: exact counts for a one-run Fig. 7(b).

Runs the paper's Fig. 7(b) sweep (random50, group sizes 5-45, the four
protocols) at one run per group size and pins the work its round
drivers did: control messages per protocol, and the convergence rounds
every join took.  The counts are exact on any host.  A change that only
makes the same work cheaper leaves them alone; a change that alters
them updates this ledger and says why.
"""

from collections import defaultdict
from dataclasses import replace

import pytest

from repro.exec.sweep import run_sweep
from repro.experiments.config import FIGURE_CONFIGS


@pytest.fixture(scope="module")
def registry():
    config = replace(FIGURE_CONFIGS["fig7b"], runs=1, seed=1)
    return run_sweep(config, jobs=1).metrics


def per_protocol(registry, name):
    """Every series of ``name``, grouped by its ``protocol`` label."""
    totals = defaultdict(list)
    for metric, labels, instrument in registry.collect(name):
        if metric == name:
            totals[labels["protocol"]].append(instrument)
    return totals


class TestFig7bLedger:
    def test_control_messages(self, registry):
        counts = {
            protocol: sum(counter.value for counter in counters)
            for protocol, counters in per_protocol(
                registry, "control.messages").items()
        }
        assert counts == {"hbh": 158512, "reunite": 19873,
                          "pim-sm": 505, "pim-ss": 519}

    def test_join_convergence_rounds(self, registry):
        histograms = per_protocol(registry, "join.converge.rounds")
        rounds = {
            protocol: (sum(h.sum for h in series),
                       sum(h.count for h in series))
            for protocol, series in histograms.items()
            if protocol in ("hbh", "reunite")
        }
        assert rounds == {"hbh": (1683, 9), "reunite": (619, 9)}
