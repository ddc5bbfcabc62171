"""The benchmark's workloads, each driven through public functions.

Every workload is a closed loop in one process with the serial
executor: an instance starts when the previous one has returned.
``setup(seed)`` builds a run's inputs; ``run(inputs)`` executes one
instance and returns an :class:`Outcome`.  A :class:`~speed.CellClock`
records when each cell of an instance ran, so that the worker can scale
its time to the reference speed.

- ``fig7b-sweep``: ``FIGURE_CONFIGS["fig7b"]`` at :data:`FIG7B_RUNS`
  runs per group size, the paper's own workload; the static round
  drivers dominate.
- ``iptv-churn``: ``run_churn("iptv-primetime")`` capped at
  :data:`CHURN_EVENTS` events with both protocols: many small
  channels, joins beside leaves, the workload stream and the always-on
  timeline.
- ``event-faults``: live event-plane HBH channels through a fault storm
  and a mass leave, the only workload that runs ``netsim`` and the HBH
  agents.
"""

from __future__ import annotations

import hashlib
import json
import random
import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, List

from repro.core.protocol import HbhChannel
from repro.experiments import config as experiment_config
from repro.experiments.churn import archive_text, run_churn
from repro.experiments.config import FIGURE_CONFIGS, SweepConfig
from repro.experiments.harness import run_sweep
from repro.experiments.storage import result_to_dict
from repro.netsim.faults import FaultInjector, random_schedule
from repro.netsim.network import Network
from speed import CellClock

#: Runs per group size in fig7b-sweep: 9 group sizes x 8 runs = 72
#: cells per instance (the paper runs 500).
FIG7B_RUNS = 8

#: The churn scenario and its global event cap (the scenario's own
#: million events take minutes; the cap keeps an instance to seconds).
CHURN_SCENARIO = "iptv-primetime"
CHURN_EVENTS = 4_000

#: event-faults: cases per instance, receivers per channel, fault
#: events per storm, and the tree periods given to the joins, to the
#: storm, and to settling after the storm and after the leaves.
FAULT_CASES = 24
FAULT_RECEIVERS = 16
FAULT_EVENTS = 8
JOIN_PERIODS = 8
STORM_PERIODS = 4
SETTLE_PERIODS = 8

#: Registry counters the program emits, totalled per instance.
COUNTERS = (
    "routing.repair.refreshes",
    "routing.repair.origins_changed",
    "routing.repair.nodes_touched",
    "routing.repair.full_rebuilds",
    "core.hbh.control_messages",
    "protocols.reunite.control_messages",
    "netsim.events",
    "netsim.tx.data",
    "netsim.tx.control",
    "netsim.fault.injected",
    "workload.events",
    "workload.edges",
    "verify.oracle.violations",
)
REPAIR_COUNTERS = COUNTERS[:4]


@dataclass
class Outcome:
    """What one instance produced."""

    #: SHA-256 of the instance's outputs, for the correctness gate.
    digest: str
    #: Each cell (a sweep cell, a churn cell or a case) by key: when
    #: it started and its wall seconds (see ``speed.CellClock``).
    cells: Dict[str, List[float]]
    #: Operations attempted and failed, and what went wrong.
    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Registry counters (see :data:`COUNTERS`).
    counters: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(COUNTERS, 0.0))
    #: Membership events the churn players applied.
    churn_events: int = 0
    #: Simulator events executed.
    sim_events: int = 0


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def counter_total(registry, name: str, **labels: str) -> float:
    """Counter ``name`` summed over the label sets matching ``labels``."""
    total = 0.0
    for found, series, counter in registry.collect(name):
        if found == name and all(series.get(key) == value
                                 for key, value in labels.items()):
            total += counter.value
    return total


class SweepWorkload:
    """A figure sweep as ``run_sweep`` runs it: serial, uncached, at a
    pinned run count."""

    def __init__(self, figure: str, runs: int) -> None:
        self.figure = figure
        self.runs = runs

    def setup(self, seed: int) -> SweepConfig:
        return replace(FIGURE_CONFIGS[self.figure], seed=seed,
                       runs=self.runs)

    def planned(self, config: SweepConfig) -> int:
        return len(config.group_sizes) * config.runs

    def run(self, config: SweepConfig) -> Outcome:
        clock = CellClock()
        result = run_sweep(config, jobs=1, bus=clock)
        registry = result.metrics
        archive = result_to_dict(result, canonical=True)
        outcome = Outcome(
            digest=sha256(json.dumps(archive, sort_keys=True)),
            cells=clock.cells, attempted=self.planned(config),
        )
        points = len(config.group_sizes) * len(config.protocols)
        if len(result.points) != points:
            outcome.problems.append(
                f"{len(result.points)} sweep points, expected {points}")
        missing = counter_total(registry, "data.missing")
        if missing:
            outcome.problems.append(f"{missing:g} receivers missed the data")
        if outcome.problems:
            outcome.failed = outcome.attempted
        counters = outcome.counters
        for name in REPAIR_COUNTERS:
            counters[name] = counter_total(registry, name)
        counters["core.hbh.control_messages"] = counter_total(
            registry, "control.messages", protocol="hbh")
        counters["protocols.reunite.control_messages"] = counter_total(
            registry, "control.messages", protocol="reunite")
        return outcome


class ChurnWorkload:
    """``run_churn`` on one scenario with both protocols, serial."""

    def setup(self, seed: int) -> int:
        return seed

    def planned(self, seed: int) -> int:
        return 1

    def run(self, seed: int) -> Outcome:
        clock = CellClock()
        payloads = run_churn(CHURN_SCENARIO, seed=seed, jobs=1,
                             events=CHURN_EVENTS, bus=clock)

        def total(name: str, protocol: str = "") -> float:
            return sum(cell["metrics"].get(name, {}).get("value", 0.0)
                       for cell in payloads
                       if protocol in ("", cell["protocol"]))

        checked = int(total("churn.oracle.checked"))
        violations = int(total("churn.oracle.violations"))
        outcome = Outcome(
            digest=sha256(archive_text(payloads, CHURN_SCENARIO, seed)),
            cells=clock.cells,
            attempted=checked,
            failed=min(checked, violations),
            churn_events=sum(cell["events_applied"] for cell in payloads),
        )
        if violations:
            outcome.problems.append(
                f"{violations} convergence-oracle violations")
        if not checked:
            outcome.attempted = outcome.failed = 1
            outcome.problems.append("no oracle spot check ran")
        counters = outcome.counters
        counters["core.hbh.control_messages"] = total("control.messages",
                                                      "hbh")
        counters["protocols.reunite.control_messages"] = total(
            "control.messages", "reunite")
        counters["workload.events"] = (total("churn.events.join")
                                       + total("churn.events.leave"))
        counters["workload.edges"] = (total("churn.edges.join")
                                      + total("churn.edges.leave"))
        counters["verify.oracle.violations"] = violations
        return outcome


class EventFaultsWorkload:
    """Live HBH channels on the event plane, through a fault storm.

    Each case builds a ``Network`` on a fresh random50 topology with an
    ``HbhChannel`` of :data:`FAULT_RECEIVERS` receivers and measures one
    data packet three times: after the joins converge, after a
    ``random_schedule`` storm played by a ``FaultInjector`` has healed,
    and after every other receiver has left.
    """

    def setup(self, seed: int) -> List[str]:
        return [f"perfbench/event-faults/{seed}/{case}"
                for case in range(FAULT_CASES)]

    def planned(self, cases: List[str]) -> int:
        return 3 * len(cases)

    def run(self, cases: List[str]) -> Outcome:
        clock = CellClock()
        outcome = Outcome(digest="", cells=clock.cells, attempted=0)
        outputs = []
        for case in cases:
            network, measured = clock.time(case, self._case, case)
            for phase, distribution in measured:
                outputs.append([case, phase, distribution.to_dict()])
                outcome.attempted += 1
                missing = sorted(distribution.missing)
                duplicated = sorted(distribution.duplicate_deliveries())
                if missing or duplicated:
                    outcome.failed += 1
                    outcome.problems.append(
                        f"{case} {phase}: missing {missing}, "
                        f"duplicated {duplicated}")
            self._count(outcome, network)
        outcome.digest = sha256(json.dumps(outputs, sort_keys=True))
        return outcome

    @staticmethod
    def _case(name: str):
        # The factory is looked up at call time so that the traced run
        # sees its wrapper.
        setup = experiment_config.make_random50_setup(name)
        receivers = sorted(random.Random(name).sample(setup.candidates,
                                                      FAULT_RECEIVERS))
        network = Network(setup.topology)
        channel = HbhChannel(network, source_node=setup.source)
        for receiver in receivers:
            channel.join(receiver)
        channel.converge(periods=JOIN_PERIODS)
        measured = [("join", channel.measure_data())]
        storm = random_schedule(
            setup.topology, setup.source, receivers,
            seed=zlib.crc32(name.encode()), events=FAULT_EVENTS,
            horizon=STORM_PERIODS * channel.timing.tree_period)
        FaultInjector(network, storm,
                      time_offset=network.simulator.now).arm()
        channel.converge(periods=STORM_PERIODS + SETTLE_PERIODS)
        measured.append(("storm", channel.measure_data()))
        for receiver in receivers[::2]:
            channel.leave(receiver)
        channel.converge(periods=SETTLE_PERIODS)
        measured.append(("leave", channel.measure_data()))
        return network, measured

    @staticmethod
    def _count(outcome: Outcome, network: Network) -> None:
        registry = network.metrics
        network.routing.export_repair_metrics(registry)
        counters = outcome.counters
        for name in REPAIR_COUNTERS:
            counters[name] += counter_total(registry, name)
        counters["netsim.events"] += counter_total(registry, "engine.events")
        counters["netsim.tx.data"] += counter_total(
            registry, "net.tx.copies", kind="data")
        counters["netsim.tx.control"] += counter_total(
            registry, "net.tx.copies", kind="control")
        counters["netsim.fault.injected"] += sum(
            counter.value
            for _name, _labels, counter in registry.collect("fault.injected."))
        outcome.sim_events += network.simulator.events_executed


WORKLOADS = {
    "fig7b-sweep": SweepWorkload("fig7b", runs=FIG7B_RUNS),
    "iptv-churn": ChurnWorkload(),
    "event-faults": EventFaultsWorkload(),
}
