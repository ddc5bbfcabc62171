"""The ``experiments explain`` subcommand: causal chains on demand.

Two scenario families, both deterministic (golden-file friendly):

- ``fig2`` (default) — the paper's Fig. 2 walkthrough on the static
  driver: receivers 11 and 13 join, the control plane converges, and
  the output renders the full join -> tree -> fusion causal chain
  behind every source-MFT and branching-node MFT entry, plus the
  flight-recorder readout and the convergence oracle's verdict.
- any named fault scenario (``flap-storm``, ``primary-cut``, ...) —
  the event-driven channel from :mod:`repro.experiments.faults` run
  with tracing on; the output explains each receiver's post-repair
  delivery chain.

``--query "NODE.TABLE[ADDRESS]"`` asks one targeted question instead
(e.g. ``3.mft[11]``: why does router 3 hold an MFT entry for 11?).
"""

from __future__ import annotations

import re
from typing import Hashable, List, Optional, Tuple

from repro.errors import ExperimentError
from repro.obs.causal import CausalTracer, SpanDag
from repro.obs.explain import Explainer
from repro.obs.flight import FlightRecorder
from repro.topology.paper import FIG2_SOURCE, fig2_topology

#: The Fig. 2 walkthrough membership: r11 joins over the cheap path,
#: r13's join is intercepted at the branching node — together they
#: exercise join interception, tree regeneration and fusion.
FIG2_SCENARIO = "fig2"
FIG2_EXPLAIN_RECEIVERS = (11, 13)
#: The protocols whose static drivers the Fig. 2 walkthrough explains.
EXPLAIN_PROTOCOLS = ("hbh", "reunite")


def explain_protocols(scenario: str) -> Tuple[str, ...]:
    """The protocols ``explain`` can render on ``scenario``: a fault
    scenario runs only HBH's event-plane channel."""
    return EXPLAIN_PROTOCOLS if scenario == FIG2_SCENARIO else ("hbh",)


_QUERY_RE = re.compile(r"^\s*(?P<node>[^.]+)\.(?P<table>[\w-]+)"
                       r"\[(?P<address>[^\]]+)\]\s*$")


def parse_query(query: str) -> Tuple[str, str, str]:
    """Parse ``NODE.TABLE[ADDRESS]`` (e.g. ``3.mft[11]``)."""
    match = _QUERY_RE.match(query)
    if match is None:
        raise ExperimentError(
            f"bad --query {query!r}: expected NODE.TABLE[ADDRESS], "
            f"e.g. 3.mft[11]"
        )
    return match.group("node"), match.group("table"), match.group("address")


def _tracer_summary(tracer: CausalTracer) -> str:
    return f"{len(tracer)} spans recorded ({tracer.dropped} dropped)"


def _mft_addresses(mft) -> List[Hashable]:
    """Addresses held by an HBH or REUNITE MFT, in stable order."""
    if hasattr(mft, "addresses"):  # HBH Mft
        return sorted(mft.addresses(), key=str)
    addresses = [entry.address for entry in mft.receivers()]  # REUNITE
    if mft.dst is not None:
        addresses.append(mft.dst.address)
    return sorted(addresses, key=str)


def _explain_static(protocol: str, query: Optional[str],
                    tracer: CausalTracer, flight: FlightRecorder
                    ) -> Tuple[str, int]:
    """The Fig. 2 walkthrough on a static driver, fully explained."""
    from repro.routing.tables import shared_routing
    from repro.verify import ConvergenceOracle

    topology = fig2_topology()
    routing = shared_routing(topology)
    if protocol == "hbh":
        from repro.core.static_driver import StaticHbh
        from repro.verify import hbh_soft_state as soft_state

        driver = StaticHbh(topology, FIG2_SOURCE, routing=routing)
        source_table = "source-mft"
        source_mft = driver.source_mft
    else:
        from repro.protocols.reunite.static_driver import StaticReunite
        from repro.verify import reunite_soft_state as soft_state

        driver = StaticReunite(topology, FIG2_SOURCE, routing=routing)
        source_table = "mft"
        source_mft = None  # resolved after convergence (lazily created)
    driver.attach_tracer(tracer, flight=flight)
    for receiver in FIG2_EXPLAIN_RECEIVERS:
        driver.add_receiver(receiver)
    rounds = driver.converge(max_rounds=80)
    if protocol == "reunite":
        source_mft = driver.source_state.mft

    explainer = Explainer(tracer.dag(), flight=flight)
    lines = [
        f"== causal explain: Fig. 2 walkthrough ({protocol}) ==",
        f"source {FIG2_SOURCE}, receivers "
        + ", ".join(str(r) for r in FIG2_EXPLAIN_RECEIVERS),
        f"converged in {rounds} rounds; {_tracer_summary(tracer)}",
        "",
    ]
    if query is not None:
        node, table, address = parse_query(query)
        lines.append(explainer.explain_entry(node, table, address).render())
        return "\n".join(lines) + "\n", 0

    lines.append("-- why the source's MFT holds each direct child "
                 "(join chain) --")
    for address in ([] if source_mft is None else _mft_addresses(source_mft)):
        lines.append(explainer.explain_entry(
            FIG2_SOURCE, source_table, address).render())
    lines.append("")
    lines.append("-- why each branching router forwards (tree chain) --")
    for node in sorted(driver.branching_nodes(), key=str):
        if node == FIG2_SOURCE:
            continue
        mft = driver.states[node].mft
        for address in ([] if mft is None else _mft_addresses(mft)):
            lines.append(explainer.explain_entry(node, "mft",
                                                 address).render())
    lines.append("")
    lines.append("-- fusion outcomes --")
    fusions = [s for s in tracer.dag().spans() if s.name == "fusion"]
    if fusions:
        # The last fusion per origin node: the settled picture.
        last = {}
        for span in fusions:
            last[str(span.node)] = span
        for key in sorted(last):
            lines.append(explainer.explain_span(last[key]).render())
    else:
        lines.append("(no fusion messages: the tree had no adoptable "
                     "branching nodes)")
    lines.append("")
    lines.append("-- flight recorder (last two rounds) --")
    for channel in flight.channels():
        entries = flight.entries(channel)
        lines.append(f"channel {channel}: {len(entries)} entries retained")
        # The tail of the ring: everything from the second-to-last
        # round snapshot on — the settled per-round rhythm.
        snapshot_at = [i for i, e in enumerate(entries)
                       if e.kind == "snapshot"]
        start = snapshot_at[-3] + 1 if len(snapshot_at) >= 3 else 0
        if start:
            lines.append(f"  ... ({start} earlier entries)")
        for entry in entries[start:]:
            lines.append(f"  {entry.render()}")
    lines.append("")
    lines.append("-- oracle --")
    oracle = ConvergenceOracle(topology, FIG2_SOURCE,
                               FIG2_EXPLAIN_RECEIVERS, routing=routing)
    report = oracle.check_distribution(driver.distribute_data(),
                                       view=soft_state(driver),
                                       explainer=explainer)
    lines.append(report.render())
    return "\n".join(lines) + "\n", 0 if report.ok else 1


def _explain_fault(scenario: str, query: Optional[str], seed: int,
                   tracer: CausalTracer, flight: FlightRecorder
                   ) -> Tuple[str, int]:
    """A named fault scenario run event-driven with tracing on."""
    from repro.experiments.faults import FAST, SCENARIOS, run_scenario

    result, _registry = run_scenario(scenario, seed=seed, tracer=tracer,
                                     flight=flight)
    dag = tracer.dag()
    explainer = Explainer(dag, flight=flight)
    lines = [
        f"== causal explain: fault scenario {scenario!r} "
        f"(hbh, seed {seed}) ==",
        SCENARIOS[scenario].description,
        "",
        f"faults applied: {result.applied}, "
        f"last fault at t={result.last_fault_time:g}",
    ]
    if result.recovered:
        lines.append(
            f"recovered {result.recovery_time:g} after the last fault "
            f"({result.recovery_time / FAST.tree_period:g} tree periods)")
    else:
        lines.append("DID NOT RECOVER")
    lines.append(_tracer_summary(tracer))
    lines.append("")
    if query is not None:
        node, table, address = parse_query(query)
        lines.append(explainer.explain_entry(node, table, address).render())
        return "\n".join(lines) + "\n", 0 if result.recovered else 1

    lines.append("-- post-repair delivery chains --")
    for receiver in SCENARIOS[scenario].receivers:
        span = _last_delivery(dag, receiver)
        if span is None:
            lines.append(f"receiver {receiver}: no delivery span retained")
            continue
        lines.append(explainer.explain_span(span).render())
    return "\n".join(lines) + "\n", 0 if result.recovered else 1


def _last_delivery(dag: SpanDag, receiver: Hashable):
    """The most recent data span that ended delivered at ``receiver``."""
    wanted = f"delivered to {receiver} "
    last = None
    for span in dag.spans():
        if span.name == "data" and span.outcome.startswith(wanted):
            last = span
    return last


def run_explain(scenario: str = FIG2_SCENARIO, protocol: str = "hbh",
                query: Optional[str] = None, seed: int = 1,
                tracer: Optional[CausalTracer] = None,
                flight: Optional[FlightRecorder] = None
                ) -> Tuple[str, int]:
    """Run one explain scenario; returns (rendered text, exit code).

    Callers may pass their own ``tracer``/``flight`` to archive the raw
    spans and ring afterwards (the CLI's ``--trace-out``/``--flight-out``).
    """
    known = explain_protocols(scenario)
    if protocol not in known:
        raise ExperimentError(
            f"explain supports protocols {', '.join(known)} on "
            f"{scenario!r}, not {protocol!r}"
        )
    tracer = tracer if tracer is not None else CausalTracer()
    flight = flight if flight is not None else FlightRecorder()
    if scenario == FIG2_SCENARIO:
        return _explain_static(protocol, query, tracer, flight)
    return _explain_fault(scenario, query, seed, tracer, flight)
