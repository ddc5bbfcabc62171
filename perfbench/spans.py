"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public entry points of each ``repro`` layer from the
outside (nothing under ``src/`` changes) and records one span per call:
layer, parent span, cell identifier, start and end.  A layer's self
time is its span duration minus the time its child spans cover, so the
self times of every span under an instance root add up to the
instance's wall time; whatever no layer wrapper covers stays on the
root and on the cell markers and is reported as ``unattributed_s``.

Wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.uninstall`, so the untraced runs that report end-to-end
metrics execute the program unmodified.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Spans kept for the written-out log.  Per-layer totals are always
#: complete; only the log stops growing past this many spans.
SPAN_LOG_CAP = 100_000

#: Pseudo-layers whose self time no layer wrapper covers.
ROOT = "instance"
CELL = "exec.cell"
#: The benchmark's own host-speed samples (``speed.py``): a span of
#: their own, so that no layer and not ``unattributed_s`` is charged.
REFERENCE = "perfbench.reference"

_clock = time.perf_counter


class Tracer:
    """Span stack, per-layer self-time totals and plain counters."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: List[Tuple[int, int, str, int, float, float]] = []
        self.spans_dropped = 0
        self.cell = 0
        # Open spans, innermost last: [span id, layer, start, child time].
        self._stack: List[list] = []
        self._next_id = 1
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _open(self, layer: str) -> list:
        frame = [self._next_id, layer, _clock(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = _clock()
        span_id, layer, start, child = frame
        stack = self._stack
        stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        self.calls[layer] += 1
        parent = 0
        if stack:
            stack[-1][3] += duration
            parent = stack[-1][0]
        if len(self.spans) < SPAN_LOG_CAP:
            self.spans.append((span_id, parent, layer, self.cell, start, end))
        else:
            self.spans_dropped += 1

    def span(self, layer: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer``.

        A call made directly inside a span of the same layer (a wrapped
        factory called by a wrapped builder) folds into the outer span,
        so call counts count entries into the layer.
        """
        stack = self._stack
        if stack and stack[-1][1] == layer:
            return fn(*args, **kwargs)
        frame = self._open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame)

    def wrap(self, layer: str, fn: Callable,
             on_result: Optional[Callable[[object], None]] = None
             ) -> Callable:
        """``fn`` in a span of ``layer``; ``on_result`` sees each return
        value (used to sum the rounds ``converge`` reports)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.span(layer, fn, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def wrap_count(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a call counter and no span: a thin hot entry
        point whose time belongs to the enclosing span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def wrap_iter(self, layer: str, fn: Callable) -> Callable:
        """``fn`` returns a lazy iterator; every ``next`` on it is a
        span of ``layer``, because that is where the work happens."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._iterate(layer, fn(*args, **kwargs))
        return traced

    def _iterate(self, layer: str, iterator: Iterator) -> Iterator:
        iterator = iter(iterator)
        while True:
            frame = self._open(layer)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(frame)
            yield item

    def cell_fn(self, fn: Optional[Callable]) -> Optional[Callable]:
        """``fn`` as a cell: a fresh cell identifier and a marker span."""
        if fn is None:
            return None
        tracer = self

        @functools.wraps(fn)
        def cell(*args, **kwargs):
            tracer.cell += 1
            tracer.counts["exec.cells"] += 1
            return tracer.span(CELL, fn, *args, **kwargs)
        return cell

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner: object, name: str, replacement: object) -> None:
        """Set ``owner.name`` (``owner[name]`` for a dict), remembering
        the original for :meth:`uninstall`."""
        if isinstance(owner, dict):
            self._patches.append((owner, name, owner[name]))
            owner[name] = replacement
        else:
            self._patches.append((owner, name, vars(owner)[name]))
            setattr(owner, name, replacement)

    def patch_everywhere(self, original: Callable,
                         replacement: Callable) -> int:
        """Replace ``original`` in every loaded ``repro`` module that
        imported it by name and in module-level registries (upper-case
        dicts) holding it; returns how many sites were patched."""
        sites = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, replacement)
                    sites += 1
                elif isinstance(value, dict) and attr.isupper():
                    for key, entry in list(value.items()):
                        if entry is original:
                            self.patch(value, key, replacement)
                            sites += 1
        return sites

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    def install(self) -> None:
        """Wrap the public entry points of every layer.

        Each wrapper names the layer the call enters; the per-layer
        metrics in ``BENCHMARK.json`` are computed from these names by
        :func:`layer_metrics`.
        """
        from repro.core.receiver import HbhReceiverAgent
        from repro.core.router import HbhRouterAgent
        from repro.core.source import HbhSourceAgent
        from repro.exec.executor import SweepExecutor
        from repro.experiments import churn, config, harness
        from repro.netsim.engine import Simulator
        from repro.netsim.node import Node
        from repro.obs.registry import MetricsRegistry
        from repro.obs.timeline import ConvergenceMonitor, TreeTimeline
        from repro.protocols.base import MulticastProtocol
        from repro.protocols.hbh_adapter import HbhProtocol
        from repro.protocols.pim.protocol import PimSmProtocol, PimSsProtocol
        from repro.protocols.reunite.protocol import ReuniteProtocol
        from repro.routing import dijkstra
        from repro.routing.tables import UnicastRouting
        from repro.verify.oracle import ConvergenceOracle
        from repro.workload.driver import RoundChurnPlayer
        from repro.workload.schedule import ChurnSchedule

        import speed

        def method(cls, name, layer, on_result=None):
            self.patch(cls, name,
                       self.wrap(layer, vars(cls)[name], on_result))

        def function(fn, layer):
            self.patch_everywhere(fn, self.wrap(layer, fn))

        def add_rounds(name):
            def on_result(rounds):
                self.counts[name] += rounds
            return on_result

        self.patch(speed, "reference", self.wrap(REFERENCE, speed.reference))
        # topology
        method(config.SweepConfig, "build_topology", "topology.build")
        for factory in (config.make_isp_setup, config.make_random50_setup,
                        config.make_waxman10k_setup, churn.scenario_setup):
            function(factory, "topology.build")
        # routing
        function(dijkstra.shortest_paths_from, "routing.dijkstra")
        self._install_table(UnicastRouting)
        # core: the static HBH driver, then the event-plane agents
        method(HbhProtocol, "converge", "core.hbh.converge",
               add_rounds("core.hbh.rounds"))
        method(HbhProtocol, "distribute_data", "core.hbh.distribute")
        method(HbhProtocol, "add_receiver", "core.hbh.add_receiver")
        method(HbhProtocol, "remove_receiver", "core.hbh.remove_receiver")
        method(HbhRouterAgent, "intercept", "core.agents")
        method(HbhSourceAgent, "intercept", "core.agents")
        method(HbhReceiverAgent, "deliver", "core.agents")
        self.patch(Node, "receive",
                   self.wrap_count("netsim.receive.calls", Node.receive))
        # protocols
        method(ReuniteProtocol, "converge", "protocols.reunite.converge",
               add_rounds("protocols.reunite.rounds"))
        method(ReuniteProtocol, "distribute_data",
               "protocols.reunite.distribute")
        for name in ("add_receiver", "remove_receiver"):
            method(ReuniteProtocol, name, "protocols.reunite.membership")
        for cls in (PimSmProtocol, PimSsProtocol):
            for name in ("add_receiver", "remove_receiver", "converge",
                         "distribute_data"):
                method(cls, name, "protocols.pim")
        # netsim
        method(Simulator, "run", "netsim.run")
        # workload
        self.patch(ChurnSchedule, "events",
                   self.wrap_iter("workload.generate", ChurnSchedule.events))
        method(RoundChurnPlayer, "advance", "workload.advance")
        # obs
        for name in ("observe_tables", "control", "perturb", "poll"):
            method(TreeTimeline, name, "obs.timeline")
        method(ConvergenceMonitor, "poll", "obs.timeline")
        method(MulticastProtocol, "record_metrics", "obs.registry")
        method(MetricsRegistry, "merge_snapshot", "obs.registry")
        function(churn.digest_registry, "obs.registry")
        # verify
        method(ConvergenceOracle, "check", "verify.oracle")
        # exec / experiments
        self._install_executor(SweepExecutor)
        function(harness.run_single, "experiments.run_single")

    def _install_table(self, cls) -> None:
        """``UnicastRouting.table`` as a span that also counts the
        tables served without running a Dijkstra."""
        original = vars(cls)["table"]
        tracer = self
        calls = self.calls

        @functools.wraps(original)
        def table(routing, node):
            before = calls["routing.dijkstra"]
            result = tracer.span("routing.table", original, routing, node)
            if calls["routing.dijkstra"] == before:
                tracer.counts["routing.table.reused"] += 1
            return result
        self.patch(cls, "table", table)

    def _install_executor(self, cls) -> None:
        """``SweepExecutor.map_cells`` as a span whose cells are marked,
        so its self time is the executor's own overhead."""
        original = vars(cls)["map_cells"]
        tracer = self

        @functools.wraps(original)
        def map_cells(executor, tasks):
            marked = [
                dataclasses.replace(task, fn=tracer.cell_fn(task.fn),
                                    local_fn=tracer.cell_fn(task.local_fn))
                for task in tasks
            ]
            try:
                return tracer.span("exec.map_cells", original, executor,
                                   marked)
            finally:
                tracer.counts["exec.retries"] += executor.stats.retries
        self.patch(cls, "map_cells", map_cells)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write_spans(self, path) -> None:
        """Write the span log as JSON lines after one header line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({
                "fields": ["id", "parent", "layer", "cell", "start", "end"],
                "spans": len(self.spans),
                "dropped": self.spans_dropped,
            }) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, instances: int,
                  counters: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of ``BENCHMARK.json``, per instance.

    Self times and call counts come from ``tracer``; ``counters`` are
    the registry counters the program itself emitted during one
    instance (every instance emits the same).
    """
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts

    def per(value: float) -> float:
        return value / instances

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hbh_rounds = per(counts["core.hbh.rounds"])
    return {
        "topology.build.calls": per(calls["topology.build"]),
        "topology.build.self_s": per(self_s["topology.build"]),
        "routing.dijkstra.calls": per(calls["routing.dijkstra"]),
        "routing.dijkstra.self_s": per(self_s["routing.dijkstra"]),
        "routing.table.calls": per(calls["routing.table"]),
        "routing.table.self_s": per(self_s["routing.table"]),
        "routing.table.reuse_ratio": ratio(counts["routing.table.reused"],
                                           calls["routing.table"]),
        "routing.repair.refreshes": counters["routing.repair.refreshes"],
        "routing.repair.origins_changed":
            counters["routing.repair.origins_changed"],
        "routing.repair.nodes_touched":
            counters["routing.repair.nodes_touched"],
        "routing.repair.full_rebuilds":
            counters["routing.repair.full_rebuilds"],
        "core.hbh.converge.calls": per(calls["core.hbh.converge"]),
        "core.hbh.converge.self_s": per(self_s["core.hbh.converge"]),
        "core.hbh.rounds": hbh_rounds,
        "core.hbh.distribute.self_s": per(self_s["core.hbh.distribute"]),
        "core.hbh.add_receiver.calls": per(calls["core.hbh.add_receiver"]),
        "core.hbh.remove_receiver.calls":
            per(calls["core.hbh.remove_receiver"]),
        "core.hbh.membership.self_s":
            per(self_s["core.hbh.add_receiver"]
                + self_s["core.hbh.remove_receiver"]),
        "core.hbh.control_messages": counters["core.hbh.control_messages"],
        "core.hbh.messages_per_round":
            ratio(counters["core.hbh.control_messages"], hbh_rounds),
        "core.agents.self_s": per(self_s["core.agents"]),
        "netsim.receive.calls": per(counts["netsim.receive.calls"]),
        "protocols.reunite.converge.self_s":
            per(self_s["protocols.reunite.converge"]),
        "protocols.reunite.rounds": per(counts["protocols.reunite.rounds"]),
        "protocols.reunite.distribute.self_s":
            per(self_s["protocols.reunite.distribute"]),
        "protocols.reunite.membership.self_s":
            per(self_s["protocols.reunite.membership"]),
        "protocols.reunite.control_messages":
            counters["protocols.reunite.control_messages"],
        "protocols.pim.self_s": per(self_s["protocols.pim"]),
        "netsim.run.self_s": per(self_s["netsim.run"]),
        "netsim.events": counters["netsim.events"],
        "netsim.tx.data": counters["netsim.tx.data"],
        "netsim.tx.control": counters["netsim.tx.control"],
        "netsim.fault.injected": counters["netsim.fault.injected"],
        "workload.generate.self_s": per(self_s["workload.generate"]),
        "workload.advance.self_s": per(self_s["workload.advance"]),
        "workload.events": counters["workload.events"],
        "workload.edges": counters["workload.edges"],
        "workload.edge_ratio": ratio(counters["workload.edges"],
                                     counters["workload.events"]),
        "obs.timeline.calls": per(calls["obs.timeline"]),
        "obs.timeline.self_s": per(self_s["obs.timeline"]),
        "obs.registry.self_s": per(self_s["obs.registry"]),
        "verify.oracle.calls": per(calls["verify.oracle"]),
        "verify.oracle.self_s": per(self_s["verify.oracle"]),
        "verify.oracle.violations": counters["verify.oracle.violations"],
        "exec.cells": per(counts["exec.cells"]),
        "exec.overhead_s": per(self_s["exec.map_cells"]),
        "exec.retries": per(counts["exec.retries"]),
        "experiments.run_single.self_s":
            per(self_s["experiments.run_single"]),
        "unattributed_s": per(self_s[ROOT] + self_s[CELL]),
    }
