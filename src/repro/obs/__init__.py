"""Unified observability layer: metrics, tracing and profiling.

Every quantitative claim in the paper (tree cost in packet copies,
control overhead, delay ratios — Section 4) flows through this package
so that all protocols are measured by the same instruments:

- :mod:`repro.obs.registry` — a :class:`MetricsRegistry` of counters,
  gauges and histograms (p50/p95/p99), labeled by channel ``<S,G>``,
  protocol and node.  HBH, REUNITE and the PIM baselines emit the
  *same* metric names, so benchmarks compare them through one registry.
- :mod:`repro.obs.profiling` — wall-clock ``@profiled`` spans forming
  a hierarchical timer tree, wired into the netsim engine loop, the
  Dijkstra/route-table builds and the experiment harness
  (``python -m repro.experiments report --profile`` renders it).
- :mod:`repro.obs.causal` — causal control-plane tracing: every
  join/tree/fusion walk and data fan-out leg becomes a span with a
  ``trace_id``/``span_id``/``parent_id``, so cascades reconstruct as a
  span DAG with per-span table effects.
- :mod:`repro.obs.flight` — a per-channel flight recorder: bounded
  ring of finished spans interleaved with per-round table snapshots,
  replayable after the fact.
- :mod:`repro.obs.timeline` — the tree-dynamics timeline: table
  mutations become a deterministic per-protocol/per-channel event
  stream (branch/entry add/remove, reroutes, fusion marks) and an
  online :class:`ConvergenceMonitor` pairs each perturbation with the
  sim-time at which the tree re-stabilises.
- :mod:`repro.obs.explain` — the explain engine: walk the span DAG
  backwards from a table entry or oracle violation and render the
  human-readable causal chain.
- :mod:`repro.obs.bus` — the live sweep telemetry bus: workers stream
  per-cell progress events (started/finished/cached/retried, registry
  snapshots) to the parent, which renders live progress and keeps an
  in-flight merged registry.
- :mod:`repro.obs.export` — OpenMetrics text exposition for any
  registry, plus the ``/metrics`` endpoint behind the CLI's
  ``--metrics-port``; not imported here, as it loads ``http.server``.
- :mod:`repro.obs.bench` — the timed benchmark suite and persisted
  ``BENCH_<rev>.json`` baselines with the regression gate behind
  ``python -m repro.experiments bench --check``.

The package sits below every other layer (it imports nothing from the
rest of :mod:`repro` at module load), so any module can instrument
itself without creating import cycles.
"""

from repro.obs.bus import LiveProgressView, QueueListener, TelemetryBus
from repro.obs.causal import (
    CausalTracer,
    Effect,
    Span,
    SpanDag,
    read_spans,
    span_from_dict,
)
from repro.obs.explain import Explainer, Explanation
from repro.obs.flight import FlightEntry, FlightRecorder
from repro.obs.profiling import PROFILER, Profiler, SpanStats, profiled
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    channel_label,
)
from repro.obs.timeline import (
    ConvergenceMonitor,
    TimelineEvent,
    TreeTimeline,
    event_from_dict,
    read_events,
    write_events_jsonl,
)

__all__ = [
    "LiveProgressView",
    "QueueListener",
    "TelemetryBus",
    "CausalTracer",
    "Effect",
    "Explainer",
    "Explanation",
    "FlightEntry",
    "FlightRecorder",
    "Span",
    "SpanDag",
    "read_spans",
    "span_from_dict",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "channel_label",
    "PROFILER",
    "Profiler",
    "SpanStats",
    "profiled",
    "ConvergenceMonitor",
    "TimelineEvent",
    "TreeTimeline",
    "event_from_dict",
    "read_events",
    "write_events_jsonl",
]
