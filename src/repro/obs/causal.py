"""Causal control-plane tracing: spans, traces and span DAGs.

HBH's whole contribution is a three-message causal chain
(``join`` -> ``tree`` -> ``fusion``) whose interleaving under
asymmetric routing determines the tree shape.  A flat event log cannot
answer "*which* intercepted join caused this MFT entry"; this module
records the causality itself:

- a **trace** groups everything caused by one origin event on one
  channel (a receiver's periodic join, the source's tree emission of
  one round, one data packet injection).  Its id is a human-readable
  string such as ``<0,G>/12.join@r3``.
- a **span** is one message walk (or data fan-out leg) inside a trace:
  it knows its parent span — the message whose rule processing
  originated it — so a join interception that re-originates a join, a
  tree that regenerates trees and fusions, and a branching node's data
  copies all become edges of a **span DAG**.
- an **effect** records one table mutation a span performed
  (``(node, table, address, action)``), which is what lets the explain
  engine walk backwards from "router X has MFT entry Y" to the origin
  event that put it there.

The tracer is **off by default and off the hot path**: drivers hold an
``Optional[CausalTracer]`` and guard every call site with a single
``is None`` / ``enabled`` check, so Monte-Carlo sweeps pay nothing.

This module sits in the obs layer: it imports nothing from the rest of
:mod:`repro`, so every layer above (core, netsim, protocols, verify)
can instrument itself without import cycles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    IO,
    Any,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

PathOrFile = Union[str, Path, IO[str]]

#: Span names used by the instrumented drivers (anything goes, but
#: these are the vocabulary tests and the explain engine rely on).
JOIN = "join"
INITIAL_JOIN = "join*"
TREE = "tree"
FUSION = "fusion"
DATA = "data"


@dataclass(frozen=True, slots=True)
class Effect:
    """One table mutation performed while processing a span's message."""

    node: Hashable
    table: str  # "mft", "mct", "source-mft", ...
    address: Hashable
    action: str  # "add", "refresh-join", "refresh-tree", "mark", ...
    t: float

    def __str__(self) -> str:
        return (f"{self.node}.{self.table}[{self.address}] "
                f"{self.action} @t={self.t:g}")


@dataclass(slots=True)
class Span:
    """One message walk: where it started, what it did, what caused it.

    Mutable on purpose — a walk's ``outcome`` and ``effects`` are only
    known as the message travels; the identity fields never change.
    """

    span_id: int
    trace_id: str
    parent_id: Optional[int]
    name: str  # "join", "join*", "tree", "fusion", "data"
    node: Hashable  # origin node of the walk
    t: float  # virtual time the walk started
    channel: str  # rendered channel label, e.g. "<0,G>"
    target: Any = None  # joiner / tree target / fusion receivers
    outcome: str = ""  # filled when the walk ends
    effects: List[Effect] = field(default_factory=list)
    hops: List[Hashable] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        """Whether the walk's fate is known (unfinished = lost/in flight)."""
        return bool(self.outcome)

    def label(self) -> str:
        """Compact one-line identity, the unit of rendered chains."""
        target = "" if self.target is None else f"({self.target})"
        return f"{self.node}.{self.name}{target}@t={self.t:g}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible projection (one JSONL line)."""
        out: Dict[str, Any] = {
            "span": self.span_id,
            "trace": self.trace_id,
            "name": self.name,
            "node": _jsonable(self.node),
            "t": self.t,
            "channel": self.channel,
        }
        if self.parent_id is not None:
            out["parent"] = self.parent_id
        if self.target is not None:
            out["target"] = _jsonable(self.target)
        if self.outcome:
            out["outcome"] = self.outcome
        if self.effects:
            out["effects"] = [
                {"node": _jsonable(e.node), "table": e.table,
                 "address": _jsonable(e.address), "action": e.action,
                 "t": e.t}
                for e in self.effects
            ]
        if self.hops:
            out["hops"] = [_jsonable(h) for h in self.hops]
        return out


_SCALARS = (str, int, float, bool, type(None))


def _jsonable(value: Any) -> Any:
    return value if isinstance(value, _SCALARS) else repr(value)


def span_from_dict(raw: Dict[str, Any]) -> Span:
    """Rebuild a span from its JSONL projection (non-scalar ids come
    back stringified: :func:`_jsonable` wrote their ``repr``)."""
    span = Span(
        span_id=raw["span"],
        trace_id=raw["trace"],
        parent_id=raw.get("parent"),
        name=raw["name"],
        node=raw["node"],
        t=raw["t"],
        channel=raw["channel"],
        target=raw.get("target"),
        outcome=raw.get("outcome", ""),
    )
    for e in raw.get("effects", ()):
        span.effects.append(Effect(e["node"], e["table"], e["address"],
                                   e["action"], e["t"]))
    span.hops.extend(raw.get("hops", ()))
    return span


SpanOrId = Union[Span, int]


class CausalTracer:
    """Records spans while enabled; the span store behind the DAG.

    ``maxlen`` bounds memory like a ring buffer: the oldest *finished*
    spans are evicted first and counted in :attr:`dropped` (exported to
    a metrics registry as ``trace.dropped`` by the owners that hold
    one).  A ``recorder`` (see :mod:`repro.obs.flight`) receives every
    finished span for the per-channel flight ring.
    """

    def __init__(self, enabled: bool = True,
                 maxlen: Optional[int] = None,
                 recorder: Optional[Any] = None) -> None:
        self.enabled = enabled
        self.maxlen = maxlen
        self.recorder = recorder
        self.dropped = 0
        self._spans: Dict[int, Span] = {}
        self._next_id = 1

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str, node: Hashable, t: float, channel: str,
              trace_id: Optional[str] = None,
              parent: Optional[SpanOrId] = None,
              target: Any = None) -> Span:
        """Open a span.  A ``parent`` chains it into that span's trace
        (inheriting the trace id unless one is given); without a parent
        the span roots a new trace."""
        parent_id: Optional[int] = None
        if parent is not None:
            parent_span = parent if isinstance(parent, Span) else \
                self._spans.get(parent)
            if parent_span is not None:
                parent_id = parent_span.span_id
                if trace_id is None:
                    trace_id = parent_span.trace_id
            elif isinstance(parent, int):
                parent_id = parent  # evicted parent: keep the edge
        if trace_id is None:
            trace_id = f"{channel}/{node}.{name}@t={t:g}"
        span = Span(
            span_id=self._next_id, trace_id=trace_id, parent_id=parent_id,
            name=name, node=node, t=t, channel=channel, target=target,
        )
        self._next_id += 1
        self._spans[span.span_id] = span
        if self.maxlen is not None and len(self._spans) > self.maxlen:
            self._evict()
        return span

    def _evict(self) -> None:
        """Drop the oldest span (dict preserves insertion order)."""
        oldest = next(iter(self._spans))
        del self._spans[oldest]
        self.dropped += 1

    def effect(self, span: Optional[SpanOrId], node: Hashable, table: str,
               address: Hashable, action: str, t: float) -> None:
        """Attach one table mutation to a span (by object or id)."""
        target = self._resolve(span)
        if target is not None:
            target.effects.append(Effect(node, table, address, action, t))

    def hop(self, span: Optional[SpanOrId], node: Hashable) -> None:
        """Record one forwarding hop of a span's message."""
        target = self._resolve(span)
        if target is not None:
            target.hops.append(node)

    def finish(self, span: Optional[SpanOrId], outcome: str) -> None:
        """Close a span with its fate ("intercepted by 5 (join rule 3)",
        "reached source", ...) and forward it to the flight recorder."""
        target = self._resolve(span)
        if target is None:
            return
        target.outcome = outcome
        if self.recorder is not None:
            self.recorder.record_span(target.channel, target)

    def _resolve(self, span: Optional[SpanOrId]) -> Optional[Span]:
        if span is None:
            return None
        if isinstance(span, Span):
            return span
        return self._spans.get(span)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, span_id: int) -> Optional[Span]:
        """The live span with that id, if not evicted."""
        return self._spans.get(span_id)

    @property
    def next_id(self) -> int:
        """The id the next span will get (round-bracketing marker)."""
        return self._next_id

    def spans(self) -> List[Span]:
        """All retained spans in creation order."""
        return list(self._spans.values())

    def __len__(self) -> int:
        return len(self._spans)

    def clear(self) -> None:
        """Drop every retained span (ids keep increasing; ``dropped``
        is not reset — it counts ring evictions, not clears)."""
        self._spans.clear()

    def dag(self) -> "SpanDag":
        """A queryable DAG over the retained spans."""
        return SpanDag(self.spans())

    # ------------------------------------------------------------------
    # Archival
    # ------------------------------------------------------------------
    def to_jsonl(self, target: PathOrFile) -> int:
        """Write the retained spans as JSON lines; returns the count."""
        lines = [json.dumps(span.to_dict(), sort_keys=True)
                 for span in self._spans.values()]
        text = "\n".join(lines) + ("\n" if lines else "")
        if hasattr(target, "write"):
            target.write(text)  # type: ignore[union-attr]
        else:
            Path(target).write_text(text)  # type: ignore[arg-type]
        return len(lines)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (f"CausalTracer({state}, spans={len(self._spans)}, "
                f"dropped={self.dropped})")


def read_spans(source: PathOrFile) -> List[Span]:
    """Load spans back from a JSONL archive."""
    if hasattr(source, "read"):
        text = source.read()  # type: ignore[union-attr]
    else:
        text = Path(source).read_text()  # type: ignore[arg-type]
    spans = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            spans.append(span_from_dict(json.loads(line)))
    return spans


class SpanDag:
    """The reconstructible causal DAG over a set of spans.

    Parent edges come from ``parent_id``; traces are the weakly
    connected components rooted at parentless spans.  All queries
    stringify node ids and addresses for comparison, so the same code
    serves live spans (real ids) and JSONL re-imports (stringified).
    """

    def __init__(self, spans: List[Span]) -> None:
        self._spans: Dict[int, Span] = {s.span_id: s for s in spans}
        self._children: Dict[int, List[int]] = {}
        for span in spans:
            if span.parent_id is not None:
                self._children.setdefault(span.parent_id, []).append(
                    span.span_id)

    def __len__(self) -> int:
        return len(self._spans)

    def get(self, span_id: int) -> Optional[Span]:
        return self._spans.get(span_id)

    def spans(self) -> List[Span]:
        """All spans, in creation (id) order."""
        return [self._spans[i] for i in sorted(self._spans)]

    def roots(self) -> List[Span]:
        """Spans with no (retained) parent: the origin events."""
        return [s for s in self.spans()
                if s.parent_id is None or s.parent_id not in self._spans]

    def children(self, span: SpanOrId) -> List[Span]:
        """Spans directly caused by this one."""
        span_id = span.span_id if isinstance(span, Span) else span
        return [self._spans[i]
                for i in sorted(self._children.get(span_id, ()))]

    def ancestry(self, span: SpanOrId) -> List[Span]:
        """The causal chain root -> ... -> span (cycle-safe)."""
        current = span if isinstance(span, Span) else self._spans.get(span)
        chain: List[Span] = []
        seen = set()
        while current is not None and current.span_id not in seen:
            seen.add(current.span_id)
            chain.append(current)
            if current.parent_id is None:
                break
            current = self._spans.get(current.parent_id)
        chain.reverse()
        return chain

    # ------------------------------------------------------------------
    # Queries (the explain engine's substrate)
    # ------------------------------------------------------------------
    def find_effects(self, node: Optional[Hashable] = None,
                     table: Optional[str] = None,
                     address: Optional[Hashable] = None,
                     action: Optional[str] = None
                     ) -> List[Tuple[Span, Effect]]:
        """Every (span, effect) matching the filters, in span order.
        Node/address comparisons are by string form (JSONL-stable)."""
        matches = []
        for span in self.spans():
            for effect in span.effects:
                if node is not None and str(effect.node) != str(node):
                    continue
                if table is not None and effect.table != table:
                    continue
                if address is not None and \
                        str(effect.address) != str(address):
                    continue
                if action is not None and effect.action != action:
                    continue
                matches.append((span, effect))
        return matches

    def last_effect(self, **filters: Any) -> Optional[Tuple[Span, Effect]]:
        """The most recent matching (span, effect), if any."""
        matches = self.find_effects(**filters)
        return matches[-1] if matches else None

    def spans_for_trace(self, trace_id: str) -> List[Span]:
        """Every span of one trace, in creation order."""
        return [s for s in self.spans() if s.trace_id == trace_id]

    def spans_about(self, subject: Hashable) -> List[Span]:
        """Spans whose origin or target stringifies to ``subject`` —
        the coarse "anything about node X / receiver r" query."""
        wanted = str(subject)
        return [s for s in self.spans()
                if str(s.node) == wanted or str(s.target) == wanted]

    def traces(self) -> Iterator[str]:
        """Distinct trace ids, in first-seen order."""
        seen = set()
        for span in self.spans():
            if span.trace_id not in seen:
                seen.add(span.trace_id)
                yield span.trace_id

    def __repr__(self) -> str:
        return f"SpanDag(spans={len(self._spans)}, roots={len(self.roots())})"
