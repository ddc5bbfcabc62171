"""Transmission counters.

Tree cost in the paper is "the number of copies of the same packet that
are transmitted in the network links" — i.e. a per-link transmission
count, *not* a tree-link count, because recursive unicast can put
several copies of one packet on one link (Section 4.2.1).

:class:`LinkCounters` tallies every transmission per directed link,
split into control and data, in both unweighted (copy count) and
cost-weighted (copies x link cost) forms.  Experiments reset the
counters, inject one data packet, and read the tally.

Counters optionally mirror into a
:class:`~repro.obs.registry.MetricsRegistry` (``net.tx.copies`` /
``net.tx.weighted_cost``, labeled ``kind=data|control``).  The registry
view is *monotonic*: :meth:`LinkCounters.reset` rewinds only the
per-link tallies used for one measurement, never the cumulative
metrics — standard counter semantics, and what lets a long run report
total traffic while individual measurements still start from zero.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.netsim.packet import PacketKind
from repro.obs.registry import Counter, MetricsRegistry

NodeId = Hashable
DirectedLink = Tuple[NodeId, NodeId]


@dataclass(frozen=True, slots=True)
class TransmissionTally:
    """Aggregate view of one traffic class (control or data)."""

    copies: int
    weighted_cost: float
    links_used: int
    max_copies_on_link: int


class _KindCounters:
    """One traffic class's counters: copies per directed link, the
    cost-weighted total, and the mirrored registry counters (``None``
    without a registry)."""

    __slots__ = ("copies", "weighted", "mirror_copies", "mirror_weighted")

    def __init__(self, kind: PacketKind,
                 registry: Optional[MetricsRegistry]) -> None:
        self.copies: Dict[DirectedLink, int] = defaultdict(int)
        self.weighted = 0.0
        self.mirror_copies: Optional[Counter] = None
        self.mirror_weighted: Optional[Counter] = None
        if registry is not None:
            label = kind.name.lower()
            self.mirror_copies = registry.counter("net.tx.copies",
                                                  kind=label)
            self.mirror_weighted = registry.counter("net.tx.weighted_cost",
                                                    kind=label)


class LinkCounters:
    """Per-directed-link transmission counters."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._kinds: Dict[PacketKind, _KindCounters] = {
            kind: _KindCounters(kind, registry) for kind in PacketKind
        }
        # record() runs once per transmission: it picks a record by an
        # identity test instead of hashing a PacketKind enum.
        self._data = self._kinds[PacketKind.DATA]
        self._control = self._kinds[PacketKind.CONTROL]

    def record(self, src: NodeId, dst: NodeId, cost: float,
               kind: PacketKind) -> None:
        """Record one packet copy crossing the directed link src->dst."""
        counters = self._data if kind is PacketKind.DATA else self._control
        counters.copies[(src, dst)] += 1
        counters.weighted += cost
        mirror = counters.mirror_copies
        if mirror is not None:
            # Direct .value bumps: Counter.inc() only adds a
            # non-negativity check, and link costs are validated
            # positive at topology construction.
            mirror.value += 1
            counters.mirror_weighted.value += cost  # type: ignore[union-attr]

    def tally(self, kind: PacketKind) -> TransmissionTally:
        """Aggregate statistics for one traffic class."""
        counters = self._kinds[kind]
        per_link = counters.copies
        return TransmissionTally(
            copies=sum(per_link.values()),
            weighted_cost=counters.weighted,
            links_used=len(per_link),
            max_copies_on_link=max(per_link.values(), default=0),
        )

    def copies_on(self, src: NodeId, dst: NodeId,
                  kind: PacketKind = PacketKind.DATA) -> int:
        """Copies of ``kind`` traffic that crossed the directed link."""
        return self._kinds[kind].copies.get((src, dst), 0)

    def per_link(self, kind: PacketKind = PacketKind.DATA
                 ) -> Dict[DirectedLink, int]:
        """Copy counts keyed by directed link (a plain dict snapshot)."""
        return dict(self._kinds[kind].copies)

    def busiest(self, k: int = 10, kind: PacketKind = PacketKind.DATA
                ) -> List[Tuple[DirectedLink, int]]:
        """The ``k`` directed links carrying the most copies of
        ``kind`` traffic, hottest first (ties broken by link string,
        so the order is deterministic)."""
        return sorted(self._kinds[kind].copies.items(),
                      key=lambda item: (-item[1], str(item[0])))[:k]

    def reset(self) -> None:
        """Zero the per-link tallies (e.g. between control convergence
        and the data-plane measurement).  Mirrored registry counters
        stay cumulative — see the module docstring."""
        for counters in self._kinds.values():
            counters.copies.clear()
            counters.weighted = 0.0
