"""Unicast datagrams.

Everything that crosses a link is a :class:`Packet` with a unicast
destination address — the defining property of the recursive-unicast
approach (Section 2.2).  Control messages (join/tree/fusion and their
REUNITE/PIM analogues) ride as the packet payload; data packets carry a
:class:`DataPayload` naming the channel so branching routers know which
MFT to consult.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.addressing import Address

_packet_ids = itertools.count(1)

#: Hop budget: generous but finite, so forwarding bugs surface as
#: dropped packets instead of infinite loops.
DEFAULT_TTL = 255


class PacketKind(enum.Enum):
    """Whether a packet is protocol control traffic or channel data.

    Tree cost only counts *data* copies; the split keeps control
    overhead measurable separately.
    """

    CONTROL = "control"
    DATA = "data"


@dataclass(frozen=True, slots=True)
class DataPayload:
    """Payload of a multicast data packet.

    ``channel`` identifies the conversation (an HBH ``Channel`` or a
    REUNITE ``ReuniteChannel``); ``stream_id``/``sequence`` identify the
    packet for delivery bookkeeping; ``encapsulated`` marks PIM-SM
    register traffic (source -> RP unicast encapsulation).
    """

    channel: Any
    stream_id: int = 0
    sequence: int = 0
    encapsulated: bool = False
    #: Virtual send time at the source — receivers compute their delay
    #: as ``now - sent_at``.
    sent_at: float = 0.0


@dataclass(frozen=True, slots=True)
class Packet:
    """A unicast datagram.

    Immutable: rewriting the destination address (what a branching
    router does) yields a *new* packet via :meth:`readdressed`, keeping
    the copy semantics of the paper explicit in the code.
    """

    src: Address
    dst: Address
    payload: Any
    kind: PacketKind = PacketKind.CONTROL
    ttl: int = DEFAULT_TTL
    #: Packet size in abstract units; only meaningful on links with a
    #: configured bandwidth (serialization time = size / bandwidth).
    size: float = 1.0
    uid: int = field(default_factory=lambda: next(_packet_ids))
    #: Causal-tracing identity (see :mod:`repro.obs.causal`); preserved
    #: by :meth:`readdressed`, so a branching router's data copies stay
    #: linked to the fan-out span that spawned them.
    trace_id: Optional[str] = field(default=None, compare=False)
    span_id: Optional[int] = field(default=None, compare=False)

    # The clone methods below run once per hop (aged) or per branch
    # copy (readdressed) on the data-plane hot path, so they build the
    # copy with ``object.__new__`` + ``object.__setattr__`` instead of
    # ``dataclasses.replace`` — replace() re-enters the generated
    # __init__ (and its default machinery), which profiles as a
    # leading per-packet cost.  Packet ids stay eagerly drawn at the
    # two identity-creating points (construction and readdressing) so
    # uid numbering follows creation order deterministically — packet
    # reprs rely on that.

    def readdressed(self, dst: Address, src: Optional[Address] = None) -> "Packet":
        """A modified copy with a new destination (and fresh uid).

        This is the branching-node operation: "creating packet copies
        with modified destination address" (Section 2.2).
        """
        clone = object.__new__(Packet)
        _set = object.__setattr__
        _set(clone, "src", src if src is not None else self.src)
        _set(clone, "dst", dst)
        _set(clone, "payload", self.payload)
        _set(clone, "kind", self.kind)
        _set(clone, "ttl", DEFAULT_TTL)
        _set(clone, "size", self.size)
        _set(clone, "uid", next(_packet_ids))
        _set(clone, "trace_id", self.trace_id)
        _set(clone, "span_id", self.span_id)
        return clone

    def with_span(self, span: Any) -> "Packet":
        """A copy carrying a (new) causal span identity (an object with
        ``trace_id``/``span_id``, i.e. :class:`repro.obs.causal.Span`)."""
        clone = object.__new__(Packet)
        _set = object.__setattr__
        _set(clone, "src", self.src)
        _set(clone, "dst", self.dst)
        _set(clone, "payload", self.payload)
        _set(clone, "kind", self.kind)
        _set(clone, "ttl", self.ttl)
        _set(clone, "size", self.size)
        _set(clone, "uid", self.uid)
        _set(clone, "trace_id", span.trace_id)
        _set(clone, "span_id", span.span_id)
        return clone

    def aged(self) -> "Packet":
        """A copy with the TTL decremented (same uid: same packet, older)."""
        clone = object.__new__(Packet)
        _set = object.__setattr__
        _set(clone, "src", self.src)
        _set(clone, "dst", self.dst)
        _set(clone, "payload", self.payload)
        _set(clone, "kind", self.kind)
        _set(clone, "ttl", self.ttl - 1)
        _set(clone, "size", self.size)
        _set(clone, "uid", self.uid)
        _set(clone, "trace_id", self.trace_id)
        _set(clone, "span_id", self.span_id)
        return clone

    @property
    def expired(self) -> bool:
        """Whether the hop budget is exhausted."""
        return self.ttl <= 0

    def __repr__(self) -> str:
        return (
            f"Packet(#{self.uid} {self.kind.value} {self.src}->{self.dst} "
            f"{type(self.payload).__name__})"
        )
