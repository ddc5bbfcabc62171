"""Address model: unicast addresses, class-D group addresses, channels.

The paper identifies a multicast channel by the pair ``<S, G>`` where
``S`` is the unicast address of the source and ``G`` is a class-D IP
address allocated by the source (EXPRESS channel model, Section 2.1).
REUNITE instead uses ``<S, P>`` with a source-allocated port ``P``; both
are represented here.

Addresses are modelled as IPv4 dotted quads backed by a 32-bit integer.
The library hands out addresses from two default pools:

- unicast node addresses from ``10.0.0.0/8`` (one per simulated node),
- class-D group addresses from ``232.0.0.0/8`` (the SSM range,
  fitting the paper's source-specific service model).

Every type here keys the per-hop tables, so each computes its hash once,
at construction, into a ``_hash`` slot that takes no part in equality,
ordering or ``repr``.  It must equal the hash of the tuple of fields
(what the dataclass-generated ``__hash__`` returns): set and dict
iteration orders, and so the archived outputs, depend on it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import AddressError

_DOTTED_QUAD = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")

#: First address of the class-D (multicast) block, 224.0.0.0.
CLASS_D_FIRST = 224 << 24
#: One past the last class-D address (240.0.0.0 starts class E).
CLASS_D_LAST = 240 << 24
#: First address of the source-specific multicast range 232.0.0.0/8.
SSM_BLOCK_FIRST = 232 << 24


def _parse(text: str) -> int:
    """Parse a dotted quad into its 32-bit integer value."""
    match = _DOTTED_QUAD.match(text)
    if match is None:
        raise AddressError(f"not a dotted-quad address: {text!r}")
    value = 0
    for octet_text in match.groups():
        octet = int(octet_text)
        if octet > 255:
            raise AddressError(f"octet out of range in address: {text!r}")
        value = (value << 8) | octet
    return value


def _format(value: int) -> str:
    """Format a 32-bit integer as a dotted quad."""
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True, slots=True, order=True)
class Address:
    """A unicast IPv4-like address.

    Instances are immutable, hashable and totally ordered (by numeric
    value), so they can key routing tables and be stored in sets.
    """

    value: int
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.value < 2**32:
            raise AddressError(f"address value out of range: {self.value}")
        if CLASS_D_FIRST <= self.value < CLASS_D_LAST:
            raise AddressError(
                f"{_format(self.value)} is a class-D address; "
                "use GroupAddress for multicast groups"
            )
        object.__setattr__(self, "_hash", hash((self.value,)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def parse(cls, text: str) -> "Address":
        """Build an address from dotted-quad notation, e.g. ``10.0.0.1``."""
        return cls(_parse(text))

    def __str__(self) -> str:
        return _format(self.value)

    def __repr__(self) -> str:
        return f"Address({str(self)!r})"


@dataclass(frozen=True, slots=True, order=True)
class GroupAddress:
    """A class-D (multicast) IPv4-like address."""

    value: int
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not CLASS_D_FIRST <= self.value < CLASS_D_LAST:
            raise AddressError(
                f"{_format(self.value)} is not a class-D address "
                "(must be in 224.0.0.0 - 239.255.255.255)"
            )
        object.__setattr__(self, "_hash", hash((self.value,)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def parse(cls, text: str) -> "GroupAddress":
        """Build a group address from dotted-quad notation, e.g. ``232.1.0.1``."""
        return cls(_parse(text))

    @property
    def is_ssm(self) -> bool:
        """Whether the group lies in the source-specific 232/8 block."""
        return SSM_BLOCK_FIRST <= self.value < SSM_BLOCK_FIRST + (1 << 24)

    def __str__(self) -> str:
        return _format(self.value)

    def __repr__(self) -> str:
        return f"GroupAddress({str(self)!r})"


@dataclass(frozen=True, slots=True, order=True)
class Channel:
    """An HBH/EXPRESS multicast channel ``<S, G>``.

    ``source`` is the unicast address of the (single) source and
    ``group`` a class-D address allocated by that source.  The
    concatenation is globally unique because the unicast address is
    (paper Section 2.1).
    """

    source: Address
    group: GroupAddress
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.source, self.group)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"<{self.source}, {self.group}>"


@dataclass(frozen=True, slots=True, order=True)
class ReuniteChannel:
    """A REUNITE conversation ``<S, P>`` (source address + port).

    REUNITE abandons class-D addressing entirely; the port ``P`` is
    allocated by the source (paper Section 2.1).
    """

    source: Address
    port: int
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.port < 2**16:
            raise AddressError(f"port out of range: {self.port}")
        object.__setattr__(self, "_hash", hash((self.source, self.port)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"<{self.source}, {self.port}>"


class AddressAllocator:
    """Sequential allocator for unicast and group addresses.

    One allocator per simulated network keeps node addresses unique.
    Unicast addresses come from ``base_unicast`` (default ``10.0.0.1``),
    group addresses from the SSM block (default ``232.1.0.1``).
    """

    def __init__(
        self,
        base_unicast: str = "10.0.0.1",
        base_group: str = "232.1.0.1",
    ) -> None:
        self._next_unicast = _parse(base_unicast)
        self._next_group = _parse(base_group)

    def next_unicast(self) -> Address:
        """Allocate the next unicast address."""
        address = Address(self._next_unicast)
        self._next_unicast += 1
        return address

    def next_group(self) -> GroupAddress:
        """Allocate the next class-D group address."""
        group = GroupAddress(self._next_group)
        self._next_group += 1
        return group

    def unicast_range(self, count: int) -> Iterator[Address]:
        """Allocate ``count`` consecutive unicast addresses."""
        for _ in range(count):
            yield self.next_unicast()
