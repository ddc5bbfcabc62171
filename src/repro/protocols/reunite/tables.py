"""REUNITE tables.

A REUNITE router in a tree keeps either:

- an **MCT** — control-plane entries ``<S, ri>`` installed by tree
  messages passing through (one per receiver whose tree messages cross
  this router), never used for forwarding; or
- an **MFT** — a special ``dst`` entry (``MFT<S>.dst``, the first
  receiver that joined below this node, whose address incoming data
  carries) plus the other receivers that joined here.

t1/t2 soft state mirrors HBH's (the paper describes both with the same
timer discipline): t1 expiry makes an entry stale, t2 destroys it.  A
*stale* MFT (= stale dst) keeps forwarding data but stops intercepting
joins and regenerating tree messages — the pivot of the departure
reconfiguration in paper Fig. 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Optional

from repro.core.tables import ProtocolTiming

Addr = Hashable


@dataclass
class ReuniteEntry:
    """One table entry (dst, receiver, or MCT line) with t1/t2 state."""

    address: Addr
    refreshed_at: float
    forced_stale: bool = False

    def is_stale(self, now: float, timing: ProtocolTiming) -> bool:
        """t1 expired (or force-expired by a marked tree message)."""
        return self.forced_stale or (now - self.refreshed_at) >= timing.t1

    def is_dead(self, now: float, timing: ProtocolTiming) -> bool:
        """t2 expired — destroy the entry."""
        return (now - self.refreshed_at) >= timing.t2

    def refresh(self, now: float) -> None:
        """Restart both timers (join or unmarked tree message)."""
        self.refreshed_at = now
        self.forced_stale = False

    def make_stale(self) -> None:
        """Force t1 expired (marked tree message hit this entry)."""
        self.forced_stale = True


class ReuniteMct:
    """Control table: entries keyed by the receiver whose tree messages
    pass through this (non-branching) router."""

    def __init__(self) -> None:
        self._entries: Dict[Addr, ReuniteEntry] = {}

    def __contains__(self, address: Addr) -> bool:
        return address in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ReuniteEntry]:
        return iter(list(self._entries.values()))

    def get(self, address: Addr) -> Optional[ReuniteEntry]:
        """Entry for ``address``, or None."""
        return self._entries.get(address)

    def add(self, address: Addr, now: float) -> ReuniteEntry:
        """Install a new entry (tree message traversal)."""
        entry = ReuniteEntry(address, now)
        self._entries[address] = entry
        return entry

    def remove(self, address: Addr) -> None:
        """Destroy the entry (marked tree message or t2)."""
        self._entries.pop(address, None)

    def fresh_entries(self, now: float, timing: ProtocolTiming
                      ) -> List[ReuniteEntry]:
        """Entries whose t1 has not expired, insertion order (the first
        is the promotion candidate for ``dst``)."""
        return [e for e in self._entries.values()
                if not e.is_stale(now, timing)]

    def expire(self, now: float, timing: ProtocolTiming) -> List[Addr]:
        """Drop t2-dead entries; returns their addresses (the t2 test
        is :meth:`ReuniteEntry.is_dead` inline: this runs for every
        router of a tree at every round boundary)."""
        t2 = timing.t2
        dead = [a for a, e in self._entries.items()
                if (now - e.refreshed_at) >= t2]
        for address in dead:
            del self._entries[address]
        return dead

    def __repr__(self) -> str:
        return f"rMCT[{', '.join(str(a) for a in self._entries)}]"


class ReuniteMft:
    """Forwarding table: the ``dst`` entry plus other receivers."""

    def __init__(self, dst: ReuniteEntry) -> None:
        self.dst: Optional[ReuniteEntry] = dst
        self._receivers: Dict[Addr, ReuniteEntry] = {}

    # -- receivers -----------------------------------------------------
    def get_receiver(self, address: Addr) -> Optional[ReuniteEntry]:
        """The (non-dst) receiver entry for ``address``, or None."""
        return self._receivers.get(address)

    def add_receiver(self, address: Addr, now: float) -> ReuniteEntry:
        """A receiver joined at this node."""
        entry = ReuniteEntry(address, now)
        self._receivers[address] = entry
        return entry

    def receivers(self) -> List[ReuniteEntry]:
        """Non-dst receiver entries, insertion order."""
        return list(self._receivers.values())

    def live_receivers(self, now: float, timing: ProtocolTiming
                       ) -> List[ReuniteEntry]:
        """Receivers still eligible for data copies (not t2-dead)."""
        return [e for e in self._receivers.values()
                if not e.is_dead(now, timing)]

    def fresh_receivers(self, now: float, timing: ProtocolTiming
                        ) -> List[ReuniteEntry]:
        """Receivers eligible for downstream tree messages (not stale)."""
        return [e for e in self._receivers.values()
                if not e.is_stale(now, timing)]

    # -- table-level state ---------------------------------------------
    def is_stale(self, now: float, timing: ProtocolTiming) -> bool:
        """A stale (or headless) MFT: no join interception, no tree
        regeneration — paper Fig. 2(c)."""
        return self.dst is None or self.dst.is_stale(now, timing)

    def expire(self, now: float, timing: ProtocolTiming) -> List[Addr]:
        """Drop t2-dead entries (dst included); returns addresses.  The
        t2 test is :meth:`ReuniteEntry.is_dead` inline, as in
        :meth:`ReuniteMct.expire`."""
        t2 = timing.t2
        removed: List[Addr] = []
        dst = self.dst
        if dst is not None and (now - dst.refreshed_at) >= t2:
            removed.append(dst.address)
            self.dst = None
        receivers = self._receivers
        dead = [a for a, e in receivers.items()
                if (now - e.refreshed_at) >= t2]
        for address in dead:
            removed.append(address)
            del receivers[address]
        return removed

    def promote_receiver_to_dst(self, now: float,
                                timing: ProtocolTiming) -> Optional[Addr]:
        """After dst death at the *source*, the oldest fresh receiver
        becomes the new dst (paper Fig. 2(d): data re-addressed to r2).
        Returns the promoted address, if any."""
        for address, entry in list(self._receivers.items()):
            if not entry.is_stale(now, timing):
                del self._receivers[address]
                self.dst = entry
                return address
        return None

    @property
    def empty(self) -> bool:
        """No dst and no receivers: the MFT is destroyed."""
        return self.dst is None and not self._receivers

    def __repr__(self) -> str:
        dst = self.dst.address if self.dst is not None else "-"
        rest = ", ".join(str(a) for a in self._receivers)
        return f"rMFT[dst={dst}; {rest}]"


@dataclass
class ReuniteState:
    """One router's REUNITE state for one conversation."""

    mct: Optional[ReuniteMct] = None
    mft: Optional[ReuniteMft] = None

    @property
    def is_branching(self) -> bool:
        """Whether this router holds an MFT."""
        return self.mft is not None

    @property
    def in_tree(self) -> bool:
        """Whether this router holds any state for the conversation."""
        return self.mct is not None or self.mft is not None

    def expire(self, now: float, timing: ProtocolTiming) -> List[Addr]:
        """Age out dead state; returns destroyed addresses."""
        removed: List[Addr] = []
        if self.mct is not None:
            removed.extend(self.mct.expire(now, timing))
            if len(self.mct) == 0:
                self.mct = None
        if self.mft is not None:
            removed.extend(self.mft.expire(now, timing))
            if self.mft.empty:
                self.mft = None
        return removed
