"""HBH tables: the MCT and MFT with soft-state entry semantics.

Section 3 of the paper:

- every HBH router in a channel's tree has either an ``MCT<S>`` (one
  entry, non-branching) or an ``MFT<S>`` (branching node);
- two timers per entry: t1 expiry makes an entry **stale**, t2 expiry
  destroys it;
- a **stale** MFT entry "is used for data forwarding but produces no
  downstream tree message";
- a **marked** MFT entry "is used to forward tree messages but not for
  data forwarding".

An entry installed by a fusion message starts with "its t1 timer kept
expired" (``forced_stale``); a join refresh clears that, a fusion
keep-alive refreshes only t2.  Freshness is evaluated against an
explicit ``now`` so the same tables serve the event-driven simulator
(virtual time) and the static round driver (round counter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional

Addr = Hashable


@dataclass(frozen=True, slots=True)
class ProtocolTiming:
    """Protocol periods and soft-state lifetimes, in virtual time units.

    Constraints: ``t1`` must exceed the refresh periods (otherwise
    entries flap stale between refreshes) and ``t2 > t1``.
    """

    join_period: float = 100.0
    tree_period: float = 100.0
    t1: float = 250.0
    t2: float = 500.0

    def __post_init__(self) -> None:
        if self.join_period <= 0 or self.tree_period <= 0:
            raise ValueError("periods must be positive")
        if self.t1 <= max(self.join_period, self.tree_period):
            raise ValueError(
                f"t1 ({self.t1}) must exceed the refresh periods"
            )
        if self.t2 <= self.t1:
            raise ValueError(f"t2 ({self.t2}) must exceed t1 ({self.t1})")


#: Timing for the round-based static driver: one round = one period,
#: entries go stale after missing ~2 refresh rounds and die after ~4.
ROUND_TIMING = ProtocolTiming(join_period=1.0, tree_period=1.0, t1=2.5, t2=4.5)


@dataclass(slots=True)
class MftEntry:
    """One MFT entry: a receiver or the next downstream branching node.

    The *mark* is itself soft state: a fusion message marks the entry
    (the sender claims to serve these receivers, so no direct data),
    and every subsequent fusion re-confirms it.  If the claimant dies
    — e.g. its branch was severed by a link failure — the confirming
    fusions stop and the mark expires after t1, letting data flow
    directly again.  A permanent mark would deadlock the branch: the
    entry can stay join-refreshed forever while pointing at a serving
    chain that no longer exists.
    """

    address: Addr
    refreshed_at: float
    marked_at: Optional[float] = None
    forced_stale: bool = False

    @property
    def marked(self) -> bool:
        """Whether a fusion has ever marked this entry (raw flag;
        data-plane decisions use :meth:`is_marked`, which expires)."""
        return self.marked_at is not None

    def is_marked(self, now: float, timing: ProtocolTiming) -> bool:
        """Whether the mark is currently confirmed (within t1 of the
        last fusion)."""
        return (self.marked_at is not None
                and (now - self.marked_at) < timing.t1)

    def mark(self, now: float) -> None:
        """Fusion rule 2: mark (or re-confirm the mark on) the entry."""
        self.marked_at = now

    def is_stale(self, now: float, timing: ProtocolTiming) -> bool:
        """Whether t1 has (or is forced) expired — no tree forwarding."""
        return self.forced_stale or (now - self.refreshed_at) >= timing.t1

    def is_dead(self, now: float, timing: ProtocolTiming) -> bool:
        """Whether t2 has expired — the entry must be destroyed."""
        return (now - self.refreshed_at) >= timing.t2

    def refresh_by_join(self, now: float) -> None:
        """A join refreshes both timers: the entry becomes fully fresh
        (tree messages flow downstream again)."""
        self.refreshed_at = now
        self.forced_stale = False

    def refresh_by_tree(self, now: float) -> None:
        """A tree message refreshes the entry (Appendix A tree rule 3)."""
        self.refreshed_at = now

    def keep_alive_stale(self, now: float) -> None:
        """Fusion rule 4: refresh t2 but keep t1 expired."""
        self.refreshed_at = now
        self.forced_stale = True

    def forwards_tree(self, now: float, timing: ProtocolTiming) -> bool:
        """Stale entries produce no downstream tree messages."""
        return not self.is_stale(now, timing)

    def forwards_data(self, now: float, timing: ProtocolTiming) -> bool:
        """Marked entries are skipped by the data plane; stale ones are
        not (they keep forwarding data until t2 destroys them)."""
        return not self.is_marked(now, timing) and \
            not self.is_dead(now, timing)


class Mft:
    """A Multicast Forwarding Table for one channel at one router.

    Order-preserving: iteration follows insertion order, which keeps
    the simulation deterministic.

    The table also caches rule results for :mod:`repro.core.rules`,
    which fills both caches; their contents are shared and read-only.
    :attr:`transit` depends on the address set, so every change to it
    (:meth:`add`, :meth:`remove`, a t2 removal in :meth:`expire`)
    drops it; :attr:`tree_actions` depends on nothing but each address
    and is never dropped.
    """

    def __init__(self) -> None:
        self._entries: Dict[Addr, MftEntry] = {}
        #: ``get(address)``: the entry for ``address``, or None.  The
        #: entry dict's own bound ``get``, so the rules' hottest lookup
        #: runs without a Python frame.  A ``copy.copy`` or
        #: ``copy.deepcopy`` of the table would keep reading the
        #: original's dict through it (nothing copies an MFT).
        self.get: Callable[[Addr], Optional[MftEntry]] = self._entries.get
        #: Tree rules 2, 3 and 8's transit outcome, ``[Forward(),
        #: OriginateFusion(<addresses>)]``, or None until built.
        self.transit: Optional[List[Any]] = None
        #: Tree rule 1's ``OriginateTree`` action per address.
        self.tree_actions: Dict[Addr, Any] = {}
        #: Lower bound on the oldest ``refreshed_at`` in the table.
        #: Refreshes only ever *raise* an entry's timestamp and removals
        #: only raise the true minimum, so the bound stays valid without
        #: per-refresh bookkeeping; :meth:`expire` uses it to skip the
        #: full scan while nothing can possibly be t2-dead (the
        #: steady-state of a converged tree) and re-tightens it after
        #: every real scan.
        self._oldest: float = float("inf")

    def __contains__(self, address: Addr) -> bool:
        return address in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[MftEntry]:
        return iter(list(self._entries.values()))

    def entries(self):
        """A *live* view of the entries in insertion order.  For read
        passes that do not mutate the table (``__iter__`` copies so
        callers may remove entries mid-loop; this view does not)."""
        return self._entries.values()

    def add(self, address: Addr, now: float, *, marked: bool = False,
            forced_stale: bool = False) -> MftEntry:
        """Insert a new entry (caller guarantees absence)."""
        if address in self._entries:
            raise KeyError(f"duplicate MFT entry {address}")
        entry = MftEntry(address, now,
                         marked_at=now if marked else None,
                         forced_stale=forced_stale)
        self._entries[address] = entry
        self.transit = None
        if now < self._oldest:
            self._oldest = now
        return entry

    def remove(self, address: Addr) -> None:
        """Drop the entry for ``address`` (KeyError if absent)."""
        del self._entries[address]
        self.transit = None

    def addresses(self) -> List[Addr]:
        """All entry addresses in insertion order."""
        return list(self._entries)

    def address_tuple(self) -> "tuple":
        """All entry addresses in insertion order, as a tuple (the
        fusion-payload shape, built without the intermediate list)."""
        return tuple(self._entries)

    def expire(self, now: float, timing: ProtocolTiming) -> List[MftEntry]:
        """Destroy t2-expired entries; returns what was removed.

        Skipped outright while :attr:`_oldest` proves every entry is
        within t2 (is_dead depends only on ``refreshed_at``).
        """
        t2 = timing.t2
        if now - self._oldest < t2:
            return []
        entries = self._entries
        dead = [e for e in entries.values() if (now - e.refreshed_at) >= t2]
        for entry in dead:
            del entries[entry.address]
        if dead:
            self.transit = None
        self._oldest = min(
            (e.refreshed_at for e in entries.values()), default=float("inf")
        )
        return dead

    def tree_targets(self, now: float, timing: ProtocolTiming) -> List[Addr]:
        """Addresses that should receive downstream tree messages.

        Inline form of :meth:`MftEntry.forwards_tree` — this runs once
        per branching node per round in the static driver.
        """
        t1 = timing.t1
        return [e.address for e in self._entries.values()
                if not e.forced_stale and (now - e.refreshed_at) < t1]

    def data_targets(self, now: float, timing: ProtocolTiming) -> List[Addr]:
        """Addresses that should receive data copies (inline form of
        :meth:`MftEntry.forwards_data`)."""
        t1, t2 = timing.t1, timing.t2
        return [
            e.address for e in self._entries.values()
            if (e.marked_at is None or (now - e.marked_at) >= t1)
            and (now - e.refreshed_at) < t2
        ]

    def __repr__(self) -> str:
        parts = []
        for entry in self._entries.values():
            flags = ""
            if entry.marked:
                flags += "m"
            if entry.forced_stale:
                flags += "s"
            parts.append(f"{entry.address}{'!' + flags if flags else ''}")
        return f"MFT[{', '.join(parts)}]"


@dataclass(slots=True)
class MctEntry:
    """The single entry of a non-branching router's MCT."""

    address: Addr
    refreshed_at: float

    def is_stale(self, now: float, timing: ProtocolTiming) -> bool:
        """t1 expired (tree rule 7 then allows replacement)."""
        return (now - self.refreshed_at) >= timing.t1

    def is_dead(self, now: float, timing: ProtocolTiming) -> bool:
        """t2 expired — the MCT is destroyed."""
        return (now - self.refreshed_at) >= timing.t2


class Mct:
    """A Multicast Control Table: control-plane-only, single entry.

    "MCT<S> has one single entry to which two timers are associated"
    (Section 3.1).  Non-branching routers in the tree keep only this.
    """

    def __init__(self, address: Addr, now: float) -> None:
        self.entry = MctEntry(address, now)

    def refresh(self, now: float) -> None:
        """Restart both timers on the single entry."""
        self.entry.refreshed_at = now

    def replace(self, address: Addr, now: float) -> None:
        """Tree rule 7: a fresh target replaces a stale entry."""
        self.entry = MctEntry(address, now)

    def is_stale(self, now: float, timing: ProtocolTiming) -> bool:
        """Whether the single entry is stale."""
        return self.entry.is_stale(now, timing)

    def is_dead(self, now: float, timing: ProtocolTiming) -> bool:
        """Whether the single entry is dead (table to be destroyed)."""
        return self.entry.is_dead(now, timing)

    def __contains__(self, address: Addr) -> bool:
        return self.entry.address == address

    def __repr__(self) -> str:
        return f"MCT[{self.entry.address}]"


@dataclass(slots=True)
class HbhChannelState:
    """One router's HBH state for one channel: an MCT *or* an MFT.

    The invariant "either a MCT<S> or a MFT<S>" (Section 3.1) is
    maintained by the rules: creating the MFT destroys the MCT.

    ``upstream`` is the neighbor from which the channel's tree messages
    arrive — the router's upstream interface on the distribution tree.
    Fusion interception uses it to tell descendants' fusions (which
    this router must handle) from an upstream node's fusion passing
    through on an asymmetric reverse route (which it must relay
    untouched, or parent and child would adopt each other and loop the
    data plane).

    ``intercept`` is join rule 3's outcome, ``[Consume(),
    OriginateJoin(<router>)]``, shared and read-only; the rules build
    it on first use and keep it, since it depends only on the router's
    address.
    """

    mct: Optional[Mct] = None
    mft: Optional[Mft] = None
    upstream: Optional[Addr] = None
    intercept: Optional[List[Any]] = field(default=None, repr=False,
                                           compare=False)

    @property
    def is_branching(self) -> bool:
        """Whether this router currently acts as a branching node."""
        return self.mft is not None

    @property
    def in_tree(self) -> bool:
        """Whether this router holds any state for the channel."""
        return self.mct is not None or self.mft is not None

    def expire(self, now: float, timing: ProtocolTiming) -> List[Addr]:
        """Age out dead state; returns the addresses destroyed."""
        removed: List[Addr] = []
        if self.mct is not None and self.mct.is_dead(now, timing):
            removed.append(self.mct.entry.address)
            self.mct = None
        if self.mft is not None:
            removed.extend(e.address for e in self.mft.expire(now, timing))
            if len(self.mft) == 0:
                self.mft = None
        return removed
