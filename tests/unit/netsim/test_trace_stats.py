"""Unit tests for transmission counters."""

from repro.netsim.packet import PacketKind
from repro.netsim.stats import LinkCounters
from repro.obs.registry import MetricsRegistry


class TestLinkCounters:
    def test_copies_and_weight(self):
        counters = LinkCounters()
        counters.record(0, 1, 3.0, PacketKind.DATA)
        counters.record(0, 1, 3.0, PacketKind.DATA)
        counters.record(1, 2, 5.0, PacketKind.DATA)
        tally = counters.tally(PacketKind.DATA)
        assert tally.copies == 3
        assert tally.weighted_cost == 11.0
        assert tally.links_used == 2
        assert tally.max_copies_on_link == 2

    def test_kinds_are_separate(self):
        counters = LinkCounters()
        counters.record(0, 1, 1.0, PacketKind.DATA)
        counters.record(0, 1, 1.0, PacketKind.CONTROL)
        assert counters.tally(PacketKind.DATA).copies == 1
        assert counters.tally(PacketKind.CONTROL).copies == 1

    def test_directions_are_separate(self):
        counters = LinkCounters()
        counters.record(0, 1, 1.0, PacketKind.DATA)
        counters.record(1, 0, 1.0, PacketKind.DATA)
        assert counters.copies_on(0, 1) == 1
        assert counters.copies_on(1, 0) == 1

    def test_per_link_snapshot_is_copy(self):
        counters = LinkCounters()
        counters.record(0, 1, 1.0, PacketKind.DATA)
        snapshot = counters.per_link()
        snapshot[(0, 1)] = 99
        assert counters.copies_on(0, 1) == 1

    def test_reset(self):
        counters = LinkCounters()
        counters.record(0, 1, 1.0, PacketKind.DATA)
        counters.reset()
        assert counters.tally(PacketKind.DATA).copies == 0
        assert counters.tally(PacketKind.DATA).max_copies_on_link == 0

    def test_reset_rewinds_weighted_cost_and_all_kinds(self):
        """reset() rewinds every per-measurement tally — copy counts
        *and* weighted cost, data *and* control — so the next
        measurement starts from a true zero."""
        counters = LinkCounters()
        counters.record(0, 1, 3.0, PacketKind.DATA)
        counters.record(1, 2, 5.0, PacketKind.CONTROL)
        counters.reset()
        for kind in (PacketKind.DATA, PacketKind.CONTROL):
            tally = counters.tally(kind)
            assert tally.copies == 0
            assert tally.weighted_cost == 0.0
            assert tally.links_used == 0
        assert counters.per_link(PacketKind.DATA) == {}

    def test_record_after_reset_starts_fresh(self):
        """The fast-path aliases (_data_copies/_control_copies) must
        stay wired to the live dicts across reset(): recording after a
        reset lands in the queried tallies, from zero."""
        counters = LinkCounters()
        counters.record(0, 1, 2.0, PacketKind.DATA)
        counters.reset()
        counters.record(0, 1, 2.0, PacketKind.DATA)
        counters.record(0, 1, 1.0, PacketKind.CONTROL)
        assert counters.copies_on(0, 1) == 1
        assert counters.copies_on(0, 1, PacketKind.CONTROL) == 1
        assert counters.tally(PacketKind.DATA).weighted_cost == 2.0

    def test_per_link_snapshot_survives_reset(self):
        """per_link() is an independent snapshot: resetting (or
        re-recording) afterwards cannot mutate a snapshot a caller
        already holds — the guarantee the event-plane flow report
        relies on when it measures a distribution post-run."""
        counters = LinkCounters()
        counters.record(0, 1, 1.0, PacketKind.DATA)
        counters.record(0, 1, 1.0, PacketKind.DATA)
        snapshot = counters.per_link()
        counters.reset()
        counters.record(2, 3, 1.0, PacketKind.DATA)
        assert snapshot == {(0, 1): 2}

    def test_busiest_orders_by_copies_then_link(self):
        """busiest() ranks hottest first with a deterministic string
        tie-break, and caps at k."""
        counters = LinkCounters()
        for _ in range(3):
            counters.record(1, 2, 1.0, PacketKind.DATA)
        for _ in range(3):
            counters.record(0, 9, 1.0, PacketKind.DATA)
        counters.record(5, 6, 1.0, PacketKind.DATA)
        counters.record(0, 1, 4.0, PacketKind.CONTROL)
        top = counters.busiest(k=2)
        assert top == [((0, 9), 3), ((1, 2), 3)]
        assert counters.busiest() == [((0, 9), 3), ((1, 2), 3), ((5, 6), 1)]
        assert counters.busiest(kind=PacketKind.CONTROL) == [((0, 1), 1)]

    def test_empty_tally(self):
        tally = LinkCounters().tally(PacketKind.DATA)
        assert tally.copies == 0
        assert tally.weighted_cost == 0.0

    def test_fractional_link_costs(self):
        """Weighted cost sums exactly with non-integer per-link costs
        (unicast-cloud links carry fractional aggregate costs)."""
        counters = LinkCounters()
        counters.record(0, 1, 0.5, PacketKind.DATA)
        counters.record(0, 1, 0.5, PacketKind.DATA)
        counters.record(1, 2, 0.25, PacketKind.DATA)
        tally = counters.tally(PacketKind.DATA)
        assert tally.copies == 3
        assert tally.weighted_cost == 1.25

    def test_max_copies_on_shared_link(self):
        """The paper's Fig. 3 pathology: recursive unicast can put many
        copies of the *same* packet on one physical link — tree cost
        counts transmissions, and max_copies_on_link exposes the
        duplication hot spot."""
        counters = LinkCounters()
        for _ in range(4):  # four unicast copies share link 0->1
            counters.record(0, 1, 2.0, PacketKind.DATA)
        counters.record(1, 2, 2.0, PacketKind.DATA)
        tally = counters.tally(PacketKind.DATA)
        assert tally.copies == 5
        assert tally.links_used == 2
        assert tally.max_copies_on_link == 4
        assert tally.weighted_cost == 10.0


class TestLinkCountersRegistryMirror:
    def test_mirrors_into_shared_metric_names(self):
        registry = MetricsRegistry()
        counters = LinkCounters(registry=registry)
        counters.record(0, 1, 3.0, PacketKind.DATA)
        counters.record(0, 1, 1.0, PacketKind.CONTROL)
        assert registry.value("net.tx.copies", kind="data") == 1.0
        assert registry.value("net.tx.copies", kind="control") == 1.0
        assert registry.value("net.tx.weighted_cost", kind="data") == 3.0

    def test_reset_keeps_registry_cumulative(self):
        """reset() rewinds only the per-measurement tallies; the
        registry counters stay monotonic across measurements."""
        registry = MetricsRegistry()
        counters = LinkCounters(registry=registry)
        counters.record(0, 1, 2.0, PacketKind.DATA)
        counters.reset()
        counters.record(0, 1, 2.0, PacketKind.DATA)
        assert counters.tally(PacketKind.DATA).copies == 1
        assert registry.value("net.tx.copies", kind="data") == 2.0
        assert registry.value("net.tx.weighted_cost", kind="data") == 4.0

    def test_without_registry_no_mirroring(self):
        counters = LinkCounters()
        counters.record(0, 1, 1.0, PacketKind.DATA)
        assert counters.tally(PacketKind.DATA).copies == 1
