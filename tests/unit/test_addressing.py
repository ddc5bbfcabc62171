"""Unit tests for the address model."""

import dataclasses
import pickle
import random

import pytest

from repro.addressing import (
    Address,
    AddressAllocator,
    Channel,
    GroupAddress,
    ReuniteChannel,
)
from repro.errors import AddressError


class TestAddress:
    def test_parse_round_trip(self):
        address = Address.parse("10.1.2.3")
        assert str(address) == "10.1.2.3"

    def test_parse_octets(self):
        assert Address.parse("0.0.0.1").value == 1
        assert Address.parse("1.0.0.0").value == 1 << 24

    def test_rejects_garbage(self):
        for bad in ("", "10.1.2", "10.1.2.3.4", "a.b.c.d", "10.1.2.256"):
            with pytest.raises(AddressError):
                Address.parse(bad)

    def test_rejects_class_d_values(self):
        with pytest.raises(AddressError):
            Address.parse("224.0.0.1")
        with pytest.raises(AddressError):
            Address.parse("239.255.255.255")

    def test_accepts_class_e_boundary(self):
        assert str(Address.parse("240.0.0.0")) == "240.0.0.0"
        assert str(Address.parse("223.255.255.255")) == "223.255.255.255"

    def test_rejects_out_of_range_value(self):
        with pytest.raises(AddressError):
            Address(2**32)
        with pytest.raises(AddressError):
            Address(-1)

    def test_ordering_and_hashing(self):
        a = Address.parse("10.0.0.1")
        b = Address.parse("10.0.0.2")
        assert a < b
        assert len({a, b, Address.parse("10.0.0.1")}) == 2

    def test_repr(self):
        assert "10.0.0.1" in repr(Address.parse("10.0.0.1"))


class TestGroupAddress:
    def test_parse_round_trip(self):
        group = GroupAddress.parse("232.1.0.1")
        assert str(group) == "232.1.0.1"

    def test_rejects_unicast_values(self):
        with pytest.raises(AddressError):
            GroupAddress.parse("10.0.0.1")
        with pytest.raises(AddressError):
            GroupAddress.parse("240.0.0.0")

    def test_class_d_boundaries(self):
        assert GroupAddress.parse("224.0.0.0")
        assert GroupAddress.parse("239.255.255.255")

    def test_ssm_block_detection(self):
        assert GroupAddress.parse("232.0.0.1").is_ssm
        assert not GroupAddress.parse("224.0.0.1").is_ssm
        assert not GroupAddress.parse("233.0.0.1").is_ssm


class TestChannel:
    def test_channel_identity(self):
        s = Address.parse("10.0.0.1")
        g = GroupAddress.parse("232.1.0.1")
        assert Channel(s, g) == Channel(s, g)
        assert str(Channel(s, g)) == "<10.0.0.1, 232.1.0.1>"

    def test_channels_with_same_group_different_source_differ(self):
        g = GroupAddress.parse("232.1.0.1")
        c1 = Channel(Address.parse("10.0.0.1"), g)
        c2 = Channel(Address.parse("10.0.0.2"), g)
        assert c1 != c2  # the EXPRESS uniqueness argument

    def test_channel_is_hashable_dict_key(self):
        g = GroupAddress.parse("232.1.0.1")
        table = {Channel(Address.parse("10.0.0.1"), g): "state"}
        assert table[Channel(Address.parse("10.0.0.1"), g)] == "state"


class TestReuniteChannel:
    def test_valid_port(self):
        channel = ReuniteChannel(Address.parse("10.0.0.1"), 5000)
        assert "5000" in str(channel)

    def test_rejects_bad_ports(self):
        source = Address.parse("10.0.0.1")
        for port in (0, -1, 65536):
            with pytest.raises(AddressError):
                ReuniteChannel(source, port)


def _source(text="10.0.0.1"):
    return Address.parse(text)


def _group(text="232.1.0.1"):
    return GroupAddress.parse(text)


#: Per type: a function making (low, high) instances, the tuple the
#: dataclass-generated ``__hash__`` hashed, and the expected repr/str.
STORED_HASH_CASES = {
    "Address": (
        lambda: (_source("10.0.0.1"), _source("10.0.0.2")),
        lambda a: (a.value,),
        "Address('10.0.0.1')", "10.0.0.1",
    ),
    "GroupAddress": (
        lambda: (_group("232.1.0.1"), _group("232.1.0.2")),
        lambda g: (g.value,),
        "GroupAddress('232.1.0.1')", "232.1.0.1",
    ),
    "Channel": (
        lambda: (Channel(_source(), _group()),
                 Channel(_source(), _group("232.1.0.2"))),
        lambda c: (c.source, c.group),
        "Channel(source=Address('10.0.0.1'), "
        "group=GroupAddress('232.1.0.1'))",
        "<10.0.0.1, 232.1.0.1>",
    ),
    "ReuniteChannel": (
        lambda: (ReuniteChannel(_source(), 5000),
                 ReuniteChannel(_source(), 5001)),
        lambda r: (r.source, r.port),
        "ReuniteChannel(source=Address('10.0.0.1'), port=5000)",
        "<10.0.0.1, 5000>",
    ),
}


@pytest.mark.parametrize("name", sorted(STORED_HASH_CASES))
class TestStoredHash:
    """Each type computes its hash once, at construction.  The stored
    value must be the one the generated ``__hash__`` returns, so that
    sets and dicts keep their iteration order, and the stored slot must
    not show in equality, ordering, repr or str."""

    def test_hash_is_the_generated_formula(self, name):
        build, fields, _, _ = STORED_HASH_CASES[name]
        for item in build():
            assert hash(item) == hash(fields(item))

    def test_equality_order_repr_and_str_unchanged(self, name):
        build, _, want_repr, want_str = STORED_HASH_CASES[name]
        low, high = build()
        again, _ = build()
        assert low == again and low is not again
        assert low != high
        assert low < high and not high < low
        assert sorted([high, low]) == [low, high]
        assert repr(low) == want_repr
        assert str(low) == want_str

    def test_pickle_round_trip_keeps_equality_and_hash(self, name):
        build, _, _, _ = STORED_HASH_CASES[name]
        for item in build():
            copy = pickle.loads(pickle.dumps(item))
            assert copy == item
            assert hash(copy) == hash(item)

    def test_replace_recomputes_the_hash(self, name):
        build, fields, _, _ = STORED_HASH_CASES[name]
        low, high = build()
        changed = {field.name: getattr(high, field.name)
                   for field in dataclasses.fields(high) if field.init}
        replaced = dataclasses.replace(low, **changed)
        assert replaced == high
        assert hash(replaced) == hash(high) == hash(fields(high))


def test_address_set_iterates_in_generated_hash_order():
    """Equal hashes and equal insertion order give equal iteration
    order, so every set of addresses iterates as it would under the
    generated hash."""
    rng = random.Random(27)
    values = rng.sample(range(10 << 24, 11 << 24), 200)
    addresses = {Address(value) for value in values}
    tuples = {(value,) for value in values}
    assert [address.value for address in addresses] == [
        value for (value,) in tuples]


class TestAddressAllocator:
    def test_sequential_unicast(self):
        allocator = AddressAllocator()
        first = allocator.next_unicast()
        second = allocator.next_unicast()
        assert second.value == first.value + 1

    def test_sequential_groups(self):
        allocator = AddressAllocator()
        first = allocator.next_group()
        second = allocator.next_group()
        assert second.value == first.value + 1
        assert first.is_ssm

    def test_unicast_range(self):
        allocator = AddressAllocator()
        addresses = list(allocator.unicast_range(10))
        assert len(set(addresses)) == 10

    def test_custom_bases(self):
        allocator = AddressAllocator(base_unicast="192.168.0.1",
                                     base_group="232.9.0.0")
        assert str(allocator.next_unicast()) == "192.168.0.1"
        assert str(allocator.next_group()) == "232.9.0.0"
