"""Unit and property tests for IPv4 address / prefix arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import AddressError
from repro.netaddr import AddressRange, MAX_IPV4, Prefix, int_to_ip, ip_to_int


class TestAddressConversion:
    def test_int_value(self):
        assert ip_to_int("0.0.0.1") == 1
        assert ip_to_int("255.255.255.255") == MAX_IPV4

    @pytest.mark.parametrize("bad", ["10.0.0", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", ""])
    def test_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            ip_to_int(bad)

    def test_rejects_out_of_range_int(self):
        with pytest.raises(AddressError):
            int_to_ip(MAX_IPV4 + 1)

    def test_rejects_negative_int(self):
        with pytest.raises(AddressError):
            int_to_ip(-1)

    def test_surrounding_whitespace_is_ignored(self):
        assert ip_to_int(" 10.0.0.1\n") == ip_to_int("10.0.0.1")

    @pytest.mark.parametrize("bad", ["10.0.0.-1", "10.0.0.+1", "10..0.1", "10.0.0.1 2"])
    def test_an_octet_must_be_plain_digits(self, bad):
        with pytest.raises(AddressError):
            ip_to_int(bad)

    @given(st.integers(min_value=0, max_value=MAX_IPV4))
    def test_int_text_round_trip(self, value):
        assert ip_to_int(int_to_ip(value)) == value


class TestPrefix:
    def test_parse_and_str(self):
        assert str(Prefix("10.0.0.0/8")) == "10.0.0.0/8"

    def test_host_bits_cleared(self):
        assert Prefix("10.1.2.3/16") == Prefix("10.1.0.0/16")

    def test_first_last(self):
        prefix = Prefix("192.168.1.0/24")
        assert prefix.first == ip_to_int("192.168.1.0")
        assert prefix.last == ip_to_int("192.168.1.255")

    def test_slash_zero_covers_everything(self):
        assert Prefix("0.0.0.0/0").contains_address("255.255.255.255")

    def test_contains_prefix(self):
        assert Prefix("10.0.0.0/8").contains_prefix(Prefix("10.1.0.0/16"))
        assert not Prefix("10.1.0.0/16").contains_prefix(Prefix("10.0.0.0/8"))

    def test_bits(self):
        assert list(Prefix("192.0.0.0/2").bits()) == [1, 1]

    @pytest.mark.parametrize("bad", ["10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "300.0.0.0/8"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            Prefix(bad)

    def test_integer_form_needs_a_length(self):
        with pytest.raises(AddressError):
            Prefix(ip_to_int("10.0.0.0"))
        assert Prefix(ip_to_int("10.0.0.0"), 8) == Prefix("10.0.0.0/8")
        assert Prefix("10.0.0.0", 8) == Prefix("10.0.0.0/8")

    def test_rejects_out_of_range_network_int(self):
        with pytest.raises(AddressError):
            Prefix(MAX_IPV4 + 1, 8)

    def test_mask(self):
        assert Prefix("10.0.0.0/8").mask == ip_to_int("255.0.0.0")
        assert Prefix("0.0.0.0/0").mask == 0
        assert Prefix("10.0.0.1/32").mask == MAX_IPV4

    def test_equality_with_text(self):
        assert Prefix("10.0.0.0/8") == "10.0.0.0/8"
        assert Prefix("10.0.0.0/8") != "10.0.0.0/16"
        assert Prefix("10.0.0.0/8") != "not a prefix"

    def test_to_range(self):
        assert Prefix("192.168.1.0/24").to_range() == AddressRange(
            ip_to_int("192.168.1.0"), ip_to_int("192.168.1.255"))

    def test_hashable_and_sortable(self):
        prefixes = {Prefix("10.0.0.0/8"), Prefix("10.0.0.0/8"), Prefix("10.0.0.0/16")}
        assert len(prefixes) == 2
        assert sorted(prefixes)[0] == Prefix("10.0.0.0/8")

    @given(st.integers(min_value=0, max_value=MAX_IPV4), st.integers(min_value=0, max_value=32))
    def test_prefix_contains_its_range(self, network, length):
        prefix = Prefix(network, length)
        assert prefix.contains_address(prefix.first)
        assert prefix.contains_address(prefix.last)


class TestAddressRange:
    def test_basic(self):
        r = AddressRange(ip_to_int("10.0.0.0"), ip_to_int("10.0.0.255"))
        assert r.contains_address("10.0.0.42")
        assert not r.contains_address("10.0.1.0")

    def test_rejects_inverted(self):
        with pytest.raises(AddressError):
            AddressRange(5, 4)

    @pytest.mark.parametrize("low, high", [(-1, 4), (0, MAX_IPV4 + 1), (MAX_IPV4 + 1, MAX_IPV4 + 2)])
    def test_rejects_out_of_bounds(self, low, high):
        with pytest.raises(AddressError):
            AddressRange(low, high)

    def test_overlaps(self):
        assert AddressRange(0, 10).overlaps(AddressRange(10, 20))
        assert not AddressRange(0, 10).overlaps(AddressRange(11, 20))

    def test_representative_is_inside(self):
        r = AddressRange(ip_to_int("10.0.0.0"), ip_to_int("10.0.0.255"))
        assert r.contains_address(r.representative())

    def test_str(self):
        assert str(AddressRange(ip_to_int("10.0.0.0"), ip_to_int("10.0.0.255"))) == (
            "[10.0.0.0, 10.0.0.255]")
