"""Property-based tests for the IPv4 prefix / range algebra.

These invariants underpin everything above them: the PEC trie, the FIB's
longest-prefix match, the failure-equivalence reduction and the data plane
verifier all assume that prefix containment and range conversion behave like
set operations on address intervals.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netaddr import MAX_IPV4, Prefix, int_to_ip, ip_to_int


def aligned_prefix(network: int, length: int) -> Prefix:
    """A prefix with host bits masked off (the only canonical form)."""
    mask = (((1 << length) - 1) << (32 - length)) if length else 0
    return Prefix(network & mask, length)


prefixes = st.builds(aligned_prefix, st.integers(0, MAX_IPV4), st.integers(0, 32))
addresses = st.integers(0, MAX_IPV4)


class TestAddressConversion:
    @given(addresses)
    @settings(max_examples=200)
    def test_ip_text_round_trip(self, address):
        assert ip_to_int(int_to_ip(address)) == address

    @given(addresses)
    def test_text_form_has_four_octets_in_range(self, address):
        octets = int_to_ip(address).split(".")
        assert len(octets) == 4
        assert all(0 <= int(octet) <= 255 for octet in octets)


class TestPrefixAlgebra:
    @given(prefixes, addresses)
    @settings(max_examples=200)
    def test_contains_address_matches_range_bounds(self, prefix, address):
        assert prefix.contains_address(address) == (prefix.first <= address <= prefix.last)

    @given(prefixes)
    def test_prefix_covers_exactly_2_pow_hostbits_addresses(self, prefix):
        assert prefix.last - prefix.first + 1 == 1 << (32 - prefix.length)

    @given(prefixes, prefixes)
    @settings(max_examples=200)
    def test_containment_matches_interval_containment(self, outer, inner):
        expected = outer.first <= inner.first and inner.last <= outer.last
        assert outer.contains_prefix(inner) == expected

    @given(prefixes, prefixes)
    @settings(max_examples=200)
    def test_overlap_is_symmetric_and_matches_intervals(self, left, right):
        expected = not (left.last < right.first or right.last < left.first)
        overlap = left.to_range().overlaps(right.to_range())
        assert overlap == expected
        assert right.to_range().overlaps(left.to_range()) == overlap
        # Two prefixes overlap exactly when one contains the other.
        assert overlap == (left.contains_prefix(right) or right.contains_prefix(left))

    @given(prefixes)
    def test_containment_is_reflexive(self, prefix):
        assert prefix.contains_prefix(prefix)

    @given(st.integers(0, MAX_IPV4), st.integers(0, 31))
    def test_subnets_partition_the_parent(self, network, length):
        parent = aligned_prefix(network, length)
        left = Prefix(parent.network, length + 1)
        right = Prefix(parent.network | (1 << (31 - length)), length + 1)
        assert left.first == parent.first
        assert right.last == parent.last
        assert left.last + 1 == right.first
        assert parent.contains_prefix(left) and parent.contains_prefix(right)
        assert not left.contains_prefix(parent)

    @given(prefixes)
    def test_to_range_spans_first_to_last(self, prefix):
        covered = prefix.to_range()
        assert (covered.low, covered.high) == (prefix.first, prefix.last)

    @given(prefixes, prefixes)
    def test_order_is_network_then_length(self, left, right):
        assert (left < right) == ((left.network, left.length) < (right.network, right.length))
        assert (left == right) == (hash(left) == hash(right) and str(left) == str(right))

    @given(prefixes, prefixes)
    def test_string_form_parses_back_to_the_same_prefix(self, prefix, _other):
        assert Prefix(str(prefix)) == prefix

    @given(prefixes)
    def test_bits_reconstruct_the_network(self, prefix):
        value = 0
        for bit in prefix.bits():
            value = (value << 1) | bit
        assert value << (32 - prefix.length) == prefix.first if prefix.length else value == 0
