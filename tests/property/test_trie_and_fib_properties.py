"""Property-based tests for the PEC trie and the FIB/forwarding layer.

The trie's partition is the foundation of the Packet Equivalence Class
computation (paper §3.1): it must tile the destination space, never split a
configured prefix, and agree with a brute-force "which prefixes cover this
address" check.  The FIB must implement longest-prefix-match with
administrative distance exactly like a router.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.fib import DataPlane, Fib, FibEntry
from repro.dataplane.forwarding import PathStatus, trace_paths
from repro.netaddr import MAX_IPV4, Prefix
from repro.pec.trie import PrefixTrie
from repro.protocols.base import RouteSource
from tests.helpers import entry_for


def aligned_prefix(network: int, length: int) -> Prefix:
    mask = (((1 << length) - 1) << (32 - length)) if length else 0
    return Prefix(network & mask, length)


prefixes = st.builds(aligned_prefix, st.integers(0, MAX_IPV4), st.integers(0, 32))
addresses = st.integers(0, MAX_IPV4)


class TestTrieProperties:
    @given(st.lists(prefixes, min_size=0, max_size=15))
    @settings(max_examples=100, deadline=None)
    def test_partition_tiles_the_space(self, inserted):
        trie = PrefixTrie()
        for prefix in inserted:
            trie.insert(prefix)
        parts = trie.partition()
        assert parts[0][0].low == 0
        assert parts[-1][0].high == MAX_IPV4
        for (before, _), (after, _) in zip(parts, parts[1:]):
            assert after.low == before.high + 1

    @given(st.lists(prefixes, min_size=0, max_size=15), addresses)
    @settings(max_examples=150, deadline=None)
    def test_partition_cell_carries_exactly_the_covering_prefixes(self, inserted, address):
        trie = PrefixTrie()
        for prefix in inserted:
            trie.insert(prefix)
        cell = next(
            (address_range, covering)
            for address_range, covering in trie.partition()
            if address_range.contains_address(address)
        )
        expected = {p for p in inserted if p.contains_address(address)}
        assert set(cell[1]) == expected


class TestFibProperties:
    entries = st.lists(
        st.builds(
            lambda p, drop: FibEntry(
                prefix=p,
                next_hops=() if drop else ("peer",),
                source=RouteSource.STATIC,
                drop=drop,
            ),
            prefixes,
            st.booleans(),
        ),
        min_size=0,
        max_size=12,
    )

    @given(entries, addresses)
    @settings(max_examples=150, deadline=None)
    def test_lookup_is_longest_prefix_match(self, installed, address):
        fib = Fib("r1")
        for entry in installed:
            fib.install(entry)
        covering = [e for e in installed if e.prefix.contains_address(address)]
        result = fib.lookup(address)
        if not covering:
            assert result is None
        else:
            assert result is not None
            assert result.prefix.length == max(e.prefix.length for e in covering)

    @given(prefixes)
    def test_lower_administrative_distance_wins(self, prefix):
        fib = Fib("r1")
        fib.install(FibEntry(prefix=prefix, next_hops=("ospf-peer",), source=RouteSource.OSPF))
        fib.install(FibEntry(prefix=prefix, next_hops=("static-peer",), source=RouteSource.STATIC))
        entry = entry_for(fib, prefix)
        assert entry is not None
        assert entry.source is RouteSource.STATIC
        # Installing the OSPF entry again does not displace the static one.
        fib.install(FibEntry(prefix=prefix, next_hops=("ospf-peer",), source=RouteSource.OSPF))
        assert entry_for(fib, prefix).source is RouteSource.STATIC


class TestForwardingProperties:
    @given(
        st.integers(3, 8),
        st.dictionaries(st.integers(0, 7), st.integers(0, 7), max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_trace_terminates_with_a_classified_status(self, node_count, raw_edges):
        """Arbitrary successor maps always produce finite, classified traces."""
        devices = [f"n{i}" for i in range(node_count)]
        data_plane = DataPlane(devices)
        prefix = Prefix("10.0.0.0/8")
        for source_index, target_index in raw_edges.items():
            if source_index >= node_count:
                continue
            target = devices[target_index % node_count]
            source = devices[source_index]
            if source == target:
                data_plane.install(
                    source, FibEntry(prefix=prefix, delivers_locally=True, source=RouteSource.STATIC)
                )
            else:
                data_plane.install(
                    source,
                    FibEntry(prefix=prefix, next_hops=(target,), source=RouteSource.STATIC),
                )
        for device in devices:
            branches = trace_paths(data_plane, device, prefix.first)
            assert branches
            for branch in branches:
                assert branch.status in set(PathStatus)
                assert branch.nodes[0] == device
                # A branch never repeats a node except the final loop witness.
                assert len(set(branch.nodes)) >= len(branch.nodes) - 1
