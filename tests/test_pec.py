"""Tests for the prefix trie, PEC computation and the dependency graph."""

import pytest
from hypothesis import given, strategies as st

from repro.config import ConfigBuilder, NetworkConfig, ibgp_over_ospf, ospf_everywhere
from repro.config.objects import StaticRoute
from repro.netaddr import MAX_IPV4, Prefix, ip_to_int
from repro.pec import (
    PacketEquivalenceClass,
    PrefixTrie,
    build_dependency_graph,
    compute_pecs,
    strongly_connected_components,
)
from repro.pec.classes import pec_covering_prefix
from repro.topology import fat_tree, ring
from tests.helpers import add_static_route, linear_chain


def pec_covering_address(pecs, address):
    """The PEC whose range holds ``address``."""
    return next(pec for pec in pecs if pec.address_range.contains_address(address))


class TestPrefixTrie:
    def test_partition_matches_paper_example(self):
        """The Figure 4 example: 128.0.0.0/1 and 192.0.0.0/2 produce 3 classes."""
        trie = PrefixTrie()
        trie.insert(Prefix("128.0.0.0/1"))
        trie.insert(Prefix("192.0.0.0/2"))
        partition = trie.partition()
        assert len(partition) == 3
        ranges = [(r.low, r.high, prefixes) for r, prefixes in partition]
        assert ranges[0][0] == 0 and ranges[0][1] == ip_to_int("127.255.255.255")
        assert ranges[0][2] == ()
        assert ranges[1][0] == ip_to_int("128.0.0.0") and ranges[1][1] == ip_to_int("191.255.255.255")
        assert ranges[1][2] == (Prefix("128.0.0.0/1"),)
        assert ranges[2][2] == (Prefix("192.0.0.0/2"), Prefix("128.0.0.0/1"))

    def test_partition_covers_whole_space(self):
        trie = PrefixTrie()
        trie.insert(Prefix("10.0.0.0/8"))
        trie.insert(Prefix("10.64.0.0/10"))
        partition = trie.partition()
        assert partition[0][0].low == 0
        assert partition[-1][0].high == MAX_IPV4
        for (left, _), (right, _) in zip(partition, partition[1:]):
            assert left.high + 1 == right.low

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=MAX_IPV4),
                st.integers(min_value=1, max_value=32),
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_partition_is_a_partition(self, raw):
        trie = PrefixTrie()
        prefixes = [Prefix(network, length) for network, length in raw]
        for prefix in prefixes:
            trie.insert(prefix)
        partition = trie.partition()
        # Contiguous, covering, and every range is uniform w.r.t. prefix
        # membership (the defining property of an equivalence class).
        assert partition[0][0].low == 0 and partition[-1][0].high == MAX_IPV4
        for (address_range, covering) in partition:
            for prefix in prefixes:
                covers_low = prefix.contains_address(address_range.low)
                covers_high = prefix.contains_address(address_range.high)
                assert covers_low == covers_high == (prefix in covering)


class TestPecComputation:
    def test_fat_tree_pec_per_edge_prefix(self):
        network = ospf_everywhere(fat_tree(4))
        pecs = compute_pecs(network)
        # One PEC per originated /24 (8 edge switches in a k=4 fat tree).
        assert len(pecs) == 8
        for pec in pecs:
            assert any(devices for _prefix, devices in pec.ospf_origins) and not pec.has_bgp()

    def test_origins_recorded(self):
        network = ospf_everywhere(fat_tree(4))
        pecs = compute_pecs(network)
        target = pec_covering_address(pecs, ip_to_int("10.0.0.5"))
        assert target is not None
        assert target.origins_for(target.prefixes[0], "ospf") == ("edge0_0",)

    def test_include_default_pec(self):
        network = ospf_everywhere(fat_tree(4))
        with_default = compute_pecs(network, include_default=True)
        without = compute_pecs(network)
        assert len(with_default) > len(without)
        assert any(pec.is_empty for pec in with_default)

    def test_overlapping_prefixes_split(self):
        topo = linear_chain(2)
        builder = ConfigBuilder(topo)
        builder.enable_ospf("r0", [Prefix("10.0.0.0/8")])
        builder.enable_ospf("r1", [Prefix("10.1.0.0/16")])
        pecs = compute_pecs(builder.build())
        covering = pec_covering_prefix(pecs, Prefix("10.1.0.0/16"))
        assert len(covering) == 1
        assert covering[0].prefixes == (Prefix("10.1.0.0/16"), Prefix("10.0.0.0/8"))
        outer = pec_covering_address(pecs, ip_to_int("10.2.0.0"))
        assert outer.prefixes == (Prefix("10.0.0.0/8"),)

    def test_static_devices_recorded(self):
        topo = linear_chain(2)
        network = NetworkConfig(topo)
        network.device("r0").static_routes.append(
            StaticRoute(prefix=Prefix("10.0.0.0/8"), next_hop_node="r1")
        )
        pecs = compute_pecs(network)
        assert pecs[0].origins_for(Prefix("10.0.0.0/8"), "static") == ("r0",)


class TestSccAndDependencies:
    def test_tarjan_simple_cycle(self):
        sccs = strongly_connected_components([1, 2, 3], {1: {2}, 2: {3}, 3: {1}})
        assert sccs == [[1, 2, 3]]

    def test_tarjan_dag(self):
        sccs = strongly_connected_components([1, 2, 3], {1: {2}, 2: {3}})
        assert sorted(map(tuple, sccs)) == [(1,), (2,), (3,)]

    def test_tarjan_self_loop(self):
        sccs = strongly_connected_components([1, 2], {1: {1}, 2: set()})
        assert sorted(map(tuple, sccs)) == [(1,), (2,)]

    def test_no_dependencies_for_plain_ospf(self):
        network = ospf_everywhere(fat_tree(4))
        graph = build_dependency_graph(network, compute_pecs(network))
        assert not any(graph.edges.values())
        # Every SCC is a singleton, as the paper expects in the common case.
        assert all(len(scc) == 1 for scc in graph.strongly_connected_components())

    def test_recursive_static_creates_dependency(self):
        topo = linear_chain(3)
        builder = ConfigBuilder(topo)
        builder.enable_ospf("r0", [Prefix("10.0.1.0/24")])
        builder.enable_ospf("r1")
        builder.enable_ospf("r2")
        add_static_route(builder.network, "r2", Prefix("172.16.0.0/12"), next_hop_ip=Prefix("10.0.1.1/32"))
        network = builder.build()
        pecs = compute_pecs(network)
        graph = build_dependency_graph(network, pecs)
        assert any(graph.edges.values())
        static_pec = pec_covering_prefix(pecs, Prefix("172.16.0.0/12"))[0]
        next_hop_pec = pec_covering_address(pecs, ip_to_int("10.0.1.1"))
        assert next_hop_pec.index in graph.dependencies_of(static_pec.index)

    def test_self_loop_dependency_supported(self):
        """The paper observed static routes whose next hop falls inside the
        destination prefix (a self-loop in the PEC dependency graph)."""
        topo = linear_chain(2)
        builder = ConfigBuilder(topo)
        builder.enable_ospf("r0", [Prefix("10.0.0.0/8")])
        builder.enable_ospf("r1")
        add_static_route(builder.network, "r1", Prefix("10.0.0.0/8"), next_hop_ip=Prefix("10.0.0.1/32"))
        network = builder.build()
        pecs = compute_pecs(network)
        graph = build_dependency_graph(network, pecs)
        target = pec_covering_address(pecs, ip_to_int("10.0.0.1"))
        assert target.index in graph.dependencies_of(target.index)
        # The schedule still works (self-loops stay within one SCC).
        assert graph.schedule()

    def test_ibgp_dependency_structure(self):
        """Figure 5: iBGP PECs depend on the loopback PECs; scheduling puts the
        loopbacks first."""
        topo = ring(5)
        network = ibgp_over_ospf(topo, {"r0": Prefix("200.0.0.0/16"), "r2": Prefix("201.0.0.0/16")})
        pecs = compute_pecs(network)
        graph = build_dependency_graph(network, pecs)
        assert any(graph.edges.values())
        schedule = graph.schedule()
        position = {index: i for i, scc in enumerate(schedule) for index in scc}
        bgp_pec = pec_covering_prefix(pecs, Prefix("200.0.0.0/16"))[0]
        for dependency in graph.dependencies_of(bgp_pec.index):
            assert position[dependency] < position[bgp_pec.index]
