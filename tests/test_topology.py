"""Tests for the topology graph, generators and failure machinery."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import TopologyError
from repro.topology import (
    DeviceEquivalence,
    FailureScenario,
    ROCKETFUEL_SIZES,
    Topology,
    bgp_fat_tree,
    enterprise_like,
    enumerate_failure_scenarios,
    fat_tree,
    fat_tree_device_count,
    reduced_failure_scenarios,
    ring,
    rocketfuel_like,
)
from tests.helpers import (
    copy_topology,
    full_mesh,
    grid,
    induced_subgraph,
    is_connected,
    linear_chain,
    shortest_path_lengths,
)


class TestTopologyGraph:
    def test_add_nodes_and_links(self):
        topo = Topology("t")
        topo.add_node("a")
        topo.add_node("b")
        link = topo.add_link("a", "b", weight=3)
        assert topo.neighbors("a") == ["b"]
        assert link.weight_from("a") == 3
        assert link.other("a") == "b"

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node("a")
        with pytest.raises(TopologyError):
            topo.add_node("a")

    def test_self_loop_rejected(self):
        topo = Topology()
        topo.add_node("a")
        with pytest.raises(TopologyError):
            topo.add_link("a", "a")

    def test_unknown_endpoint_rejected(self):
        topo = Topology()
        topo.add_node("a")
        with pytest.raises(TopologyError):
            topo.add_link("a", "missing")

    def test_asymmetric_weights(self):
        topo = linear_chain(2)
        link = topo.add_link("r0", "r1", weight=1, weight_ba=7)
        assert link.weight_from("r0") == 1
        assert link.weight_from("r1") == 7

    def test_parallel_links(self):
        topo = linear_chain(2)
        topo.add_link("r0", "r1", weight=5)
        assert len(topo.links_between("r0", "r1")) == 2

    def test_failed_links_hide_neighbors(self):
        topo = linear_chain(3)
        link = topo.find_link("r0", "r1")
        assert topo.neighbors("r0", failed_links={link.link_id}) == []
        assert topo.neighbors("r1", failed_links={link.link_id}) == ["r2"]

    def test_connectivity(self):
        topo = linear_chain(4)
        assert is_connected(topo)
        middle = topo.find_link("r1", "r2")
        assert not is_connected(topo, failed_links={middle.link_id})

    def test_shortest_path_lengths(self):
        topo = ring(6, link_weight=2)
        lengths = shortest_path_lengths(topo, "r0")
        assert lengths["r3"] == 6  # halfway around a 6-ring with weight 2

    def test_copy_and_subgraph(self):
        topo = grid(2, 3)
        clone = copy_topology(topo)
        assert len(clone) == len(topo) and len(clone.links) == len(topo.links)
        sub = induced_subgraph(topo, ["g0_0", "g0_1"])
        assert len(sub) == 2 and len(sub.links) == 1


class TestGenerators:
    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    def test_fat_tree_size(self, k):
        topo = fat_tree(k)
        assert len(topo) == fat_tree_device_count(k)
        assert len(topo.nodes_by_role("core")) == (k // 2) ** 2
        assert len(topo.nodes_by_role("edge")) == k * k // 2

    def test_fat_tree_requires_even_arity(self):
        with pytest.raises(TopologyError):
            fat_tree(3)

    def test_fat_tree_edge_degree(self):
        topo = fat_tree(4)
        for edge in topo.nodes_by_role("edge"):
            assert topo.degree(edge) == 2  # connects to each agg in its pod

    def test_bgp_fat_tree_asn_assignment(self):
        topo = bgp_fat_tree(4, base_asn=65000)
        core_asns = {topo.node(n).attributes["asn"] for n in topo.nodes_by_role("core")}
        edge_asns = [topo.node(n).attributes["asn"] for n in topo.nodes_by_role("edge")]
        assert core_asns == {65000}
        assert len(set(edge_asns)) == len(edge_asns)  # one AS per rack

    def test_ring_and_chain_and_mesh(self):
        assert len(ring(5).links) == 5
        assert len(linear_chain(5).links) == 4
        assert len(full_mesh(5).links) == 10

    def test_grid(self):
        topo = grid(3, 4)
        assert len(topo) == 12
        assert len(topo.links) == 3 * 3 + 2 * 4

    def test_rocketfuel_like_sizes(self):
        for as_name, size in ROCKETFUEL_SIZES.items():
            topo = rocketfuel_like(as_name, size=min(size, 60), seed=1)
            assert len(topo) == min(size, 60)
            assert is_connected(topo)

    def test_rocketfuel_like_deterministic(self):
        a = rocketfuel_like("AS1221", size=40, seed=9)
        b = rocketfuel_like("AS1221", size=40, seed=9)
        assert [str(l) for l in a.links] == [str(l) for l in b.links]

    def test_rocketfuel_unknown_as(self):
        with pytest.raises(TopologyError):
            rocketfuel_like("AS9999")

    def test_enterprise_like(self):
        topo = enterprise_like("II", devices=30, recursive_routing=True)
        assert len(topo) == 30
        assert is_connected(topo)
        assert any(topo.node(n).loopback is not None for n in topo.nodes_by_role("core"))


class TestFailures:
    def test_enumerate_zero(self):
        topo = ring(4)
        assert enumerate_failure_scenarios(topo, 0) == [FailureScenario()]

    def test_enumerate_counts(self):
        topo = ring(4)  # 4 links
        scenarios = enumerate_failure_scenarios(topo, 2)
        assert len(scenarios) == 1 + 4 + 6

    def test_failure_scenario_canonical(self):
        assert FailureScenario.of([3, 1, 3]) == FailureScenario((1, 3))

    def test_protected_links(self):
        topo = ring(4)
        protected = {topo.links[0].link_id}
        scenarios = enumerate_failure_scenarios(topo, 1, protected_links=protected)
        assert all(topo.links[0].link_id not in s.failed_links for s in scenarios)

    def test_negative_failures_rejected(self):
        with pytest.raises(TopologyError):
            enumerate_failure_scenarios(ring(4), -1)

    def test_device_equivalence_symmetry(self):
        # In a uniform ring every node is equivalent.
        topo = ring(6)
        equivalence = DeviceEquivalence(topo)
        assert len(set(equivalence.device_classes.values())) == 1

    def test_device_equivalence_respects_colors(self):
        topo = ring(6)
        equivalence = DeviceEquivalence(topo, colors={"r0": "origin"})
        classes = set(equivalence.device_classes.values())
        assert len(classes) > 1

    def test_reduced_scenarios_fewer_than_full(self):
        topo = fat_tree(4)
        full = enumerate_failure_scenarios(topo, 1)
        reduced = reduced_failure_scenarios(topo, 1)
        assert len(reduced) < len(full)
        assert FailureScenario() in reduced

    def test_reduced_scenarios_interesting_nodes_kept_distinct(self):
        topo = fat_tree(4)
        reduced_plain = reduced_failure_scenarios(topo, 1)
        reduced_pinned = reduced_failure_scenarios(topo, 1, interesting_nodes=["agg0_0"])
        assert len(reduced_pinned) >= len(reduced_plain)

    @given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=2))
    def test_reduced_is_subset_of_full(self, n, k):
        topo = ring(n)
        full = {s.failed_links for s in enumerate_failure_scenarios(topo, k)}
        reduced = {s.failed_links for s in reduced_failure_scenarios(topo, k)}
        assert reduced <= full
