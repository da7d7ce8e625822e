"""Property-based tests for routing-policy objects and the OSPF engine.

Prefix lists and route maps implement the "first matching clause decides,
implicit deny at the end" semantics of real routers; the OSPF computation must
agree with plain Dijkstra on symmetric-weight topologies, and — compiled graph,
integer kernel and failure-delta path together — with the name-keyed reference
in ``tests/oracles`` on every table field, read the ways the verifier reads a
table under failures: a read-only view over its failure-free table's dicts.
"""

import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.objects import NetworkConfig, OspfInterface, PrefixList, PrefixListEntry
from repro.config.builder import ConfigBuilder, ospf_everywhere
from repro.netaddr import MAX_IPV4, Prefix
from repro.protocols.ospf import OspfComputation, _Patched
from repro.topology import Topology, fat_tree, ring
from tests.oracles.ospf_reference import reference_compute
from tests.helpers import grid, shortest_path_lengths


def aligned_prefix(network: int, length: int) -> Prefix:
    mask = (((1 << length) - 1) << (32 - length)) if length else 0
    return Prefix(network & mask, length)


prefixes = st.builds(aligned_prefix, st.integers(0, MAX_IPV4), st.integers(0, 32))


# --------------------------------------------------------------------------- prefix lists
entry_strategy = st.builds(
    lambda prefix, permit, ge_extra, le_extra, use_ge, use_le: PrefixListEntry(
        prefix=prefix,
        permit=permit,
        ge=min(32, prefix.length + ge_extra) if use_ge else None,
        le=min(32, prefix.length + ge_extra + le_extra) if use_le else None,
    ),
    prefixes,
    st.booleans(),
    st.integers(0, 8),
    st.integers(0, 8),
    st.booleans(),
    st.booleans(),
)


def reference_entry_matches(entry: PrefixListEntry, candidate: Prefix) -> bool:
    """Straight-from-the-router-manual reference semantics of one entry."""
    if not entry.prefix.contains_prefix(candidate):
        return False
    low = entry.ge if entry.ge is not None else entry.prefix.length
    if entry.le is not None:
        high = entry.le
    elif entry.ge is not None:
        high = 32
    else:
        high = entry.prefix.length
    return low <= candidate.length <= high


class TestPrefixListProperties:
    @given(st.lists(entry_strategy, min_size=0, max_size=8), prefixes)
    @settings(max_examples=200, deadline=None)
    def test_first_matching_entry_decides(self, entries, candidate):
        plist = PrefixList(name="PL", entries=list(entries))
        expected = False
        for entry in entries:
            if reference_entry_matches(entry, candidate):
                expected = entry.permit
                break
        assert plist.permits(candidate) == expected

    @given(entry_strategy, prefixes)
    @settings(max_examples=200, deadline=None)
    def test_entry_match_agrees_with_reference(self, entry, candidate):
        assert entry.matches(candidate) == reference_entry_matches(entry, candidate)

    @given(prefixes)
    def test_exact_entry_matches_only_the_exact_prefix_length(self, prefix):
        entry = PrefixListEntry(prefix=prefix)
        assert entry.matches(prefix)
        if prefix.length < 32:
            more_specific = Prefix(prefix.network, prefix.length + 1)
            assert not entry.matches(more_specific)

    @given(prefixes)
    def test_le_32_entry_matches_every_more_specific_prefix(self, prefix):
        entry = PrefixListEntry(prefix=prefix, le=32)
        assert entry.matches(prefix)
        if prefix.length < 32:
            assert entry.matches(Prefix(prefix.network | (1 << (31 - prefix.length)), prefix.length + 1))


# --------------------------------------------------------------------------- ospf
class TestOspfProperties:
    @given(st.integers(4, 9), st.integers(0, 2 ** 16), st.integers(0, 10))
    @settings(max_examples=25, deadline=None)
    def test_spf_distances_match_dijkstra_on_rings(self, size, seed, origin_index):
        rng = random.Random(seed)
        topology = ring(size)
        # Re-weight links symmetrically but randomly.
        rewired = Topology(f"ring{size}-w{seed}")
        for name in topology.nodes:
            rewired.add_node(name)
        for link in topology.links:
            rewired.add_link(link.a, link.b, weight=rng.randint(1, 20))
        origin = rewired.nodes[origin_index % len(rewired.nodes)]
        prefix = Prefix("10.9.9.0/24")
        network = ospf_everywhere(rewired, prefix_for={origin: prefix})
        table = OspfComputation(network).compute([origin])
        reference = shortest_path_lengths(rewired, origin)
        for node in rewired.nodes:
            assert table.is_reachable(node)
            assert table.distances[node] == reference[node]

    @given(st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_spf_next_hops_lie_on_shortest_paths(self, rows, cols):
        topology = grid(rows, cols)
        origin = topology.nodes[0]
        network = ospf_everywhere(topology, prefix_for={origin: Prefix("10.9.9.0/24")})
        table = OspfComputation(network).compute([origin])
        reference = shortest_path_lengths(topology, origin)
        for node in topology.nodes:
            if node == origin:
                assert table.next_hops.get(node, ()) == ()
                continue
            for hop in table.next_hops[node]:
                weight = topology.find_link(node, hop).weight_from(node)
                assert reference[hop] + weight == reference[node]

    @given(st.integers(4, 8))
    @settings(max_examples=15, deadline=None)
    def test_failed_link_never_appears_on_spf_paths(self, size):
        topology = ring(size)
        origin = topology.nodes[0]
        network = ospf_everywhere(topology, prefix_for={origin: Prefix("10.9.9.0/24")})
        failed = topology.links[0]
        table = OspfComputation(network).compute([origin], failed_links={failed.link_id})
        # The ring minus one link is a chain: it stays connected and no node
        # uses the failed link's far endpoint as a next hop across that link.
        for node in topology.nodes:
            assert table.is_reachable(node)
            if node == failed.a:
                assert failed.b not in table.next_hops[node] or len(
                    topology.links_between(failed.a, failed.b)
                ) > 1


# --------------------------------------------------------------------------- compiled ospf
def _random_ospf_network(rng: random.Random) -> NetworkConfig:
    """A small network exercising every input the compiled graph resolves:
    random and asymmetric weights, parallel links, non-OSPF devices, passive
    interfaces and interface cost overrides (now and then a zero cost, which
    takes the delta path out of play)."""
    shape = rng.choice(["ring", "grid", "fat_tree", "random"])
    if shape == "ring":
        skeleton = [(link.a, link.b) for link in ring(rng.randint(3, 8)).links]
    elif shape == "grid":
        skeleton = [(link.a, link.b) for link in grid(rng.randint(2, 4), rng.randint(2, 4)).links]
    elif shape == "fat_tree":
        skeleton = [(link.a, link.b) for link in fat_tree(4).links]
    else:
        size = rng.randint(3, 9)
        pool = [f"n{i}" for i in range(size)]
        skeleton = [tuple(rng.sample(pool, 2)) for _ in range(rng.randint(size - 1, 2 * size))]
    topology = Topology(f"{shape}-{rng.random():.6f}")
    names = sorted({end for pair in skeleton for end in pair})
    rng.shuffle(names)  # insertion order is not name order
    for name in names:
        topology.add_node(name)
    for a, b in skeleton:
        for _ in range(2 if rng.random() < 0.15 else 1):  # parallel links
            weight = rng.randint(1, 6)
            topology.add_link(a, b, weight=weight, weight_ba=rng.choice([None, rng.randint(1, 6)]))
    builder = ConfigBuilder(topology)
    for name in topology.nodes:
        if rng.random() < 0.12:
            continue  # does not speak OSPF
        builder.enable_ospf(name)
        interfaces = builder.device(name).ospf.interfaces
        for neighbor in topology.neighbors(name):
            roll = rng.random()
            if roll < 0.06:
                interfaces[neighbor] = OspfInterface(neighbor=neighbor, passive=True)
            elif roll < 0.2:
                cost = 0 if rng.random() < 0.05 else rng.randint(1, 9)
                interfaces[neighbor] = OspfInterface(neighbor=neighbor, cost=cost)
    return builder.build(validate=False)


def _assert_same_table(table, reference):
    assert table.distances == reference.distances
    assert table.next_hops == reference.next_hops
    assert table.chosen_origin == reference.chosen_origin
    assert table.deterministic_order == reference.deterministic_order


def _moved_by(before, after):
    """The nodes whose (distance, next hops) differ between two tables."""
    return {
        node
        for node in before.distances.keys() | after.distances.keys()
        if (before.distances.get(node), before.next_hops.get(node))
        != (after.distances.get(node), after.next_hops.get(node))
    }


class TestCompiledOspfAgainstReference:
    @given(st.integers(0, 2 ** 32))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_every_table_field_equals_the_reference(self, seed):
        rng = random.Random(seed)
        network = _random_ospf_network(rng)
        topology = network.topology
        link_ids = [link.link_id for link in topology.links]
        computation = OspfComputation(network)
        # Several requests against one computation, so tables under failures
        # are derived from (and cached beside) a failure-free run that other
        # requests also use, in whatever order the draw produces.
        for _ in range(6):
            origins = rng.sample(topology.nodes, rng.randint(1, min(3, len(topology.nodes))))
            failed = set(rng.sample(link_ids, rng.randint(0, min(3, len(link_ids)))))
            table = computation.compute(origins, failed)
            reference = reference_compute(network, origins, failed)
            _assert_same_table(table, reference)
            # What a derived failure plane rebuilds: every node whose entry
            # differs from the failure-free table's, and no other.
            assert set(computation.moved(origins, failed)) == _moved_by(
                reference_compute(network, origins), reference
            )
        # A kernel run also keeps the reference's dict order (discovery order).
        fresh = OspfComputation(network).compute(origins)
        assert list(fresh.distances) == list(reference_compute(network, origins).distances)

    def test_every_single_link_failure_of_a_fat_tree(self):
        network = ospf_everywhere(fat_tree(4))
        computation = OspfComputation(network)
        for origins in (["edge0_0"], ["edge0_0", "edge2_1"], ["core0", "agg1_0", "edge3_1"]):
            for link in network.topology.links:
                table = computation.compute(origins, {link.link_id})
                _assert_same_table(table, reference_compute(network, origins, {link.link_id}))


def _weighted(name, *links):
    """A topology from ``(a, b, weight)`` triples."""
    topology = Topology(name)
    for a, b, _ in links:
        for end in (a, b):
            if end not in topology:
                topology.add_node(end)
    ids = [topology.add_link(a, b, weight=weight).link_id for a, b, weight in links]
    return ospf_everywhere(topology, originate_roles=()), ids


class TestFailureDeltaBranches:
    """One directed case per branch of the failure-delta path, asserting the
    branch taken (which field objects are shared), not just the result."""

    def test_link_off_the_shortest_paths_returns_the_failure_free_table(self):
        network, (_, _, detour) = _weighted(
            "triangle", ("r0", "r1", 1), ("r1", "r2", 1), ("r0", "r2", 5)
        )
        computation = OspfComputation(network)
        base = computation.compute(["r0"])
        table = computation.compute(["r0"], {detour})
        assert table is base
        _assert_same_table(table, reference_compute(network, ["r0"], {detour}))

    def test_one_of_two_parallel_links_returns_the_failure_free_table(self):
        network, (first, second, _) = _weighted(
            "parallel", ("r0", "r1", 2), ("r0", "r1", 2), ("r1", "r2", 1)
        )
        computation = OspfComputation(network)
        base = computation.compute(["r0"])
        assert computation.compute(["r0"], {first}) is base
        both = computation.compute(["r0"], {first, second})
        assert both.distances == {"r0": 0.0}
        _assert_same_table(both, reference_compute(network, ["r0"], {first, second}))

    def test_surviving_ecmp_sibling_patches_one_next_hops_entry(self):
        network, (_, _, via_r1, _) = _weighted(
            "square", ("r0", "r1", 1), ("r0", "r2", 1), ("r1", "r3", 1), ("r2", "r3", 1)
        )
        computation = OspfComputation(network)
        base = computation.compute(["r0"])
        assert base.next_hops["r3"] == ("r1", "r2")
        table = computation.compute(["r0"], {via_r1})
        assert table.distances is base.distances
        assert table.chosen_origin is base.chosen_origin
        assert table.deterministic_order is base.deterministic_order
        assert table.next_hops is not base.next_hops
        assert {n for n in base.next_hops if table.next_hops[n] != base.next_hops[n]} == {"r3"}
        assert table.next_hops["r3"] == ("r2",)
        assert base.next_hops["r3"] == ("r1", "r2")  # the shared base is not written to
        _assert_same_table(table, reference_compute(network, ["r0"], {via_r1}))

    def test_losing_the_last_shortest_path_next_hop_resettles_the_cut_off_region(self):
        network, (direct, _, _, tail) = _weighted(
            "kite", ("r0", "r1", 1), ("r1", "r2", 1), ("r0", "r2", 5), ("r2", "r3", 1)
        )
        computation = OspfComputation(network)
        base = computation.compute(["r0"])
        table = computation.compute(["r0"], {direct})
        # r1 is cut off from its one-hop path; r2 and r3 behind it move too.
        assert table.distances is not base.distances
        assert table.distances == {"r0": 0.0, "r1": 6.0, "r2": 5.0, "r3": 6.0}
        assert table.next_hops == {"r0": (), "r1": ("r2",), "r2": ("r0",), "r3": ("r2",)}
        assert table.deterministic_order == ("r0", "r2", "r1", "r3")
        assert table.chosen_origin is base.chosen_origin  # one origin, nobody unreachable
        assert base.distances["r1"] == 1.0  # the shared base is not written to
        _assert_same_table(table, reference_compute(network, ["r0"], {direct}))
        # Partitioned away, r3 leaves every field.
        alone = computation.compute(["r0"], {tail})
        assert "r3" not in alone.distances and "r3" not in alone.next_hops
        assert "r3" not in alone.chosen_origin and "r3" not in alone.deterministic_order
        assert "r3" in base.chosen_origin
        _assert_same_table(alone, reference_compute(network, ["r0"], {tail}))

    def test_cut_off_region_under_anycast_origins_reruns_the_kernel(self):
        network, (direct, _, _) = _weighted(
            "chain", ("r0", "r1", 1), ("r1", "r2", 1), ("r2", "r3", 1)
        )
        computation = OspfComputation(network)
        base = computation.compute(["r0", "r3"])
        assert base.chosen_origin == {"r0": "r0", "r3": "r3", "r1": "r0", "r2": "r3"}
        table = computation.compute(["r0", "r3"], {direct})
        assert table.chosen_origin["r1"] == "r3"
        assert table.distances["r1"] == 2.0
        _assert_same_table(table, reference_compute(network, ["r0", "r3"], {direct}))

    def test_sibling_towards_another_origin_reruns_the_kernel(self):
        # r3 is equidistant from the origins r1 and r2 and picks the lower
        # name; without its link to r1 it keeps a next hop but changes origin.
        network, (via_r1, _) = _weighted("fork", ("r1", "r3", 1), ("r2", "r3", 1))
        computation = OspfComputation(network)
        base = computation.compute(["r1", "r2"])
        assert base.chosen_origin["r3"] == "r1"
        table = computation.compute(["r1", "r2"], {via_r1})
        assert table.chosen_origin is not base.chosen_origin
        assert table.chosen_origin["r3"] == "r2"
        _assert_same_table(table, reference_compute(network, ["r1", "r2"], {via_r1}))

    def test_topology_grown_after_compilation_is_recompiled(self):
        network, _ = _weighted("chain", ("r0", "r1", 1))
        computation = OspfComputation(network)
        assert "r2" not in computation.compute(["r0"]).distances
        network.topology.add_node("r2")
        network.set_device(ConfigBuilder(network.topology).enable_ospf("r2").device("r2"))
        network.topology.add_link("r1", "r2", weight=3)
        assert computation.compute(["r0"]).distances["r2"] == 4.0


# --------------------------------------------------------------------------- shared tables
_FIELDS = ("distances", "next_hops", "chosen_origin")


def _assert_reads_like(view, reference, base_reference):
    """``view`` reads as the dict ``reference`` does; where it is a view, its
    keys come in the order of the failure-free reference ``base_reference``."""
    assert dict(view) == reference and dict(view.items()) == reference
    assert len(view) == len(reference)
    assert set(view) == set(reference)
    if isinstance(view, _Patched):
        assert list(view) == [key for key in base_reference if key in reference]
    for key in [*base_reference, "nowhere"]:
        assert (key in view) == (key in reference)
        assert view.get(key) == reference.get(key)
        assert view.get(key, "absent") == reference.get(key, "absent")
        if key in reference:
            assert view[key] == reference[key]
        else:
            with pytest.raises(KeyError):
                view[key]


class TestSharedTables:
    """A table under failures holds its failure-free table's dicts, or a
    read-only view over them with what the failure moved."""

    @given(st.integers(0, 2 ** 32))
    @settings(max_examples=100, deadline=None)
    def test_derived_views_read_like_the_reference(self, seed):
        rng = random.Random(seed)
        network = _random_ospf_network(rng)
        topology = network.topology
        link_ids = [link.link_id for link in topology.links]
        computation = OspfComputation(network)
        origins = rng.sample(topology.nodes, rng.randint(1, min(2, len(topology.nodes))))
        base = computation.compute(origins)
        written = [(dict(getattr(base, name)), list(getattr(base, name))) for name in _FIELDS]
        base_reference = reference_compute(network, origins)
        for _ in range(6):
            failed = set(rng.sample(link_ids, rng.randint(1, min(3, len(link_ids)))))
            table = computation.compute(origins, failed)
            reference = reference_compute(network, origins, failed)
            for name in _FIELDS:
                _assert_reads_like(
                    getattr(table, name), getattr(reference, name), getattr(base_reference, name)
                )
            assert table.deterministic_order == reference.deterministic_order
        # The base is never written.
        assert [(dict(getattr(base, name)), list(getattr(base, name))) for name in _FIELDS] == written

    def test_a_cut_off_node_reads_as_absent(self):
        network, (_, _, _, tail) = _weighted(
            "kite", ("r0", "r1", 1), ("r1", "r2", 1), ("r0", "r2", 5), ("r2", "r3", 1)
        )
        computation = OspfComputation(network)
        base = computation.compute(["r0"])
        alone = computation.compute(["r0"], {tail})
        for name in _FIELDS:
            view = getattr(alone, name)
            assert isinstance(view, _Patched) and view.base is getattr(base, name)
            assert "r3" not in view and "r3" in view.base
            assert view.get("r3") is None and view.get("r3", ()) == ()
            with pytest.raises(KeyError):
                view["r3"]
            assert list(view) == ["r0", "r1", "r2"] and len(view) == 3
        assert alone.deterministic_order == ("r0", "r1", "r2")
        assert alone.deterministic_order == reference_compute(
            network, ["r0"], {tail}
        ).deterministic_order

    def test_a_fat_tree_failure_table_holds_only_what_moved(self):
        network = ospf_everywhere(fat_tree(4))
        computation = OspfComputation(network)
        for origins in (["edge0_0"], ["core0"]):
            base = computation.compute(origins)
            patched = 0
            for link in network.topology.links:
                table = computation.compute(origins, {link.link_id})
                moved = set(computation.moved(origins, {link.link_id}))
                for name in _FIELDS:
                    field, base_field = getattr(table, name), getattr(base, name)
                    if field is base_field:
                        continue
                    assert isinstance(field, _Patched) and field.base is base_field
                    assert set(field.patch) | field.removed <= moved
                    assert field.patch and not field.removed  # a fat tree stays connected
                    patched += 1
                if table.distances is base.distances:
                    assert table.deterministic_order is base.deterministic_order
            assert patched > 0

    def test_equal_ecmp_sets_are_one_tuple_across_tables(self):
        network = ospf_everywhere(fat_tree(4))
        computation = OspfComputation(network)
        seen = {}
        for origins in (["edge0_0"], ["edge3_1"], ["edge0_0", "edge2_1"]):
            for failed in [None] + [{link.link_id} for link in network.topology.links]:
                for hops in computation.compute(origins, failed).next_hops.values():
                    assert seen.setdefault(hops, hops) is hops
        assert any(len(hops) > 1 for hops in seen)
        # Another computation (another name list) interns its own.
        other = OspfComputation(ospf_everywhere(fat_tree(4))).compute(["edge0_0"])
        hops = other.next_hops["agg1_0"]
        assert hops == seen[hops] and hops is not seen[hops]
