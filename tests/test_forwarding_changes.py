"""A forwarding change checked with what the package has: the PEC partition
says which destinations a change touches, the FIB model answers the lookups,
and the policies give the verdict.

The scenarios are small hand-built data planes (a rule at a time on three or
four devices) plus the converged planes Plankton keeps for a fat tree; the
properties check that a change cannot move the verdict of a destination range
it does not overlap.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig, ospf_everywhere
from repro.core.verifier import Plankton
from repro.dataplane import DataPlane, FibEntry, ForwardingGraph, PathStatus, trace_paths
from repro.netaddr import MAX_IPV4, AddressRange, Prefix
from repro.pec.classes import PacketEquivalenceClass, pec_covering_prefix
from repro.pec.trie import PrefixTrie
from repro.policies import (
    BlackHoleFreedom,
    BoundedPathLength,
    LoopFreedom,
    Reachability,
    Waypoint,
)
from repro.policies.base import PolicyCheckContext
from repro.protocols.base import RouteSource
from repro.topology import fat_tree
from tests.helpers import linear_chain

DEVICES = ("a", "b", "c")
WXYZ = ("w", "x", "y", "z")
SLASH_24 = "10.0.0.0/24"


def entry(prefix, target):
    """A FIB entry for ``prefix``: ``target`` is a device, "deliver" or "drop"."""
    prefix = Prefix(prefix) if isinstance(prefix, str) else prefix
    if target == "deliver":
        return FibEntry(prefix=prefix, delivers_locally=True, source=RouteSource.CONNECTED)
    if target == "drop":
        return FibEntry(prefix=prefix, drop=True)
    return FibEntry(prefix=prefix, next_hops=(target,))


def plane(rules, devices=DEVICES):
    """A data plane from ``(device, prefix, target)`` rules, installed in order."""
    data_plane = DataPlane(devices)
    for device, prefix, target in rules:
        data_plane.install(device, entry(prefix, target))
    return data_plane


def pecs_of(prefixes):
    """The PECs of a set of prefixes: the trie partition's covered cells."""
    trie = PrefixTrie()
    for prefix in set(prefixes):
        trie.insert(prefix)
    cells = [(cell, covering) for cell, covering in trie.partition() if covering]
    return [
        PacketEquivalenceClass(index=index, address_range=cell, prefixes=covering)
        for index, (cell, covering) in enumerate(cells)
    ]


def installed_prefixes(data_plane):
    return [e.prefix for fib in data_plane.fibs.values() for e in fib.entries()]


def check(policy, data_plane, pec=None):
    pec = pec or pecs_of([Prefix(SLASH_24)])[0]
    context = PolicyCheckContext(
        network=NetworkConfig(linear_chain(2)), pec=pec, data_plane=data_plane
    )
    return policy.check(context)


def verdicts(policy, data_plane):
    """Per PEC of the plane's own prefixes: the policy's violation, or None."""
    return {
        pec.address_range: check(policy, data_plane, pec)
        for pec in pecs_of(installed_prefixes(data_plane))
        if policy.applies_to(pec)
    }


CHAIN = [("a", SLASH_24, "b"), ("b", SLASH_24, "c"), ("c", SLASH_24, "deliver")]
CYCLE = [("a", SLASH_24, "b"), ("b", SLASH_24, "c"), ("c", SLASH_24, "a")]


# --------------------------------------------------------------------------- partition
def aligned_prefix(network: int, length: int) -> Prefix:
    mask = (((1 << length) - 1) << (32 - length)) if length else 0
    return Prefix(network & mask, length)


prefixes = st.builds(aligned_prefix, st.integers(0, MAX_IPV4), st.integers(8, 24))
rules = st.lists(
    st.tuples(st.sampled_from(WXYZ), prefixes, st.sampled_from(WXYZ + ("deliver", "drop"))),
    min_size=1,
    max_size=10,
)


class TestChangePartition:
    def test_no_prefix_is_one_default_cell(self):
        assert PrefixTrie().partition() == [(AddressRange(0, MAX_IPV4), ())]
        assert pecs_of([]) == []

    def test_a_more_specific_prefix_splits_only_its_parent_cell(self):
        before = pecs_of([Prefix("10.0.0.0/8")])
        after = pecs_of([Prefix("10.0.0.0/8"), Prefix("10.1.0.0/16")])
        assert [pec.address_range for pec in before] == [Prefix("10.0.0.0/8").to_range()]
        assert len(after) == 3
        assert after[0].address_range.low == Prefix("10.0.0.0/8").first
        assert after[-1].address_range.high == Prefix("10.0.0.0/8").last
        assert [pec.prefixes for pec in after] == [
            (Prefix("10.0.0.0/8"),),
            (Prefix("10.1.0.0/16"), Prefix("10.0.0.0/8")),
            (Prefix("10.0.0.0/8"),),
        ]

    def test_pecs_touched_by_a_change_are_those_overlapping_its_prefix(self):
        pecs = pecs_of([Prefix("10.0.0.0/8"), Prefix("10.1.0.0/16"), Prefix("192.168.0.0/16")])
        touched = pec_covering_prefix(pecs, Prefix("10.1.0.0/16"))
        assert [pec.address_range for pec in touched] == [Prefix("10.1.0.0/16").to_range()]
        assert len(pec_covering_prefix(pecs, Prefix("10.0.0.0/8"))) == 3
        assert pec_covering_prefix(pecs, Prefix("172.16.0.0/12")) == []

    @given(st.lists(prefixes, min_size=0, max_size=12), prefixes)
    @settings(max_examples=80, deadline=None)
    def test_adding_a_prefix_leaves_disjoint_cells_alone(self, existing, added):
        changed = added.to_range()
        before = {pec.address_range: pec.prefixes for pec in pecs_of(existing)}
        after = {pec.address_range: pec.prefixes for pec in pecs_of(existing + [added])}
        for cell, covering in before.items():
            if not cell.overlaps(changed):
                assert after[cell] == covering
        # A new cell is a piece of a cell the prefix split, or of the prefix.
        for cell in after.keys() - before.keys():
            parents = [old for old in before if old.low <= cell.low and cell.high <= old.high]
            assert [old for old in parents if old.overlaps(changed)] == parents
            assert parents or (changed.low <= cell.low and cell.high <= changed.high)

    @given(rules)
    @settings(max_examples=80, deadline=None)
    def test_every_address_of_a_cell_gets_the_same_entry_on_every_device(self, raw):
        data_plane = plane(raw, devices=WXYZ)
        for pec in pecs_of(installed_prefixes(data_plane)):
            cell = pec.address_range
            for device in data_plane.devices():
                at_low = data_plane.lookup(device, cell.low)
                assert data_plane.lookup(device, cell.high) is at_low
                assert data_plane.lookup(device, (cell.low + cell.high) // 2) is at_low


# --------------------------------------------------------------------------- one rule at a time
class TestPoliciesAcrossAChange:
    def test_the_entry_that_closes_a_cycle_is_a_loop(self):
        assert check(LoopFreedom(), plane(CYCLE[:2])) is None
        message = check(LoopFreedom(), plane(CYCLE))
        assert message is not None and "a -> b -> c -> a" in message

    def test_the_loop_clears_when_the_closing_entry_becomes_a_delivery(self):
        data_plane = plane(CYCLE)
        # A connected route outranks the static one that closed the cycle.
        data_plane.install("c", entry(SLASH_24, "deliver"))
        assert check(LoopFreedom(), data_plane) is None
        assert check(Reachability(sources=["a"]), data_plane) is None

    def test_a_more_specific_bounce_loops_only_its_own_pec(self):
        data_plane = plane(
            [
                ("a", "10.0.0.0/8", "b"),
                ("b", "10.0.0.0/8", "deliver"),
                ("b", "10.0.1.0/24", "a"),
            ]
        )
        found = verdicts(LoopFreedom(), data_plane)
        assert len(found) == 3
        looping = [cell for cell, message in found.items() if message is not None]
        assert looping == [Prefix("10.0.1.0/24").to_range()]
        assert data_plane.next_hops("b", Prefix("10.0.1.0/24").first) == ("a",)
        assert data_plane.next_hops("b", Prefix("10.0.2.0/24").first) == ()

    def test_reachability_along_the_chain(self):
        assert check(Reachability(sources=["a"]), plane(CHAIN)) is None
        assert check(Reachability(), plane(CHAIN)) is None
        message = check(Reachability(sources=["a"]), plane(CHAIN[:2]))
        assert message is not None and "blackhole" in message

    def test_bypassed_waypoint_within_the_hop_bound(self):
        data_plane = plane(
            [("edge", SLASH_24, "core"), ("core", SLASH_24, "dst"), ("dst", SLASH_24, "deliver")],
            devices=("edge", "agg", "core", "dst"),
        )
        message = check(Waypoint(sources=["edge"], waypoints=["agg"]), data_plane)
        assert message is not None and "bypasses" in message
        assert check(BoundedPathLength(3, sources=["edge"]), data_plane) is None
        assert check(BoundedPathLength(1, sources=["edge"]), data_plane) is not None

    def test_a_next_hop_without_an_entry_is_a_black_hole_on_the_path(self):
        data_plane = plane([("a", SLASH_24, "b")])
        message = check(BlackHoleFreedom(), data_plane)
        assert message is not None and "device b" in message
        # Scoping to a's paths forgives c, never b.
        scoped = check(BlackHoleFreedom(only_on_paths_from=["a"]), data_plane)
        assert scoped is not None and "device b" in scoped
        assert check(BlackHoleFreedom(only_on_paths_from=["c"]), data_plane) is not None
        data_plane.install("b", entry(SLASH_24, "deliver"))
        assert check(BlackHoleFreedom(only_on_paths_from=["a"]), data_plane) is None

    @pytest.mark.parametrize(
        "policy",
        [
            LoopFreedom(),
            BlackHoleFreedom(),
            Reachability(sources=["a"]),
            Waypoint(sources=["a"], waypoints=["b"]),
            BoundedPathLength(2, sources=["a"]),
        ],
        ids=repr,
    )
    def test_every_policy_holds_on_the_delivering_chain(self, policy):
        assert check(policy, plane(CHAIN)) is None

    @pytest.mark.parametrize(
        "policy, violated",
        [
            (LoopFreedom(), True),
            (Reachability(sources=["a"]), True),
            (BoundedPathLength(8, sources=["a"]), True),
            # Nothing on the cycle lacks an entry, and every branch passes b.
            (BlackHoleFreedom(), False),
            (Waypoint(sources=["a"], waypoints=["b"]), False),
        ],
        ids=lambda value: repr(value) if not isinstance(value, bool) else str(value),
    )
    def test_a_cycle_is_seen_by_the_policies_that_follow_it(self, policy, violated):
        assert (check(policy, plane(CYCLE)) is not None) is violated


# --------------------------------------------------------------------------- random changes
class TestChangeLocality:
    @given(rules, rules.map(lambda raw: raw[0]))
    @settings(max_examples=80, deadline=None)
    def test_a_change_moves_only_the_verdicts_of_the_cells_it_overlaps(self, raw, update):
        before = plane(raw, devices=WXYZ)
        after = plane(raw + [update], devices=WXYZ)
        changed = update[1].to_range()
        for pec in pecs_of(installed_prefixes(after)):
            if pec.address_range.overlaps(changed):
                continue
            assert check(LoopFreedom(), after, pec) == check(LoopFreedom(), before, pec)
            assert check(BlackHoleFreedom(), after, pec) == check(BlackHoleFreedom(), before, pec)

    @given(rules)
    @settings(max_examples=80, deadline=None)
    def test_the_loop_verdict_agrees_with_tracing_from_every_device(self, raw):
        data_plane = plane(raw, devices=WXYZ)
        for pec in pecs_of(installed_prefixes(data_plane)):
            address = pec.representative_address()
            traced_loop = any(
                branch.status is PathStatus.LOOP
                for device in data_plane.devices()
                for branch in trace_paths(data_plane, device, address)
            )
            assert (check(LoopFreedom(), data_plane, pec) is not None) is traced_loop
            assert (ForwardingGraph(data_plane, address).has_cycle() is not None) is traced_loop


# --------------------------------------------------------------------------- converged planes
@pytest.fixture(scope="module")
def converged():
    """The converged planes of an OSPF fat tree, with their PECs."""
    from repro.core.network_model import DependencyContext
    from repro.topology.failures import FailureScenario

    network = ospf_everywhere(fat_tree(4))
    plankton = Plankton(network)
    assert plankton.verify(LoopFreedom()).holds
    planes = [
        (pec, outcome.data_plane)
        for pec in plankton.pecs
        for outcome in plankton.run_pec(
            pec, FailureScenario(), [], DependencyContext(), collect_outcomes=True
        )[1]
    ]
    assert planes
    return network, planes


def converged_check(network, policy, pec, data_plane):
    return policy.check(PolicyCheckContext(network=network, pec=pec, data_plane=data_plane))


class TestConvergedPlanes:
    def test_converged_planes_are_loop_and_black_hole_free(self, converged):
        network, planes = converged
        for pec, data_plane in planes:
            assert converged_check(network, LoopFreedom(), pec, data_plane) is None
            assert converged_check(network, BlackHoleFreedom(), pec, data_plane) is None

    def test_one_reversed_edge_makes_a_converged_plane_loop(self, converged):
        network, planes = converged
        pec, original = planes[0]
        data_plane = DataPlane.from_dict(original.to_dict())
        address = pec.representative_address()
        device = next(d for d in data_plane.devices() if data_plane.next_hops(d, address))
        next_hop = data_plane.next_hops(device, address)[0]
        # A static entry at the next hop outranks its OSPF route and points back.
        data_plane.install(next_hop, entry(pec.prefixes[0], device))
        message = converged_check(network, LoopFreedom(), pec, data_plane)
        assert message is not None and device in message and next_hop in message
        assert converged_check(network, LoopFreedom(), pec, original) is None

    def test_a_plane_document_round_trip_keeps_every_lookup(self, converged):
        _network, planes = converged
        for pec, data_plane in planes[:4]:
            revived = DataPlane.from_dict(data_plane.to_dict())
            address = pec.representative_address()
            for device in data_plane.devices():
                assert revived.next_hops(device, address) == data_plane.next_hops(device, address)
                assert revived.delivers_locally(device, address) == data_plane.delivers_locally(
                    device, address
                )
