"""Unit tests for the policy implementations against hand-built data planes."""

import pytest

from repro.config import NetworkConfig
from repro.dataplane import DataPlane, FibEntry
from repro.exceptions import PolicyError
from repro.netaddr import Prefix
from repro.pec.classes import PacketEquivalenceClass
from repro.policies import (
    BlackHoleFreedom,
    BoundedPathLength,
    LoopFreedom,
    MultipathConsistency,
    PathConsistency,
    Reachability,
    Waypoint,
)
from repro.policies.base import PolicyCheckContext
from repro.protocols.base import Path, Route, RouteSource
from tests.helpers import linear_chain

PREFIX = Prefix("10.0.0.0/24")


def make_pec(prefix=PREFIX, index=0):
    return PacketEquivalenceClass(
        index=index,
        address_range=prefix.to_range(),
        prefixes=(prefix,),
        ospf_origins=((prefix, ("d",)),),
        bgp_origins=((prefix, ()),),
        static_devices=((prefix, ()),),
    )


def make_context(data_plane, pec=None, control_plane=None):
    topology = linear_chain(2)
    return PolicyCheckContext(
        network=NetworkConfig(topology),
        pec=pec or make_pec(),
        data_plane=data_plane,
        control_plane=control_plane or {},
    )


def chain_data_plane(deliver=True):
    data_plane = DataPlane(["a", "b", "c", "d"], pec_range=PREFIX.to_range())
    data_plane.install("a", FibEntry(prefix=PREFIX, next_hops=("b",)))
    data_plane.install("b", FibEntry(prefix=PREFIX, next_hops=("c",)))
    data_plane.install("c", FibEntry(prefix=PREFIX, next_hops=("d",)))
    if deliver:
        data_plane.install("d", FibEntry(prefix=PREFIX, delivers_locally=True, source=RouteSource.CONNECTED))
    return data_plane


class TestReachability:
    def test_holds_on_delivering_chain(self):
        policy = Reachability(sources=["a"])
        assert policy.check(make_context(chain_data_plane())) is None

    def test_violated_on_blackhole(self):
        policy = Reachability(sources=["a"])
        message = policy.check(make_context(chain_data_plane(deliver=False)))
        assert message is not None and "a" in message

    def test_all_sources_by_default(self):
        policy = Reachability()
        data_plane = chain_data_plane()
        # 'd' delivers locally, the rest forward: holds for every device.
        assert policy.check(make_context(data_plane)) is None

    def test_unknown_source_raises(self):
        policy = Reachability(sources=["ghost"])
        with pytest.raises(PolicyError):
            policy.check(make_context(chain_data_plane()))

    def test_applies_to_respects_destination_prefix(self):
        policy = Reachability(sources=["a"], destination_prefix=Prefix("192.168.0.0/16"))
        assert not policy.applies_to(make_pec())

    def test_empty_sources_rejected(self):
        with pytest.raises(PolicyError):
            Reachability(sources=[])


class TestWaypoint:
    def test_holds_when_path_crosses_waypoint(self):
        policy = Waypoint(sources=["a"], waypoints=["c"])
        assert policy.check(make_context(chain_data_plane())) is None

    def test_violated_when_bypassed(self):
        data_plane = chain_data_plane()
        # Shortcut a -> d directly, bypassing c.
        data_plane.fibs["a"] = type(data_plane.fib("a"))("a")
        data_plane.install("a", FibEntry(prefix=PREFIX, next_hops=("d",)))
        policy = Waypoint(sources=["a"], waypoints=["c"])
        assert policy.check(make_context(data_plane)) is not None

    def test_source_that_is_waypoint_ignored(self):
        policy = Waypoint(sources=["c"], waypoints=["c"])
        assert policy.check(make_context(chain_data_plane())) is None

    def test_interesting_nodes_declared(self):
        policy = Waypoint(sources=["a"], waypoints=["c"])
        assert policy.interesting_nodes(make_pec()) == ["c"]

    def test_requires_sources_and_waypoints(self):
        with pytest.raises(PolicyError):
            Waypoint(sources=[], waypoints=["c"])
        with pytest.raises(PolicyError):
            Waypoint(sources=["a"], waypoints=[])


class TestLoopFreedom:
    def test_holds_on_chain(self):
        assert LoopFreedom().check(make_context(chain_data_plane())) is None

    def test_detects_cycle(self):
        data_plane = DataPlane(["a", "b"], pec_range=PREFIX.to_range())
        data_plane.install("a", FibEntry(prefix=PREFIX, next_hops=("b",)))
        data_plane.install("b", FibEntry(prefix=PREFIX, next_hops=("a",)))
        message = LoopFreedom().check(make_context(data_plane))
        assert message is not None and "loop" in message.lower()

    def test_declares_no_sources(self):
        assert LoopFreedom().source_nodes(make_pec()) is None


class TestBlackHoleFreedom:
    def test_detects_hole(self):
        message = BlackHoleFreedom().check(make_context(chain_data_plane(deliver=False)))
        assert message is not None

    def test_holds_with_explicit_drop(self):
        data_plane = chain_data_plane(deliver=False)
        data_plane.install("d", FibEntry(prefix=PREFIX, drop=True, source=RouteSource.STATIC))
        assert BlackHoleFreedom().check(make_context(data_plane)) is None

    def test_scoped_to_reachable_holes(self):
        data_plane = chain_data_plane()
        # 'x' is a hole but unreachable from a.
        data_plane.fibs["x"] = type(data_plane.fib("a"))("x")
        policy = BlackHoleFreedom(sources=["a"])
        assert policy.check(make_context(data_plane)) is None


class TestBoundedPathLength:
    def test_holds_within_bound(self):
        assert BoundedPathLength(max_hops=3, sources=["a"]).check(make_context(chain_data_plane())) is None

    def test_violated_beyond_bound(self):
        message = BoundedPathLength(max_hops=2, sources=["a"]).check(make_context(chain_data_plane()))
        assert message is not None

    def test_negative_bound_rejected(self):
        with pytest.raises(PolicyError):
            BoundedPathLength(max_hops=-1)


class TestConsistencyPolicies:
    def test_multipath_consistency_violated(self):
        data_plane = DataPlane(["a", "b", "c", "d"], pec_range=PREFIX.to_range())
        data_plane.install("a", FibEntry(prefix=PREFIX, next_hops=("b", "c")))
        data_plane.install("b", FibEntry(prefix=PREFIX, next_hops=("d",)))
        # Branch via c black-holes; branch via b delivers.
        data_plane.install("d", FibEntry(prefix=PREFIX, delivers_locally=True))
        assert MultipathConsistency().check(make_context(data_plane)) is not None

    def test_multipath_consistency_holds(self):
        data_plane = DataPlane(["a", "b", "c", "d"], pec_range=PREFIX.to_range())
        data_plane.install("a", FibEntry(prefix=PREFIX, next_hops=("b", "c")))
        data_plane.install("b", FibEntry(prefix=PREFIX, next_hops=("d",)))
        data_plane.install("c", FibEntry(prefix=PREFIX, next_hops=("d",)))
        data_plane.install("d", FibEntry(prefix=PREFIX, delivers_locally=True))
        assert MultipathConsistency().check(make_context(data_plane)) is None

    def test_path_consistency_requires_two_devices(self):
        with pytest.raises(PolicyError):
            PathConsistency(sources=["a"])

    def test_path_consistency_detects_divergence(self):
        data_plane = DataPlane(["a", "b", "c", "d"], pec_range=PREFIX.to_range())
        data_plane.install("a", FibEntry(prefix=PREFIX, next_hops=("c",)))
        data_plane.install("b", FibEntry(prefix=PREFIX, next_hops=("d",)))
        data_plane.install("c", FibEntry(prefix=PREFIX, delivers_locally=True))
        data_plane.install("d", FibEntry(prefix=PREFIX, delivers_locally=True))
        assert PathConsistency(sources=["a", "b"]).check(make_context(data_plane)) is not None

    def test_path_consistency_compares_control_plane(self):
        data_plane = DataPlane(["a", "b", "c"], pec_range=PREFIX.to_range())
        data_plane.install("a", FibEntry(prefix=PREFIX, next_hops=("c",)))
        data_plane.install("b", FibEntry(prefix=PREFIX, next_hops=("c",)))
        data_plane.install("c", FibEntry(prefix=PREFIX, delivers_locally=True))
        control = {
            "a": Route(path=Path(("c",)), local_pref=100),
            "b": Route(path=Path(("c",)), local_pref=200),
        }
        policy = PathConsistency(sources=["a", "b"])
        assert policy.check(make_context(data_plane, control_plane=control)) is not None


class TestStateSignature:
    def test_signature_none_without_sources(self):
        context = make_context(chain_data_plane())
        assert LoopFreedom().state_signature(context) is None

    def test_signature_tracks_interesting_positions(self):
        policy = Waypoint(sources=["a"], waypoints=["c"])
        context = make_context(chain_data_plane())
        signature = policy.state_signature(context)
        assert signature is not None
        # The waypoint c appears at position 2 on the path a -> b -> c -> d.
        assert any(("c" in str(part)) for part in signature)

    def test_equivalent_data_planes_share_signature(self):
        policy = Reachability(sources=["a"])
        first = policy.state_signature(make_context(chain_data_plane()))
        second = policy.state_signature(make_context(chain_data_plane()))
        assert first == second
