"""Tests for the protocol substrate: OSPF, BGP filters/ranking, static routes."""

import pytest

from repro.config import ConfigBuilder, NetworkConfig, ospf_everywhere
from repro.config.objects import (
    BgpNeighbor,
    MatchConditions,
    OspfInterface,
    PrefixList,
    RouteMap,
    RouteMapClause,
    SetActions,
    StaticRoute,
)
from repro.exceptions import ProtocolError
from repro.netaddr import Prefix
from repro.protocols import (
    EPSILON,
    BgpInstance,
    OspfComputation,
    Path,
    Route,
    RouteSource,
    OspfInstance,
    resolve_static_routes,
)
from repro.protocols.filters import apply_route_map, maximum_local_pref
from repro.topology import fat_tree, ring
from tests.helpers import add_entry, add_static_route, linear_chain


class TestPath:
    def test_head_and_rest(self):
        path = Path(("b", "c", "d"))
        assert path.head == "b"
        assert path.rest == Path(("c", "d"))

    def test_epsilon(self):
        assert EPSILON.head is None

    def test_prepend_and_contains(self):
        path = Path(("b",)).prepend("a")
        assert path == Path(("a", "b"))
        assert path.contains("a") and not path.contains("z")


class TestOspfComputation:
    def test_chain_distances_and_next_hops(self):
        topo = linear_chain(4, link_weight=2)
        network = ospf_everywhere(topo, originate_roles=("router",), prefix_for={"r0": Prefix("10.0.0.0/24")})
        computation = OspfComputation(network)
        table = computation.compute(["r0"])
        assert table.distances["r3"] == 6
        assert table.next_hops["r3"] == ("r2",)
        assert table.next_hops["r0"] == ()

    def test_ecmp_next_hops(self):
        topo = fat_tree(4)
        network = ospf_everywhere(topo)
        computation = OspfComputation(network)
        table = computation.compute(["edge0_0"])
        # The far-pod edge has two equal-cost aggregation uplinks.
        assert len(table.next_hops["edge3_1"]) == 2

    def test_failure_changes_route(self):
        topo = ring(4)
        network = ospf_everywhere(topo, originate_roles=("router",), prefix_for={"r0": Prefix("10.0.0.0/24")})
        computation = OspfComputation(network)
        direct = topo.find_link("r0", "r1")
        table = computation.compute(["r0"], failed_links={direct.link_id})
        assert table.next_hops["r1"] == ("r2",)
        assert table.distances["r1"] == 3

    def test_cache_reused(self):
        network = ospf_everywhere(ring(4), originate_roles=("router",), prefix_for={"r0": Prefix("10.0.0.0/24")})
        computation = OspfComputation(network)
        first = computation.compute(["r0"])
        second = computation.compute(["r0"])
        assert first is second
        computation.clear_cache()
        assert computation.compute(["r0"]) is not first

        # clear_cache drops everything derived from the configs: after an
        # interface-cost change neither the SPF tables nor the edge costs
        # handed to the next OSPF instance may be the old ones.
        before = OspfInstance(network, Prefix("10.0.0.0/24"), computation=computation)
        route = before.advertisement("r1", "r0", before.origin_route("r0"))
        assert route.igp_cost == 1
        assert computation.compute(["r0"]).distances["r1"] == 1
        network.device("r1").ospf.interfaces["r0"] = OspfInterface(neighbor="r0", cost=7)
        computation.clear_cache()
        after = OspfInstance(network, Prefix("10.0.0.0/24"), computation=computation)
        assert after.advertisement("r1", "r0", after.origin_route("r0")).igp_cost == 7
        # r1 now reaches r0 the long way round the ring (3 hops of cost 1).
        assert computation.compute(["r0"]).distances["r1"] == 3
        assert computation.compute(["r0"]).next_hops["r1"] == ("r2",)

    def test_passive_interface_blocks_adjacency(self):
        topo = linear_chain(3)
        builder = ConfigBuilder(topo)
        for name in topo.nodes:
            builder.enable_ospf(name)
        builder.device("r0").ospf.networks.append(Prefix("10.0.0.0/24"))
        from repro.config.objects import OspfInterface

        builder.device("r1").ospf.interfaces["r2"] = OspfInterface(neighbor="r2", passive=True)
        network = builder.build()
        table = OspfComputation(network).compute(["r0"])
        assert "r2" not in table.distances or table.distances.get("r2") == float("inf")

    def test_igp_cost_between(self):
        network = ospf_everywhere(linear_chain(3, link_weight=4), originate_roles=())
        computation = OspfComputation(network)
        assert computation.igp_cost_between("r0", "r2") == 8


class TestStaticResolution:
    def _network(self):
        topo = linear_chain(3)
        network = NetworkConfig(topo)
        return topo, network

    def test_direct_next_hop(self):
        topo, network = self._network()
        network.device("r0").static_routes.append(
            StaticRoute(prefix=Prefix("10.0.0.0/8"), next_hop_node="r1")
        )
        resolution = resolve_static_routes(network, "r0", Prefix("10.0.0.0/8"))
        assert resolution.next_hop_nodes == ("r1",)

    def test_next_hop_withdrawn_when_link_fails(self):
        topo, network = self._network()
        network.device("r0").static_routes.append(
            StaticRoute(prefix=Prefix("10.0.0.0/8"), next_hop_node="r1")
        )
        link = topo.find_link("r0", "r1")
        assert resolve_static_routes(network, "r0", Prefix("10.0.0.0/8"), {link.link_id}) is None

    def test_most_specific_route_wins(self):
        topo, network = self._network()
        network.device("r0").static_routes.append(
            StaticRoute(prefix=Prefix("10.0.0.0/8"), next_hop_node="r1")
        )
        network.device("r0").static_routes.append(
            StaticRoute(prefix=Prefix("10.1.0.0/16"), drop=True)
        )
        resolution = resolve_static_routes(network, "r0", Prefix("10.1.0.0/16"))
        assert resolution.drop

    def test_recursive_next_hop_reported(self):
        topo, network = self._network()
        network.device("r0").static_routes.append(
            StaticRoute(prefix=Prefix("10.0.0.0/8"), next_hop_ip=Prefix("192.168.0.1/32"))
        )
        resolution = resolve_static_routes(network, "r0", Prefix("10.0.0.0/8"))
        assert resolution.unresolved_ips == (Prefix("192.168.0.1/32"),)

    def test_no_matching_route(self):
        _topo, network = self._network()
        assert resolve_static_routes(network, "r0", Prefix("10.0.0.0/8")) is None


class TestRouteMaps:
    def _device_with_map(self):
        from repro.config.objects import DeviceConfig

        device = DeviceConfig(name="r0")
        device.prefix_lists["CUST"] = add_entry(PrefixList("CUST"), Prefix("10.0.0.0/8"), ge=8, le=24)
        device.route_maps["POLICY"] = RouteMap(
            name="POLICY",
            clauses=[
                RouteMapClause(
                    sequence=10,
                    permit=True,
                    match=MatchConditions(prefix_list="CUST"),
                    actions=SetActions(local_preference=300, add_communities=["65000:1"]),
                ),
                RouteMapClause(sequence=20, permit=False),
            ],
        )
        return device

    def test_permit_with_actions(self):
        device = self._device_with_map()
        route = Route(path=Path(("x",)), local_pref=100)
        result = apply_route_map(device, "POLICY", Prefix("10.1.0.0/16"), route)
        assert result.permitted
        assert result.route.local_pref == 300
        assert "65000:1" in result.route.communities

    def test_falls_through_to_deny(self):
        device = self._device_with_map()
        route = Route(path=Path(("x",)))
        result = apply_route_map(device, "POLICY", Prefix("192.168.0.0/16"), route)
        assert not result.permitted

    def test_missing_map_permits_unchanged(self):
        device = self._device_with_map()
        route = Route(path=Path(("x",)), local_pref=77)
        result = apply_route_map(device, None, Prefix("10.0.0.0/8"), route)
        assert result.permitted and result.route.local_pref == 77

    def test_maximum_local_pref(self):
        device = self._device_with_map()
        assert maximum_local_pref(device, 100) == 300


class TestBgpInstance:
    def _two_as_network(self):
        topo = linear_chain(3)
        builder = ConfigBuilder(topo)
        builder.enable_bgp("r0", 65000, [Prefix("200.0.0.0/16")])
        builder.enable_bgp("r1", 65001)
        builder.enable_bgp("r2", 65002)
        builder.bgp_session("r0", "r1")
        builder.bgp_session("r1", "r2")
        return builder.build()

    def test_origins_and_peers(self):
        network = self._two_as_network()
        instance = BgpInstance(network, Prefix("200.0.0.0/16"))
        assert instance.origins() == ["r0"]
        assert instance.peers("r1") == ("r0", "r2")

    def test_export_prepends_and_counts_as_hops(self):
        network = self._two_as_network()
        instance = BgpInstance(network, Prefix("200.0.0.0/16"))
        origin = instance.origin_route("r0")
        exported = instance.export("r0", "r1", origin)
        assert exported.path == Path(("r0",))
        assert exported.as_path_length == 1

    def test_import_rejects_loops(self):
        network = self._two_as_network()
        instance = BgpInstance(network, Prefix("200.0.0.0/16"))
        looping = Route(path=Path(("r0", "r1")), as_path_length=2)
        assert instance.advertisement("r1", "r0", looping.with_path(Path(("r1",)))) is None

    def test_ebgp_session_down_when_link_fails(self):
        network = self._two_as_network()
        link = network.topology.find_link("r0", "r1")
        instance = BgpInstance(network, Prefix("200.0.0.0/16"), failed_links={link.link_id})
        assert "r0" not in instance.peers("r1")

    def test_ranking_prefers_local_pref_then_as_path(self):
        network = self._two_as_network()
        instance = BgpInstance(network, Prefix("200.0.0.0/16"))
        strong = Route(path=Path(("a",)), local_pref=200, as_path_length=5)
        weak = Route(path=Path(("b",)), local_pref=100, as_path_length=1)
        assert instance.rank("r1", strong) < instance.rank("r1", weak)
        short = Route(path=Path(("a",)), local_pref=100, as_path_length=1)
        long = Route(path=Path(("b",)), local_pref=100, as_path_length=3)
        assert instance.rank("r1", short) < instance.rank("r1", long)

    def test_ranking_prefers_ebgp_over_ibgp_and_low_igp(self):
        network = self._two_as_network()
        instance = BgpInstance(network, Prefix("200.0.0.0/16"))
        ebgp = Route(path=Path(("a",)), source=RouteSource.EBGP, as_path_length=2)
        ibgp = Route(path=Path(("b",)), source=RouteSource.IBGP, as_path_length=2)
        assert instance.rank("r1", ebgp) < instance.rank("r1", ibgp)
        near = Route(path=Path(("a",)), source=RouteSource.IBGP, as_path_length=2, igp_cost=1)
        far = Route(path=Path(("b",)), source=RouteSource.IBGP, as_path_length=2, igp_cost=9)
        assert instance.rank("r1", near) < instance.rank("r1", far)

    def test_ibgp_loop_prevention_in_export(self):
        topo = linear_chain(3)
        builder = ConfigBuilder(topo)
        for name in topo.nodes:
            builder.enable_bgp(name, 65000)
        builder.device("r0").bgp.networks.append(Prefix("200.0.0.0/16"))
        builder.bgp_session("r0", "r1")
        builder.bgp_session("r1", "r2")
        network = builder.build()
        instance = BgpInstance(network, Prefix("200.0.0.0/16"))
        ibgp_learned = Route(path=Path(("r0",)), source=RouteSource.IBGP, as_path_length=0)
        # r1 must not re-advertise an iBGP-learned route to another iBGP peer.
        assert instance.export("r1", "r2", ibgp_learned) is None


class TestOspfInstanceModel:
    def test_origin_and_rank(self):
        network = ospf_everywhere(linear_chain(3), originate_roles=("router",), prefix_for={"r0": Prefix("10.0.0.0/24")})
        instance = OspfInstance(network, Prefix("10.0.0.0/24"))
        assert instance.origins() == ["r0"]
        cheap = Route(path=Path(("a",)), source=RouteSource.OSPF, igp_cost=1)
        costly = Route(path=Path(("b",)), source=RouteSource.OSPF, igp_cost=9)
        assert instance.rank("r1", cheap) < instance.rank("r1", costly)

    def test_a_covering_prefix_does_not_make_an_origin(self):
        # r0 advertises 10.0.0.0/8, r2 the more specific 10.1.0.0/16: each is
        # the one origin of its own prefix (longest-prefix match picks r2's
        # route wherever both are known).
        network = ospf_everywhere(
            linear_chain(3),
            originate_roles=(),
            prefix_for={"r0": Prefix("10.0.0.0/8"), "r2": Prefix("10.1.0.0/16")},
        )
        assert OspfInstance(network, Prefix("10.1.0.0/16")).origins() == ["r2"]
        assert OspfInstance(network, Prefix("10.0.0.0/8")).origins() == ["r0"]

    def test_redistributed_statics_originate_only_their_own_prefix(self):
        network = ospf_everywhere(linear_chain(3), originate_roles=())
        network.device("r1").ospf.redistribute_static = True
        add_static_route(network, "r1", Prefix("10.0.0.0/8"), drop=True)
        add_static_route(network, "r1", Prefix("10.9.0.0/16"), drop=True)
        assert OspfInstance(network, Prefix("10.9.0.0/16")).origins() == ["r1"]
        assert OspfInstance(network, Prefix("10.0.0.0/8")).origins() == ["r1"]
        assert OspfInstance(network, Prefix("10.5.0.0/16")).origins() == []

    def test_only_an_origin_injects_a_route(self):
        network = ospf_everywhere(linear_chain(3), originate_roles=("router",), prefix_for={"r0": Prefix("10.0.0.0/24")})
        instance = OspfInstance(network, Prefix("10.0.0.0/24"))
        assert instance.origin_route("r0").igp_cost == 0
        with pytest.raises(ProtocolError):
            instance.origin_route("r1")

    def test_import_accumulates_cost(self):
        network = ospf_everywhere(linear_chain(3, link_weight=7), originate_roles=("router",), prefix_for={"r0": Prefix("10.0.0.0/24")})
        instance = OspfInstance(network, Prefix("10.0.0.0/24"))
        origin = instance.origin_route("r0")
        advertisement = instance.advertisement("r1", "r0", origin)
        assert advertisement.igp_cost == 7
