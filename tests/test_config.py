"""Tests for configuration objects, the DSL parser and the workload builders."""

import pytest

from repro.config import (
    BgpConfig,
    BgpNeighbor,
    ConfigBuilder,
    DeviceConfig,
    NetworkConfig,
    OspfConfig,
    PrefixList,
    RouteMap,
    StaticRoute,
    ebgp_rfc7938,
    ibgp_over_ospf,
    ospf_everywhere,
    parse_config,
    parse_device_config,
)
from repro.config.builder import edge_prefix, install_loop_inducing_statics
from repro.config.objects import MatchConditions, PrefixListEntry, RouteMapClause, SetActions
from repro.exceptions import ConfigError, ConfigParseError
from repro.netaddr import Prefix
from repro.topology import bgp_fat_tree, fat_tree, ring
from tests.helpers import add_entry, linear_chain


class TestStaticRoute:
    def test_requires_next_hop_or_drop(self):
        with pytest.raises(ConfigError):
            StaticRoute(prefix=Prefix("10.0.0.0/8"))

    def test_not_both_next_hops(self):
        with pytest.raises(ConfigError):
            StaticRoute(
                prefix=Prefix("10.0.0.0/8"),
                next_hop_node="r1",
                next_hop_ip=Prefix("10.0.0.1/32"),
            )

    def test_drop_route(self):
        route = StaticRoute(prefix=Prefix("10.0.0.0/8"), drop=True)
        assert route.drop


class TestPrefixList:
    def test_exact_match_by_default(self):
        plist = add_entry(PrefixList("P"), Prefix("10.0.0.0/8"))
        assert plist.permits(Prefix("10.0.0.0/8"))
        assert not plist.permits(Prefix("10.1.0.0/16"))

    def test_ge_le(self):
        plist = PrefixList("P")
        plist.entries.append(PrefixListEntry(Prefix("10.0.0.0/8"), ge=16, le=24))
        assert plist.permits(Prefix("10.1.0.0/16"))
        assert plist.permits(Prefix("10.1.2.0/24"))
        assert not plist.permits(Prefix("10.0.0.0/8"))
        assert not plist.permits(Prefix("10.1.2.0/28"))

    def test_first_match_wins_and_implicit_deny(self):
        plist = PrefixList("P")
        add_entry(plist, Prefix("10.1.0.0/16"), permit=False)
        add_entry(plist, Prefix("10.0.0.0/8"), ge=8, le=32)
        assert not plist.permits(Prefix("10.1.0.0/16"))
        assert plist.permits(Prefix("10.2.0.0/16"))
        assert not plist.permits(Prefix("192.168.0.0/16"))


class TestDeviceAndNetworkConfig:
    def test_route_map_lookup_errors(self):
        device = DeviceConfig(name="r1")
        with pytest.raises(ConfigError):
            device.route_map("missing")

    def test_validate_detects_missing_route_map(self):
        device = DeviceConfig(name="r1")
        device.bgp = BgpConfig(asn=1)
        device.bgp.add_neighbor(BgpNeighbor(peer="r2", remote_asn=2, import_map="NOPE"))
        with pytest.raises(ConfigError):
            device.validate()

    def test_network_validate_detects_one_sided_session(self):
        topo = linear_chain(2)
        network = NetworkConfig(topo)
        network.device("r0").bgp = BgpConfig(asn=1)
        network.device("r0").bgp.add_neighbor(BgpNeighbor(peer="r1", remote_asn=2))
        network.device("r1").bgp = BgpConfig(asn=2)
        with pytest.raises(ConfigError):
            network.validate()

    def test_all_referenced_prefixes_includes_loopbacks(self):
        topo = linear_chain(2)
        topo.node("r0").loopback = Prefix("1.1.1.1/32")
        network = NetworkConfig(topo)
        assert Prefix("1.1.1.1/32") in network.all_referenced_prefixes()

    def test_config_for_unknown_device_rejected(self):
        network = NetworkConfig(linear_chain(2))
        with pytest.raises(ConfigError):
            network.set_device(DeviceConfig(name="ghost"))


class TestParser:
    TEXT = """
    device r0
      ospf
        network 10.0.0.0/24
        redistribute static
        interface r1 cost 5
      bgp 65001
        network 192.168.0.0/16
        neighbor r1 remote-as 65002 import-map FROM_R1
      static 0.0.0.0/0 next-hop r1
      static 172.16.0.0/12 next-hop-ip 10.0.0.9
      prefix-list CUST permit 192.168.0.0/16 le 24
      route-map FROM_R1 permit 10
        match prefix-list CUST
        set local-preference 200
        set prepend 2
      route-map FROM_R1 deny 20

    device r1
      ospf
        network 10.0.1.0/24
      bgp 65002
        neighbor r0 remote-as 65001
    """

    def test_full_parse(self):
        topo = linear_chain(2)
        network = parse_config(topo, self.TEXT)
        r0 = network.device("r0")
        assert r0.ospf is not None and r0.ospf.redistribute_static
        assert r0.ospf.interfaces["r1"].cost == 5
        assert r0.bgp.asn == 65001
        neighbor = r0.bgp.neighbor("r1")
        assert neighbor.import_map == "FROM_R1"
        assert len(r0.static_routes) == 2
        assert r0.static_routes[1].next_hop_ip == Prefix("10.0.0.9/32")
        clauses = r0.route_maps["FROM_R1"].sorted_clauses()
        assert clauses[0].actions.local_preference == 200
        assert clauses[0].actions.prepend_count == 2
        assert not clauses[1].permit

    def test_parse_device_config_standalone(self):
        device = parse_device_config("r9", "ospf\n network 10.0.0.0/24\n")
        assert device.ospf.networks == [Prefix("10.0.0.0/24")]

    def test_unknown_device_rejected(self):
        with pytest.raises(ConfigParseError):
            parse_config(linear_chain(2), "device ghost\n ospf\n")

    def test_unknown_keyword_rejected(self):
        with pytest.raises(ConfigParseError) as excinfo:
            parse_config(linear_chain(2), "device r0\n frobnicate\n")
        assert excinfo.value.line_number == 2

    def test_bad_prefix_reports_line(self):
        with pytest.raises(ConfigParseError):
            parse_config(linear_chain(2), "device r0\n ospf\n network 10.0.0.0/99\n")

    def test_config_before_device_rejected(self):
        with pytest.raises(ConfigParseError):
            parse_config(linear_chain(2), "ospf\n")

    def test_comments_and_blank_lines_ignored(self):
        network = parse_config(linear_chain(2), "# header\n\ndevice r0\n ospf # inline\n  network 10.0.0.0/24\n")
        assert network.device("r0").ospf is not None

    @pytest.mark.parametrize(
        "line, construct",
        [
            ("neighbor r1 remote-as 65002 weight 5", "neighbor ... weight"),
            ("neighbor r1 remote-as 65002 next-hop-self", "neighbor ... next-hop-self"),
            ("redistribute ospf", "bgp redistribute"),
            ("redistribute static", "bgp redistribute"),
            ("route-map RM permit 10\n  set metric 30", "set metric"),
            ("route-map RM permit 10\n  set next-hop-self", "set next-hop-self"),
        ],
    )
    def test_syntax_the_model_never_reads_is_refused(self, tmp_path, capsys, line, construct):
        """A construct no protocol model reads is an input error naming the
        construct and its line — never verified as if it were absent."""
        from repro.cli import main
        from repro.topology.io import format_topology

        text = f"device r0\n bgp 65001\n  {line}\n"
        with pytest.raises(ConfigParseError, match=construct) as excinfo:
            parse_config(linear_chain(2), text)
        assert excinfo.value.line_number == text.count("\n")
        (tmp_path / "net.topo").write_text(format_topology(linear_chain(2)))
        (tmp_path / "net.cfg").write_text(text)
        code = main([
            "verify", "--topology", str(tmp_path / "net.topo"),
            "--config", str(tmp_path / "net.cfg"), "--policy", "loop",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"line {text.count(chr(10))}" in err and construct in err

    def test_bgp_multipath_is_accepted_with_a_warning(self, caplog):
        with caplog.at_level("WARNING", logger="repro.config"):
            network = parse_config(linear_chain(2), "device r0\n bgp 65001\n  multipath\n")
        assert network.device("r0").bgp is not None
        assert any("line 3: bgp multipath is ignored" in r.getMessage() for r in caplog.records)


class TestBuilders:
    def test_ospf_everywhere_originates_edge_prefixes(self):
        topo = fat_tree(4)
        network = ospf_everywhere(topo)
        edges = topo.nodes_by_role("edge")
        originating = [n for n in edges if network.device(n).ospf.networks]
        assert originating == edges
        # Aggregation/core run OSPF but originate nothing.
        assert network.device("core0").ospf is not None
        assert network.device("core0").ospf.networks == []

    def test_install_loop_requires_adjacent_nodes(self):
        network = ospf_everywhere(fat_tree(4))
        with pytest.raises(ConfigError):
            install_loop_inducing_statics(network, edge_prefix(0, 0), ["core0", "core1"])

    def test_install_loop_adds_static_cycle(self):
        network = ospf_everywhere(fat_tree(4))
        install_loop_inducing_statics(
            network, edge_prefix(0, 0), ["agg1_0", "edge1_0", "agg1_1", "edge1_1"]
        )
        assert network.device("agg1_0").static_routes[0].next_hop_node == "edge1_0"

    def test_ebgp_rfc7938_sessions_and_filters(self):
        topo = bgp_fat_tree(4)
        network = ebgp_rfc7938(topo)
        network.validate()
        # Edge-aggregation sessions exist in both directions.
        assert network.device("edge0_0").bgp.neighbor("agg0_0") is not None
        assert network.device("agg0_0").bgp.neighbor("edge0_0") is not None
        # Edges export only their own prefix.
        assert network.device("edge0_0").bgp.neighbor("agg0_0").export_map == "EXPORT_OWN"

    def test_ebgp_requires_asn_attributes(self):
        with pytest.raises(ConfigError):
            ebgp_rfc7938(fat_tree(4))

    def test_ibgp_over_ospf_full_mesh(self):
        topo = ring(5)
        network = ibgp_over_ospf(topo, {"r0": Prefix("200.0.0.0/16")})
        network.validate()
        speakers = [name for name, device in network.devices.items() if device.bgp is not None]
        assert set(speakers) == set(topo.nodes)
        assert len(network.device("r0").bgp.neighbors) == 4
        assert topo.node("r1").loopback is not None

    def test_ibgp_over_ospf_route_reflectors(self):
        topo = ring(6)
        network = ibgp_over_ospf(
            topo, {"r0": Prefix("200.0.0.0/16")}, route_reflectors=["r0", "r3"]
        )
        # Clients peer only with the reflectors.
        assert len(network.device("r1").bgp.neighbors) == 2
        # The reflector marks the client sessions.
        assert network.device("r0").bgp.neighbor("r1").route_reflector_client

    def test_ibgp_rejects_prefix_on_non_speaker(self):
        topo = ring(4)
        with pytest.raises(ConfigError):
            ibgp_over_ospf(topo, {"r0": Prefix("200.0.0.0/16")}, speakers=["r1", "r2"])

    def test_builder_bgp_session_requires_bgp(self):
        builder = ConfigBuilder(linear_chain(2))
        with pytest.raises(ConfigError):
            builder.bgp_session("r0", "r1")
