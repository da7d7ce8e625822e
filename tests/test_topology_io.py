"""Tests for topology serialisation (text and JSON formats)."""

import json

import pytest

from repro.exceptions import TopologyError
from repro.netaddr import Prefix
from repro.topology import (
    Topology,
    fat_tree,
    format_topology,
    load_topology,
    parse_topology,
    ring,
    topology_from_dict,
)


SAMPLE_TEXT = """
# A small campus core.
topology campus
node core0 role core loopback 10.255.0.1/32
node core1 role core loopback 10.255.0.2
node dist0 role distribution asn 65010
node dist1 role distribution
link core0 core1 weight 1
link core0 dist0 weight 5 weight-back 10
link core1 dist1 weight 5
link dist0 dist1 weight 20
"""

#: SAMPLE_TEXT's JSON form, as a push to ``repro serve`` carries it.
SAMPLE_DOCUMENT = {
    "name": "campus",
    "nodes": [
        {"name": "core0", "role": "core", "loopback": "10.255.0.1/32"},
        {"name": "core1", "role": "core", "loopback": "10.255.0.2/32"},
        {"name": "dist0", "role": "distribution", "attributes": {"asn": 65010}},
        {"name": "dist1", "role": "distribution"},
    ],
    "links": [
        {"a": "core0", "b": "core1", "weight": 1},
        {"a": "core0", "b": "dist0", "weight": 5, "weight_back": 10},
        {"a": "core1", "b": "dist1", "weight": 5},
        {"a": "dist0", "b": "dist1", "weight": 20},
    ],
}


class TestParseTopology:
    def test_parses_nodes_and_roles(self):
        topo = parse_topology(SAMPLE_TEXT)
        assert topo.name == "campus"
        assert set(topo.nodes) == {"core0", "core1", "dist0", "dist1"}
        assert topo.node("core0").role == "core"
        assert topo.node("dist0").role == "distribution"

    def test_parses_loopbacks_with_and_without_length(self):
        topo = parse_topology(SAMPLE_TEXT)
        assert topo.node("core0").loopback == Prefix("10.255.0.1/32")
        assert topo.node("core1").loopback == Prefix("10.255.0.2/32")
        assert topo.node("dist0").loopback is None

    def test_parses_integer_attributes(self):
        topo = parse_topology(SAMPLE_TEXT)
        assert topo.node("dist0").attributes["asn"] == 65010

    def test_parses_links_and_asymmetric_weights(self):
        topo = parse_topology(SAMPLE_TEXT)
        assert len(topo.links) == 4
        link = topo.find_link("core0", "dist0")
        assert link.weight_from("core0") == 5
        assert link.weight_from("dist0") == 10

    def test_comments_and_blank_lines_ignored(self):
        topo = parse_topology("# only a comment\n\ntopology empty\n")
        assert topo.name == "empty"
        assert len(topo) == 0

    def test_unknown_keyword_is_rejected_with_line_number(self):
        with pytest.raises(TopologyError, match="line 2"):
            parse_topology("topology x\nbogus a b\n")

    def test_link_to_unknown_node_is_rejected(self):
        with pytest.raises(TopologyError):
            parse_topology("topology x\nnode a\nlink a b weight 1\n")

    def test_duplicate_node_is_rejected(self):
        with pytest.raises(TopologyError):
            parse_topology("topology x\nnode a\nnode a\n")

    def test_bad_weight_is_rejected(self):
        with pytest.raises(TopologyError, match="integer"):
            parse_topology("topology x\nnode a\nnode b\nlink a b weight soft\n")

    def test_node_option_without_value_is_rejected(self):
        with pytest.raises(TopologyError):
            parse_topology("topology x\nnode a role\n")


class TestRoundTrips:
    def test_text_round_trip_preserves_structure(self):
        original = parse_topology(SAMPLE_TEXT)
        rebuilt = parse_topology(format_topology(original))
        assert rebuilt.nodes == original.nodes
        assert len(rebuilt.links) == len(original.links)
        for name in original.nodes:
            assert rebuilt.node(name).role == original.node(name).role
            assert rebuilt.node(name).loopback == original.node(name).loopback
        for before, after in zip(original.links, rebuilt.links):
            assert {before.a, before.b} == {after.a, after.b}
            assert before.weight_ab == after.weight_ab
            assert before.weight_ba == after.weight_ba

    def test_dict_form_builds_the_topology(self):
        original = parse_topology(SAMPLE_TEXT)
        rebuilt = topology_from_dict(SAMPLE_DOCUMENT)
        assert rebuilt.nodes == original.nodes
        assert len(rebuilt.links) == len(original.links)
        assert rebuilt.node("dist0").attributes["asn"] == 65010
        assert rebuilt.node("core0").loopback == original.node("core0").loopback
        for before, after in zip(original.links, rebuilt.links):
            assert (before.a, before.b, before.weight_ab, before.weight_ba) == (
                after.a, after.b, after.weight_ab, after.weight_ba)

    def test_generated_topologies_round_trip(self):
        for topo in (fat_tree(4), ring(6)):
            rebuilt = parse_topology(format_topology(topo))
            assert rebuilt.nodes == topo.nodes
            assert len(rebuilt.links) == len(topo.links)


class TestFiles:
    def test_load_text_file(self, tmp_path):
        path = tmp_path / "net.topo"
        path.write_text(format_topology(parse_topology(SAMPLE_TEXT)))
        loaded = load_topology(path)
        assert loaded.name == "campus"
        assert len(loaded.links) == 4

    def test_load_json_file(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(SAMPLE_DOCUMENT))
        loaded = load_topology(path)
        assert loaded.name == "campus"
        assert loaded.node("core0").loopback == Prefix("10.255.0.1/32")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_topology(tmp_path / "does-not-exist.topo")

    def test_malformed_dict_entries_rejected(self):
        with pytest.raises(TopologyError):
            topology_from_dict({"name": "x", "nodes": [{"role": "core"}], "links": []})
        with pytest.raises(TopologyError):
            topology_from_dict({"name": "x", "nodes": [{"name": "a"}], "links": [{"a": "a"}]})
