"""Tests for the Segmentation (isolation) policy."""

import pytest

from repro import Plankton, PlanktonOptions
from repro.cli import EXIT_HOLDS, EXIT_VIOLATION, main as cli_main
from repro.config import ospf_everywhere
from repro.config.builder import edge_prefix
from repro.exceptions import PolicyError
from repro.netaddr import Prefix
from repro.policies import Segmentation
from repro.topology import fat_tree
from tests.helpers import add_static_route, linear_chain


class TestConstruction:
    def test_requires_sources_and_protected(self):
        with pytest.raises(PolicyError):
            Segmentation(sources=[], protected=["a"])
        with pytest.raises(PolicyError):
            Segmentation(sources=["a"], protected=[])

    def test_rejects_overlapping_source_and_protected_sets(self):
        with pytest.raises(PolicyError):
            Segmentation(sources=["a", "b"], protected=["b", "c"])

    def test_declares_policy_api_hints(self):
        policy = Segmentation(sources=["a"], protected=["b"])
        pec = None  # hints are independent of the PEC for this policy

        class _FakePec:
            is_empty = False

        assert policy.source_nodes(_FakePec()) == ["a"]
        assert policy.interesting_nodes(_FakePec()) == ["b"]


class TestVerdicts:
    def _chain_network(self):
        # r0 -- r1 -- r2; r0 originates the prefix, so r2's traffic transits r1.
        return ospf_everywhere(
            linear_chain(3),
            prefix_for={"r0": Prefix("10.50.0.0/24")},
        )

    def test_transit_through_protected_device_is_a_violation(self):
        network = self._chain_network()
        policy = Segmentation(sources=["r2"], protected=["r1"])
        result = Plankton(network).verify(policy)
        assert not result.holds
        assert "r1" in result.first_violation().message

    def test_delivery_at_protected_device_is_always_a_violation(self):
        network = self._chain_network()
        policy = Segmentation(sources=["r2"], protected=["r0"])
        result = Plankton(network).verify(policy)
        assert not result.holds

    def test_isolated_pod_holds_in_fat_tree(self):
        # Traffic from pod-3 edge switches towards pod-0's prefix never passes
        # through pod-1's edge switches.
        network = ospf_everywhere(fat_tree(4))
        policy = Segmentation(
            sources=["edge3_0", "edge3_1"],
            protected=["edge1_0", "edge1_1"],
            destination_prefix=edge_prefix(0, 0),
        )
        assert Plankton(network).verify(policy).holds

    def test_static_detour_through_protected_device_is_caught(self):
        network = ospf_everywhere(fat_tree(4))
        prefix = edge_prefix(0, 0)
        # Force aggregation switch agg3_0 to detour through edge3_1 (a
        # protected rack) on its way to pod 0.
        add_static_route(network, "agg3_0", prefix, next_hop_node="edge3_1")
        add_static_route(network, "edge3_1", prefix, next_hop_node="agg3_1")
        policy = Segmentation(
            sources=["edge3_0"], protected=["edge3_1"], destination_prefix=prefix
        )
        result = Plankton(network).verify(policy)
        assert not result.holds
        assert "edge3_1" in result.first_violation().message

    def test_destination_prefix_limits_applicability(self):
        network = ospf_everywhere(fat_tree(4))
        policy = Segmentation(
            sources=["edge3_0"],
            protected=["edge1_0"],
            destination_prefix=Prefix("172.31.0.0/16"),
        )
        result = Plankton(network).verify(policy)
        assert result.holds
        assert result.pecs_analyzed == 0

    def test_holds_under_single_failures_with_redundancy(self):
        network = ospf_everywhere(fat_tree(4))
        policy = Segmentation(
            sources=["edge3_0"], protected=["edge1_0"], destination_prefix=edge_prefix(0, 0)
        )
        result = Plankton(network, PlanktonOptions(max_failures=1)).verify(policy)
        assert result.holds
        assert result.failure_scenarios > 1


class TestCliIntegration:
    TOPOLOGY = """
topology chain
node r0
node r1
node r2
link r0 r1 weight 1
link r1 r2 weight 1
"""
    CONFIG = """
device r0
  ospf
    network 10.50.0.0/24
device r1
  ospf
device r2
  ospf
"""

    def test_segmentation_via_cli(self, tmp_path, capsys):
        (tmp_path / "net.topo").write_text(self.TOPOLOGY)
        (tmp_path / "net.cfg").write_text(self.CONFIG)
        code = cli_main(
            [
                "verify",
                "--topology", str(tmp_path / "net.topo"),
                "--config", str(tmp_path / "net.cfg"),
                "--policy", "segmentation",
                "--sources", "r2",
                "--protected", "r1",
            ]
        )
        assert code == EXIT_VIOLATION
        assert "VIOLATED" in capsys.readouterr().out

    def test_segmentation_holds_via_cli(self, tmp_path, capsys):
        (tmp_path / "net.topo").write_text(self.TOPOLOGY)
        (tmp_path / "net.cfg").write_text(self.CONFIG)
        code = cli_main(
            [
                "verify",
                "--topology", str(tmp_path / "net.topo"),
                "--config", str(tmp_path / "net.cfg"),
                "--policy", "segmentation",
                "--sources", "r1",
                "--protected", "r2",
            ]
        )
        assert code == EXIT_HOLDS
