"""Figure 7(h) — real-world configurations, multiple policies, with/without failures.

Paper: 10 real configurations (networks I-IX plus the Stanford dataset, 2-71
devices), checked for reachability, waypointing and bounded path length, with
and without single link failures; all finish in milliseconds to seconds, and
the only non-determinism encountered is the choice of failed links.

Reproduction: synthetic enterprise networks of the published sizes with
recursive routing (iBGP over the IGP on the cores), exercised with the same
three policies, with and without one link failure.
"""

import pytest

from repro import Plankton, PlanktonOptions
from repro.config import ibgp_over_ospf
from repro.netaddr import Prefix
from repro.policies import BoundedPathLength, Reachability, Waypoint
from repro.topology import enterprise_like

#: (network id, device count) following the paper's Figure 7(h) labels.
NETWORKS = [("II", 20), ("III", 24), ("IV", 20), ("VII", 16), ("stanford", 26)]
EXTERNAL = Prefix("203.0.113.0/24")


def _network(network_id, devices):
    topology = enterprise_like(network_id, devices=devices, seed=13)
    egress = topology.nodes_by_role("core")[0]
    reflectors = topology.nodes_by_role("core")[:2]
    return ibgp_over_ospf(topology, {egress: EXTERNAL}, route_reflectors=reflectors), topology


def _policies(topology):
    access = topology.nodes_by_role("access") or topology.nodes_by_role("distribution")
    cores = topology.nodes_by_role("core")
    return {
        "reachability": Reachability(
            sources=access[:2], destination_prefix=EXTERNAL, any_branch=True
        ),
        "waypointing": Waypoint(sources=access[:2], waypoints=cores, destination_prefix=EXTERNAL),
        "bounded-path-length": BoundedPathLength(
            max_hops=6, sources=access[:2], destination_prefix=EXTERNAL
        ),
    }


@pytest.mark.parametrize("network_id,devices", NETWORKS)
@pytest.mark.parametrize("policy_name", ["reachability", "waypointing", "bounded-path-length"])
@pytest.mark.parametrize("failures", [0, 1])
def test_realworld_policies(reporter, network_id, devices, policy_name, failures):
    network, topology = _network(network_id, devices)
    policy = _policies(topology)[policy_name]
    verifier = Plankton(network, PlanktonOptions(max_failures=failures))
    result = verifier.verify(policy)
    reporter(
        "fig7h",
        f"{network_id}({devices}) {policy_name} failures<={failures} "
        f"time={result.elapsed_seconds * 1000:.1f}ms verdict={'pass' if result.holds else 'fail'}",
    )
