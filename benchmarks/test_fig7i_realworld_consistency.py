"""Figure 7(i) — real-world configurations: loop, multipath- and path-consistency.

Paper: networks II, III and IV checked for Loop, Multipath Consistency and
Path Consistency, with and without one link failure; times in the 8-30 s
range on 32 cores.

Reproduction: the enterprise-like stand-ins for networks II-IV, the same three
policies, 0 and 1 failures.
"""

import pytest

from repro import Plankton, PlanktonOptions
from repro.config import ibgp_over_ospf
from repro.netaddr import Prefix
from repro.policies import LoopFreedom, MultipathConsistency, PathConsistency
from repro.topology import enterprise_like

NETWORKS = [("II", 20), ("III", 24), ("IV", 20)]
EXTERNAL = Prefix("203.0.113.0/24")


def _network(network_id, devices):
    topology = enterprise_like(network_id, devices=devices, seed=13)
    egress = topology.nodes_by_role("core")[0]
    reflectors = topology.nodes_by_role("core")[:2]
    return ibgp_over_ospf(topology, {egress: EXTERNAL}, route_reflectors=reflectors), topology


def _policies(topology):
    access = topology.nodes_by_role("access")
    group = access[:2] if len(access) >= 2 else topology.nodes_by_role("distribution")[:2]
    return {
        "loop": LoopFreedom(),
        "multipath-consistency": MultipathConsistency(),
        "path-consistency": PathConsistency(sources=group, destination_prefix=EXTERNAL),
    }


@pytest.mark.parametrize("network_id,devices", NETWORKS)
@pytest.mark.parametrize("policy_name", ["loop", "multipath-consistency", "path-consistency"])
@pytest.mark.parametrize("failures", [0, 1])
def test_consistency_policies(reporter, network_id, devices, policy_name, failures):
    network, topology = _network(network_id, devices)
    policy = _policies(topology)[policy_name]
    verifier = Plankton(network, PlanktonOptions(max_failures=failures))
    result = verifier.verify(policy)
    reporter(
        "fig7i",
        f"{network_id}({devices}) {policy_name} failures<={failures} "
        f"time={result.elapsed_seconds:.3f}s mem~{result.approximate_memory_bytes // 1024}KiB "
        f"verdict={'pass' if result.holds else 'fail'}",
    )
