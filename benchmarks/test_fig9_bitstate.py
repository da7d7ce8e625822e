"""Figure 9 — the effect of bitstate hashing on memory usage.

Paper: SPIN's bitstate hashing (a Bloom filter over visited states) cuts the
verifier's memory by 2-3x on the BGP data-center and AS fault-tolerance
workloads, at the cost of slightly reduced coverage (>99.9% per SPIN).

Reproduction: the same two workload families run with exact visited-state
storage vs the Bloom-filter visited set; the reported metric is the
approximate memory of the visited structures.
"""

import pytest

from repro import OptimizationFlags, Plankton, PlanktonOptions
from repro.config import ebgp_rfc7938, ospf_everywhere
from repro.config.builder import edge_prefix, random_waypoint_choice
from repro.netaddr import Prefix
from repro.policies import Reachability, Waypoint
from repro.topology import bgp_fat_tree, rocketfuel_like


def _bgp_dc_case(k=4):
    topology = bgp_fat_tree(k)
    waypoints = random_waypoint_choice(topology, fraction=0.25, seed=2)
    network = ebgp_rfc7938(topology, waypoints=waypoints, steer_through_waypoints=False)
    policy = Waypoint(
        sources=["edge0_0"], waypoints=waypoints, destination_prefix=edge_prefix(k - 1, 1)
    )
    return network, policy


def _as_fault_tolerance_case(size=20):
    topology = rocketfuel_like("AS1221", size=size, seed=5)
    prefix_for = {topology.nodes_by_role("backbone")[0]: Prefix("10.1.0.0/16")}
    network = ospf_everywhere(topology, originate_roles=(), prefix_for=prefix_for)
    ingress = topology.nodes_by_role("pop")[0]
    policy = Reachability(sources=[ingress], any_branch=True)
    return network, policy


def _run(network, policy, bitstate, max_failures=0):
    options = PlanktonOptions(
        max_failures=max_failures,
        optimizations=OptimizationFlags(bitstate_hashing=bitstate),
        stop_at_first_violation=False,
        bitstate_bits=1 << 18,
        max_states_per_pec=40_000,
        max_seconds_per_pec=20,
    )
    return Plankton(network, options).verify(policy)


@pytest.mark.parametrize("bitstate", [False, True])
def test_bgp_dc_waypoint_memory(reporter, bitstate):
    network, policy = _bgp_dc_case()
    result = _run(network, policy, bitstate)
    label = "bitstate" if bitstate else "exact"
    reporter(
        "fig9",
        f"bgp-dc-20 waypoint visited-storage={label} "
        f"mem~{result.approximate_memory_bytes // 1024}KiB states={result.total_unique_states}",
    )


@pytest.mark.parametrize("bitstate", [False, True])
def test_as_fault_tolerance_memory(reporter, bitstate):
    network, policy = _as_fault_tolerance_case()
    result = _run(network, policy, bitstate, 1)
    label = "bitstate" if bitstate else "exact"
    reporter(
        "fig9",
        f"as1221-20 fault-tolerance visited-storage={label} "
        f"mem~{result.approximate_memory_bytes // 1024}KiB states={result.total_unique_states}",
    )


def test_verdicts_unchanged_by_bitstate(reporter):
    network, policy = _bgp_dc_case(k=4)
    exact = _run(network, policy, bitstate=False)
    bloom = _run(network, policy, bitstate=True)
    reporter(
        "fig9",
        f"bgp-dc-20 verdict exact={'pass' if exact.holds else 'fail'} "
        f"bitstate={'pass' if bloom.holds else 'fail'}",
    )
    assert exact.holds == bloom.holds
