"""Figure 8 — optimization ablations.

Paper: ring and fat-tree workloads re-run with optimizations disabled; naive
model checking only scales to trivial networks (266 s / 7.6 GB already on a
16-node ring with one failure), while the optimized search stays in
microseconds to seconds.

Reproduction rows:
  * rings (4/8/16 nodes, 1 failure) with all optimizations vs none,
  * fat tree (20 nodes) all vs none (bounded state budget for 'none'),
  * fat tree + BGP waypoint with deterministic-node detection disabled and
    with policy-based pruning disabled.
"""

import pytest

from repro import OptimizationFlags, Plankton, PlanktonOptions
from repro.config import ebgp_rfc7938, ospf_everywhere
from repro.config.builder import edge_prefix
from repro.netaddr import Prefix
from repro.policies import Reachability, Waypoint
from repro.topology import bgp_fat_tree, fat_tree, ring

RING_SIZES = [4, 8, 16]


def _ring_network(n):
    return ospf_everywhere(
        ring(n), originate_roles=("router",), prefix_for={"r0": Prefix("10.0.0.0/24")}
    )


def _ring_policy():
    return Reachability(sources=["r2"], any_branch=True)


@pytest.mark.parametrize("n", RING_SIZES)
@pytest.mark.parametrize("optimizations", ["all", "none"])
def test_ring_ablation(reporter, n, optimizations):
    network = _ring_network(n)
    if optimizations == "all":
        options = PlanktonOptions(max_failures=1)
    else:
        options = PlanktonOptions(
            max_failures=1,
            optimizations=OptimizationFlags.none_enabled(),
            fast_ospf=False,
            max_states_per_pec=30_000,
            max_seconds_per_pec=5,
        )
    verifier = Plankton(network, options)
    result = verifier.verify(_ring_policy())
    reporter(
        "fig8",
        f"ring-{n} 1-failure optimizations={optimizations} time={result.elapsed_seconds:.3f}s "
        f"states={result.total_states_expanded} mem~{result.approximate_memory_bytes // 1024}KiB",
    )
    assert result.holds


@pytest.mark.parametrize("optimizations", ["all", "none"])
def test_fattree_ablation(reporter, optimizations):
    network = ospf_everywhere(fat_tree(4))
    policy = Reachability(destination_prefix=edge_prefix(0, 0), any_branch=True)
    if optimizations == "all":
        options = PlanktonOptions()
    else:
        options = PlanktonOptions(
            optimizations=OptimizationFlags.none_enabled(),
            fast_ospf=False,
            max_states_per_pec=30_000,
            max_seconds_per_pec=10,
        )
    verifier = Plankton(network, options)
    result = verifier.verify(policy)
    reporter(
        "fig8",
        f"fat-tree-20 optimizations={optimizations} time={result.elapsed_seconds:.3f}s "
        f"states={result.total_states_expanded} truncated="
        f"{any(run.statistics.truncated for run in result.pec_runs if run.statistics)}",
    )


def _bgp_waypoint_setup():
    topology = bgp_fat_tree(4)
    waypoints = ["agg0_0"]
    network = ebgp_rfc7938(topology, waypoints=waypoints, steer_through_waypoints=False)
    policy = Waypoint(
        sources=["edge0_0"], waypoints=waypoints, destination_prefix=edge_prefix(3, 1)
    )
    return network, policy


@pytest.mark.parametrize(
    "label,flags",
    [
        ("all", OptimizationFlags()),
        ("no-deterministic-nodes", OptimizationFlags().without(deterministic_nodes=True)),
        ("no-policy-pruning", OptimizationFlags().without(policy_based_pruning=True)),
    ],
)
def test_bgp_waypoint_ablation(reporter, label, flags):
    network, policy = _bgp_waypoint_setup()
    options = PlanktonOptions(optimizations=flags, max_states_per_pec=60_000, max_seconds_per_pec=30)
    verifier = Plankton(network, options)
    result = verifier.verify(policy)
    reporter(
        "fig8",
        f"fat-tree-20-bgp waypoint optimizations={label} time={result.elapsed_seconds:.3f}s "
        f"states={result.total_states_expanded} verdict={'pass' if result.holds else 'fail'}",
    )


def test_state_space_reduction_summary(reporter):
    """The headline reduction factor: optimized vs naive state counts."""
    network = _ring_network(8)
    optimized = Plankton(network, PlanktonOptions(max_failures=1, fast_ospf=False)).verify(
        _ring_policy()
    )
    naive = Plankton(
        network,
        PlanktonOptions(
            max_failures=1,
            optimizations=OptimizationFlags.none_enabled(),
            fast_ospf=False,
            max_states_per_pec=30_000,
            max_seconds_per_pec=5,
        ),
    ).verify(_ring_policy())
    reduction = naive.total_states_expanded / max(optimized.total_states_expanded, 1)
    reporter(
        "fig8",
        f"ring-8 state-space reduction from optimizations={reduction:.0f}x "
        f"({naive.total_states_expanded} -> {optimized.total_states_expanded} states)",
    )
    assert reduction > 2
