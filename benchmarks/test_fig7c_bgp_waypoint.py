"""Figure 7(c) — BGP data centers (RFC 7938), waypoint policy, non-determinism.

Paper: fat trees (20-320 devices) running eBGP per RFC 7938 with a
misconfiguration that makes waypoint traversal depend on age-based
tie-breaking; Plankton finds a violating event sequence in under 2 seconds
even in the worst case, thanks to policy-based pruning.

Reproduction: same construction for k=4/6/8 (20/45/80 devices), random
waypoint subsets per the paper, worst/average time over several waypoint
choices.
"""

import statistics
import time

import pytest

from repro import Plankton, PlanktonOptions
from repro.config import ebgp_rfc7938
from repro.config.builder import edge_prefix, random_waypoint_choice
from repro.core.network_model import DependencyContext, PecExplorer
from repro.policies import Waypoint
from repro.topology import bgp_fat_tree, fat_tree_device_count
from repro.topology.failures import enumerate_failure_scenarios

ARITIES = [4, 6, 8]


def _run_once(k, seed):
    topology = bgp_fat_tree(k)
    waypoints = random_waypoint_choice(topology, fraction=0.25, seed=seed)
    network = ebgp_rfc7938(topology, waypoints=waypoints, steer_through_waypoints=False)
    policy = Waypoint(
        sources=["edge0_0"],
        waypoints=waypoints,
        destination_prefix=edge_prefix(k - 1, 1),
    )
    return Plankton(network, PlanktonOptions()).verify(policy)


@pytest.mark.parametrize("k", ARITIES)
def test_waypoint_under_nondeterminism(reporter, k):
    result = _run_once(k, 1)
    reporter(
        "fig7c",
        f"N={fat_tree_device_count(k)} waypoint time={result.elapsed_seconds:.3f}s "
        f"states={result.total_states_expanded} verdict={'pass' if result.holds else 'fail'}",
    )


@pytest.mark.parametrize("k", [4, 6])
def test_waypoint_worst_and_average(reporter, k):
    """Max / average time over several random waypoint choices (the paper's
    error bars)."""
    times = []
    for seed in range(4):
        result = _run_once(k, seed)
        times.append(result.elapsed_seconds)
    reporter(
        "fig7c",
        f"N={fat_tree_device_count(k)} avg={statistics.mean(times):.3f}s max={max(times):.3f}s",
    )
    assert max(times) < 30.0


def test_derived_planes_floor(reporter):
    """Gating floor for deriving a task's later data planes from its first: >=2x.

    Every converged state of one rack prefix of the eBGP k=4 fabric under <= 1
    link failure (the other seven racks are this one up to renaming), handed
    to ``build_data_plane`` the way ``explore`` builds the outcomes it keeps
    (one explorer per task: first plane from scratch, the rest derived) and to
    a fresh explorer per plane (every plane from scratch).  An in-process ratio of planes per
    second, never wall clock, so a loaded box moves both sides.  Measured
    ~11x; 2x leaves all the noise headroom a loaded container needs.
    """
    plankton = Plankton(ebgp_rfc7938(bgp_fat_tree(4)))
    pec = next(pec for pec in plankton.pecs if pec.has_bgp())

    def explorer(failure):
        return PecExplorer(
            plankton.network,
            pec,
            failure,
            plankton.options,
            dependency_context=DependencyContext(),
            ospf_computation=plankton.ospf_computation,
        )

    tasks = []  # (failure, [bgp_states of every plane, in streamed order])
    for failure in enumerate_failure_scenarios(plankton.network.topology, 1):
        streaming, streamed = explorer(failure), []
        build = streaming.build_data_plane
        streaming.build_data_plane = lambda states, build=build, streamed=streamed: (
            streamed.append(dict(states)) or build(states)
        )
        streaming.explore()  # a kept outcome is built as it is reached
        tasks.append((failure, streamed))
    planes = sum(len(streamed) for _failure, streamed in tasks)

    def timed(explorers_for):
        """Seconds inside ``build_data_plane`` over every plane of every task."""
        elapsed, documents = 0.0, []
        for failure, streamed in tasks:
            explorers = explorers_for(failure, len(streamed))
            started = time.perf_counter()
            built = [one.build_data_plane(states) for one, states in zip(explorers, streamed)]
            elapsed += time.perf_counter() - started
            documents.append([plane.to_dict() for plane, _control_plane in built])
        return elapsed, documents

    def per_task(failure, count):
        return [explorer(failure)] * count

    def per_plane(failure, count):
        return [explorer(failure) for _ in range(count)]

    derived_elapsed, derived = timed(per_task)
    scratch_elapsed, scratch = timed(per_plane)
    assert derived == scratch
    derived_best = min(derived_elapsed, timed(per_task)[0], timed(per_task)[0])
    ratio = scratch_elapsed / max(derived_best, 1e-9)
    reporter(
        "fig7c",
        f"derived data planes, eBGP k=4 <=1 failure, {len(tasks)} tasks, {planes} planes: "
        f"{planes / derived_best:,.0f} planes/s vs from scratch {planes / scratch_elapsed:,.0f}, "
        f"ratio={ratio:.1f}x (floor 2.0x)",
    )
    assert ratio >= 2.0
