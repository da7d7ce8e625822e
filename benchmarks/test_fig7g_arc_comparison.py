"""Figure 7(g) — Plankton vs ARC: all-to-all reachability under 0/1/2 failures.

Paper: ARC builds one model per source-destination pair and its runtime grows
steeply with network size (but not with the failure bound); Plankton is faster
at low failure counts but scales poorly as the number of failures grows.

Reproduction: the same sweep over fat trees and an ISP-like topology, with the
failure bound limited to 0/1 (2 on the smallest network) so the explicit
enumeration stays within seconds.
"""

import pytest

from repro import Plankton, PlanktonOptions
from repro.config import ospf_everywhere
from repro.policies import Reachability
from repro.topology import fat_tree, rocketfuel_like
from tests.oracles.arc import ArcVerifier

CASES = [
    ("fat-tree-20", lambda: ospf_everywhere(fat_tree(4))),
    ("fat-tree-45", lambda: ospf_everywhere(fat_tree(6))),
    (
        "as1221-30",
        lambda: ospf_everywhere(
            rocketfuel_like("AS1221", size=30, seed=7),
            originate_roles=("backbone",),
        ),
    ),
]


def _destination_prefix(network):
    for name, config in network.devices.items():
        if config.ospf and config.ospf.networks:
            return config.ospf.networks[0], name
    raise AssertionError("workload has no originated prefix")


@pytest.mark.parametrize("name,make_network", CASES)
@pytest.mark.parametrize("failures", [0, 1])
def test_plankton_all_to_all(reporter, name, make_network, failures):
    network = make_network()
    prefix, _origin = _destination_prefix(network)
    policy = Reachability(destination_prefix=prefix, any_branch=True)
    verifier = Plankton(network, PlanktonOptions(max_failures=failures))
    result = verifier.verify(policy)
    reporter(
        "fig7g",
        f"{name} failures<={failures} plankton time={result.elapsed_seconds:.3f}s "
        f"scenarios={result.failure_scenarios} verdict={'pass' if result.holds else 'fail'}",
    )


@pytest.mark.parametrize("name,make_network", CASES)
@pytest.mark.parametrize("failures", [0, 1, 2])
def test_arc_all_to_all(reporter, name, make_network, failures):
    network = make_network()
    prefix, origin = _destination_prefix(network)
    verifier = ArcVerifier(network)
    result = verifier.check_all_to_all_reachability({prefix: (origin,)}, failures)
    reporter(
        "fig7g",
        f"{name} failures<={failures} arc time={result.elapsed_seconds:.3f}s "
        f"pair-models={result.pair_models_built} verdict={'pass' if result.holds else 'fail'}",
    )


def test_failure_scaling_shapes(reporter):
    """ARC's cost is flat in the failure bound; Plankton's grows with it."""
    network = ospf_everywhere(fat_tree(4))
    prefix, origin = _destination_prefix(network)
    plankton_times = []
    arc_times = []
    for failures in (0, 1, 2):
        plankton = Plankton(network, PlanktonOptions(max_failures=failures)).verify(
            Reachability(destination_prefix=prefix, any_branch=True)
        )
        arc = ArcVerifier(network).check_all_to_all_reachability({prefix: (origin,)}, failures)
        plankton_times.append(plankton.elapsed_seconds)
        arc_times.append(arc.elapsed_seconds)
    reporter(
        "fig7g",
        "fat-tree-20 plankton times by failures "
        + ", ".join(f"{t:.3f}s" for t in plankton_times)
        + " | arc times "
        + ", ".join(f"{t:.3f}s" for t in arc_times),
    )
    assert plankton_times[2] > plankton_times[0]
