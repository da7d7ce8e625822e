"""Figure 7(d) — AS topologies with OSPF and single link failures, reachability.

Paper: RocketFuel AS topologies (87-315 devices), reachability of all
destination prefixes from a random multi-homed ingress under any single link
failure; Plankton beats Minesweeper in both time and memory, both find the
violations that exist.

Reproduction: synthetic ISP-like topologies of the same families, scaled to
sizes the Python prototype sweeps in seconds, with the SAT-based
Minesweeper-like baseline run on the smallest instance.
"""

import functools

import pytest

from repro import Plankton, PlanktonOptions
from repro.config import ospf_everywhere
from repro.netaddr import Prefix
from repro.policies import Reachability
from repro.topology import rocketfuel_like
from tests.oracles.minesweeper import MinesweeperVerifier

#: (AS name, device count used here) — scaled-down stand-ins for the paper's maps.
CASES = [("AS1755", 30), ("AS3967", 30), ("AS1221", 40), ("AS3257", 40)]

#: The SAT baseline with failure variables blows up super-linearly (that is the
#: paper's point); at 10+ devices the DPLL solver already exceeds any sensible
#: benchmark budget, so its rows use this further scaled-down instance.
MINESWEEPER_SIZE = 8


def _network(as_name, size):
    topology = rocketfuel_like(as_name, size=size, seed=11)
    prefix_for = {
        name: Prefix(f"10.{index}.0.0/16")
        for index, name in enumerate(topology.nodes_by_role("backbone"))
    }
    network = ospf_everywhere(topology, originate_roles=(), prefix_for=prefix_for)
    ingress = next(n for n in topology.nodes_by_role("pop") if topology.degree(n) > 1)
    return network, ingress


@pytest.mark.parametrize("as_name,size", CASES)
def test_plankton_reachability_under_failure(reporter, as_name, size):
    network, ingress = _network(as_name, size)
    verifier = Plankton(network, PlanktonOptions(max_failures=1))
    policy = Reachability(sources=[ingress], any_branch=True)
    result = verifier.verify(policy)
    reporter(
        "fig7d",
        f"{as_name}(n={size}) plankton time={result.elapsed_seconds:.3f}s "
        f"scenarios={result.failure_scenarios} verdict={'pass' if result.holds else 'fail'}",
    )


@pytest.fixture(scope="module")
def smallest():
    """The instance both Minesweeper tests below use, and its baseline check.

    The check is the slowest thing in this module and both tests need the
    same answer, so ``check()`` runs it on first use and memoises: the timed
    test (first in file order) pays for it, the agreement test reads it.
    """
    network, ingress = _network(CASES[0][0], MINESWEEPER_SIZE)
    destination = network.device(network.topology.nodes_by_role("backbone")[0]).ospf.networks[0]
    verifier = MinesweeperVerifier(network, max_failures=1)
    check = functools.cache(lambda: verifier.check_reachability(destination, [ingress]))
    return network, ingress, destination, check


def test_minesweeper_reachability_smallest(reporter, smallest):
    as_name, size = CASES[0][0], MINESWEEPER_SIZE
    *_instance, check = smallest
    result = check()
    reporter(
        "fig7d",
        f"{as_name}(n={size}) minesweeper time={result.elapsed_seconds:.3f}s "
        f"vars={result.variables} clauses={result.clauses} "
        f"verdict={'pass' if result.holds else 'fail'}",
    )


def test_verdicts_agree_on_smallest(reporter, smallest):
    as_name = CASES[0][0]
    network, ingress, destination, check = smallest
    plankton = Plankton(network, PlanktonOptions(max_failures=1)).verify(
        Reachability(sources=[ingress], destination_prefix=destination, any_branch=True)
    )
    minesweeper = check()
    reporter(
        "fig7d",
        f"{as_name} agreement plankton={'pass' if plankton.holds else 'fail'} "
        f"minesweeper={'pass' if minesweeper.holds else 'fail'}",
    )
    assert plankton.holds == minesweeper.holds
