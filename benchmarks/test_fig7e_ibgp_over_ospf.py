"""Figure 7(e) — iBGP over OSPF on AS topologies, reachability.

Paper: iBGP prefixes rely on the underlying OSPF process for next-hop
reachability; Plankton's dependency-aware scheduler keeps each PEC problem
small, while Minesweeper duplicates the network (n+1 copies) and blows up.

Reproduction: ISP-like topologies with iBGP (route reflectors) over OSPF.
Plankton's cost stays near the per-PEC cost; the Minesweeper-like baseline's
formula size grows with the n+1 network copies.
"""

import pytest

from repro import Plankton, PlanktonOptions
from repro.config import ibgp_over_ospf
from repro.netaddr import Prefix
from repro.policies import Reachability
from repro.topology import rocketfuel_like
from tests.oracles.minesweeper import MinesweeperVerifier

SIZES = [15, 25, 35]
EXTERNAL = Prefix("200.0.0.0/16")


def _network(size):
    topology = rocketfuel_like("AS1221", size=size, seed=3)
    egress = sorted(topology.nodes)[0]
    reflectors = topology.nodes_by_role("backbone")[:2]
    return ibgp_over_ospf(topology, {egress: EXTERNAL}, route_reflectors=reflectors)


@pytest.mark.parametrize("size", SIZES)
def test_plankton_ibgp_reachability(reporter, size):
    network = _network(size)
    policy = Reachability(destination_prefix=EXTERNAL, any_branch=True)
    verifier = Plankton(network, PlanktonOptions())
    result = verifier.verify(policy)
    reporter(
        "fig7e",
        f"n={size} plankton time={result.elapsed_seconds:.3f}s "
        f"pecs={result.pecs_analyzed} verdict={'pass' if result.holds else 'fail'}",
    )
    assert result.holds


@pytest.mark.skip(
    reason="the DPLL stand-in cannot solve the n+1-copy iBGP encoding within a "
    "practical benchmark budget even at the smallest sizes (the blow-up the "
    "paper describes); the encoding itself and verdict agreement on a tiny "
    "instance are covered by tests/integration/test_feature_matrix.py"
)
@pytest.mark.parametrize("size", SIZES[:2])
def test_minesweeper_ibgp_reachability(reporter, size):
    network = _network(size)
    source = sorted(network.topology.nodes)[-1]
    verifier = MinesweeperVerifier(network)
    result = verifier.check_ibgp_reachability(EXTERNAL, [source])
    reporter(
        "fig7e",
        f"n={size} minesweeper time={result.elapsed_seconds:.3f}s "
        f"network-copies={result.network_copies} vars={result.variables} "
        f"clauses={result.clauses} verdict={'pass' if result.holds else 'fail'}",
    )
    assert result.network_copies == size + 1


@pytest.mark.parametrize("size", SIZES[:2])
def test_problem_size_blowup(reporter, size):
    """Minesweeper's n+1 copies vs one copy, read off the encodings unsolved."""
    network = _network(size)
    source = sorted(network.topology.nodes)[-1]
    formula, _, copies = MinesweeperVerifier(network).encode_ibgp_reachability(
        EXTERNAL, [source]
    )
    single, _ = MinesweeperVerifier(network).encode_reachability(
        network.topology.node(sorted(network.topology.nodes)[0]).loopback, [source]
    )
    blowup = formula.clause_count() / max(single.clause_count(), 1)
    reporter(
        "fig7e",
        f"n={size} formula blowup from network copies={blowup:.1f}x "
        f"({single.clause_count()} -> {formula.clause_count()} clauses, {copies} copies)",
    )
    assert copies == size + 1
    assert blowup > size / 2
