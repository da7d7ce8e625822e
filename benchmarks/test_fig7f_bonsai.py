"""Figure 7(f) — Bonsai-compressed fat trees, reachability and bounded path length.

Paper: Bonsai compresses the symmetric fat tree before verification;
Plankton-on-compressed still beats Minesweeper-on-compressed by orders of
magnitude.

Reproduction: the Bonsai-style compressor shrinks the fat tree for the
destination under verification (Bonsai computes one abstraction per
destination class), then both Plankton and the Minesweeper-like baseline
verify the compressed network.
"""

import pytest

from repro import Plankton, PlanktonOptions
from repro.config import ospf_everywhere
from repro.config.builder import edge_prefix
from repro.policies import BoundedPathLength, Reachability
from repro.topology import fat_tree, fat_tree_device_count
from tests.oracles.bonsai import BonsaiCompressor
from tests.oracles.minesweeper import MinesweeperVerifier

ARITIES = [4, 6, 8]


def _compressed(k):
    network = ospf_everywhere(fat_tree(k))
    return network, BonsaiCompressor(network).compress(for_prefix=edge_prefix(0, 0))


@pytest.mark.parametrize("k", ARITIES)
@pytest.mark.parametrize("policy_name", ["reachability", "bounded-path-length"])
def test_bonsai_plankton(reporter, k, policy_name):
    _network, compressed = _compressed(k)
    prefix = edge_prefix(0, 0)
    if policy_name == "reachability":
        policy = Reachability(destination_prefix=prefix, any_branch=True)
    else:
        policy = BoundedPathLength(max_hops=4, destination_prefix=prefix)
    verifier = Plankton(compressed.network, PlanktonOptions())
    result = verifier.verify(policy)
    reporter(
        "fig7f",
        f"N={fat_tree_device_count(k)} (compressed to {len(compressed.network.topology)}) "
        f"bonsai+plankton {policy_name} time={result.elapsed_seconds:.4f}s "
        f"verdict={'pass' if result.holds else 'fail'}",
    )
    assert result.holds


@pytest.mark.parametrize("k", ARITIES[:2])
def test_bonsai_minesweeper(reporter, k):
    _network, compressed = _compressed(k)
    prefix = edge_prefix(0, 0)
    verifier = MinesweeperVerifier(compressed.network)
    sources = [n for n in compressed.network.topology.nodes]
    result = verifier.check_reachability(prefix, sources[:1])
    reporter(
        "fig7f",
        f"N={fat_tree_device_count(k)} bonsai+minesweeper reachability "
        f"time={result.elapsed_seconds:.4f}s vars={result.variables}",
    )


def test_compression_ratio_grows_with_symmetry(reporter):
    for k in ARITIES:
        _network, compressed = _compressed(k)
        reporter(
            "fig7f",
            f"N={fat_tree_device_count(k)} compression ratio={compressed.compression_ratio:.1f}x "
            f"({len(compressed.abstraction)} -> {len(compressed.members)} devices)",
        )
    assert compressed.compression_ratio > 2
