"""Reproduction of *Plankton: Scalable network configuration verification
through model checking* (NSDI 2020).

The package is organised exactly as the paper's system (see README.md):

* :mod:`repro.netaddr`, :mod:`repro.topology`, :mod:`repro.config` — inputs:
  addresses, topologies and device configurations.
* :mod:`repro.protocols` — the control-plane substrate: OSPF, BGP, static
  routing, and the SPVP/RPVP path-vector abstractions.
* :mod:`repro.pec` — Packet Equivalence Classes and their dependency graph.
* :mod:`repro.modelcheck` — the explicit-state model checker (the SPIN
  stand-in).
* :mod:`repro.core` — the Plankton verifier: optimized exploration, FIB
  construction, dependency-aware scheduling.
* :mod:`repro.policies` — the policy API and the paper's policy set.
* :mod:`repro.baselines` — Minesweeper-like (SAT), ARC-like, Batfish-like and
  Bonsai comparators used by the benchmark harness.

Quickstart::

    from repro import Plankton, PlanktonOptions
    from repro.topology import fat_tree
    from repro.config import ospf_everywhere
    from repro.policies import LoopFreedom

    network = ospf_everywhere(fat_tree(4))
    result = Plankton(network, PlanktonOptions()).verify(LoopFreedom())
    assert result.holds
"""

from repro.core.options import OptimizationFlags, PlanktonOptions
from repro.core.results import VerificationResult, Violation
from repro.core.verifier import Plankton, verify

__version__ = "1.0.0"

__all__ = [
    "OptimizationFlags",
    "PlanktonOptions",
    "VerificationResult",
    "Violation",
    "Plankton",
    "verify",
    "__version__",
]
