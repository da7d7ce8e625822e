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
* :mod:`repro.baselines` — the Batfish-like single-execution simulator behind
  ``repro simulate`` and ``repro trace``; the paper's other comparators
  (Minesweeper, ARC, Bonsai) live with the tests in ``tests/oracles/``.

Quickstart::

    from repro import Plankton, PlanktonOptions
    from repro.topology import fat_tree
    from repro.config import ospf_everywhere
    from repro.policies import LoopFreedom

    network = ospf_everywhere(fat_tree(4))
    result = Plankton(network, PlanktonOptions()).verify(LoopFreedom())
    assert result.holds
"""

from importlib import import_module
from typing import Callable, Mapping

__version__ = "1.0.0"


def _exports(package: str, origins: Mapping[str, str]) -> Callable[[str], object]:
    """The module ``__getattr__`` (PEP 562) of a package whose public names
    live in its submodules: ``origins`` maps each name to the module that
    defines it, and that module is imported when the name is asked for.

    Importing a package therefore costs its ``__init__`` and nothing else: a
    process pays for the modules its sub-command runs, not for everything
    the package can do.  The attribute is read off the defining module on
    every access — nothing is copied into the package, so the two cannot
    come apart (under a test's monkeypatch, say).
    """

    def __getattr__(name: str) -> object:
        origin = origins.get(name)
        if origin is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(import_module(origin), name)

    return __getattr__


#: Public name -> the module that defines it (imported on first access).
_ORIGINS = {
    "OptimizationFlags": "repro.core.options",
    "PlanktonOptions": "repro.core.options",
    "VerificationResult": "repro.core.results",
    "Violation": "repro.core.results",
    "Plankton": "repro.core.verifier",
}

__all__ = [*_ORIGINS, "__version__"]
__getattr__ = _exports(__name__, _ORIGINS)
