"""The Batfish-style single-execution control-plane simulator that
``repro simulate`` and ``repro trace`` run (:mod:`repro.baselines.simulation`).

The paper's other comparison points — the Minesweeper-style SAT search, the
Figure 2 shortest-path micro-benchmark, ARC and Bonsai — evaluate the system
rather than belong to it, and live with the tests in ``tests/oracles/``.
"""

from repro import _exports

#: Public name -> the module that defines it (imported on first access).
_ORIGINS = {
    "SimulationVerifier": "repro.baselines.simulation",
    "SimulationResult": "repro.baselines.simulation",
}

__all__ = list(_ORIGINS)
__getattr__ = _exports(__name__, _ORIGINS)
