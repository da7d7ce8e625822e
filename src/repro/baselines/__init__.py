"""Baseline verifiers the paper compares against (reimplemented from scratch).

* :mod:`repro.baselines.sat` — a DPLL SAT solver, the constraint-search
  substrate standing in for Z3.
* :mod:`repro.baselines.minesweeper` — a Minesweeper-style constraint-based
  converged-state search built on the SAT solver.
* :mod:`repro.baselines.spt` — the Figure 2 micro-benchmark: single-source
  shortest paths computed by direct execution vs. by constraint solving.
* :mod:`repro.baselines.arc` — an ARC-style graph-based verifier for
  shortest-path routing under failures.
* :mod:`repro.baselines.simulation` — a Batfish-style single-execution
  control-plane simulator.
* :mod:`repro.baselines.bonsai` — Bonsai-style control-plane compression.
"""

from repro import _exports

#: Public name -> the module that defines it (imported on first access).
_ORIGINS = {
    "CnfFormula": "repro.baselines.sat",
    "SatSolver": "repro.baselines.sat",
    "SatResult": "repro.baselines.sat",
    "MinesweeperVerifier": "repro.baselines.minesweeper",
    "MinesweeperResult": "repro.baselines.minesweeper",
    "ArcVerifier": "repro.baselines.arc",
    "ArcResult": "repro.baselines.arc",
    "SimulationVerifier": "repro.baselines.simulation",
    "SimulationResult": "repro.baselines.simulation",
    "BonsaiCompressor": "repro.baselines.bonsai",
    "CompressedNetwork": "repro.baselines.bonsai",
    "shortest_paths_by_execution": "repro.baselines.spt",
    "shortest_paths_by_constraints": "repro.baselines.spt",
}

__all__ = list(_ORIGINS)
__getattr__ = _exports(__name__, _ORIGINS)
