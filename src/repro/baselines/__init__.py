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

from repro.baselines.sat import CnfFormula, SatSolver, SatResult
from repro.baselines.minesweeper import MinesweeperVerifier, MinesweeperResult
from repro.baselines.arc import ArcVerifier, ArcResult
from repro.baselines.simulation import SimulationVerifier, SimulationResult
from repro.baselines.bonsai import BonsaiCompressor, CompressedNetwork
from repro.baselines.spt import (
    shortest_paths_by_execution,
    shortest_paths_by_constraints,
)

__all__ = [
    "CnfFormula",
    "SatSolver",
    "SatResult",
    "MinesweeperVerifier",
    "MinesweeperResult",
    "ArcVerifier",
    "ArcResult",
    "SimulationVerifier",
    "SimulationResult",
    "BonsaiCompressor",
    "CompressedNetwork",
    "shortest_paths_by_execution",
    "shortest_paths_by_constraints",
]
