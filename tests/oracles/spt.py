"""The Figure 2 micro-benchmark: shortest paths by execution vs. by constraints.

The paper motivates explicit-state model checking with a small experiment:
single-source shortest paths computed (a) by executing the Bellman-Ford
algorithm inside a model checker, and (b) by encoding the solution as SMT
constraints and asking a solver.  Even with a deterministic program, the
"execute the algorithm" approach wins by orders of magnitude.

This module reproduces both sides:

* :func:`shortest_paths_by_execution` runs Bellman-Ford step by step through
  the same :class:`~repro.modelcheck.explorer.Explorer` used by the verifier
  (each relaxation round is one transition, so the model checker walks a
  deterministic chain of states, exactly the paper's setup);
* :func:`shortest_paths_by_constraints` encodes the distances with the unary
  order encoding over the DPLL SAT solver and reads the model back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.modelcheck.explorer import ExplorationStatistics, Explorer, ExplorerOptions
from repro.topology import Topology
from tests.oracles.sat import CnfFormula, SatResult, SatSolver, SolverError


@dataclass
class SptResult:
    """Distances plus the effort spent computing them."""

    distances: Dict[str, int]
    elapsed_seconds: float
    states_or_decisions: int


def shortest_paths_by_execution(topology: Topology, source: str) -> SptResult:
    """Bellman-Ford executed as a transition system inside the model checker."""
    started = time.perf_counter()
    nodes = topology.nodes
    unreachable = 1 << 30

    def initial() -> Tuple[Tuple[str, int], ...]:
        return tuple((n, 0 if n == source else unreachable) for n in nodes)

    def successors(state: Tuple[Tuple[str, int], ...]):
        distances = dict(state)
        changed = False
        updated = dict(distances)
        for link in topology.links:
            for a, b in ((link.a, link.b), (link.b, link.a)):
                weight = link.weight_from(a)
                if distances[a] + weight < updated[b]:
                    updated[b] = distances[a] + weight
                    changed = True
        if not changed:
            return []
        return [("relax-round", tuple(sorted(updated.items())))]

    converged: List[Tuple[Tuple[str, int], ...]] = []
    explorer = Explorer(
        successors=successors,
        check_terminal=lambda state, _labels: converged.append(state),
        options=ExplorerOptions(max_states=len(nodes) + 2),
    )
    statistics = ExplorationStatistics()
    explorer.run(initial(), statistics)
    final = dict(converged[0]) if converged else dict(initial())
    distances = {n: d for n, d in final.items() if d < unreachable}
    return SptResult(
        distances=distances,
        elapsed_seconds=time.perf_counter() - started,
        states_or_decisions=statistics.states_expanded,
    )


def shortest_paths_by_constraints(
    topology: Topology,
    source: str,
    max_distance: Optional[int] = None,
) -> SptResult:
    """Shortest paths obtained by constraint solving (the SMT-style baseline).

    Link weights are normalised by their gcd before encoding (the returned
    distances are in normalised units), which keeps the unary order encoding
    as small as the topology allows — the generic search is still orders of
    magnitude slower than executing the algorithm, which is the point of the
    comparison.
    """
    started = time.perf_counter()
    import math

    scale = 0
    for link in topology.links:
        scale = math.gcd(scale, link.weight_ab)
        scale = math.gcd(scale, link.weight_ba)
    scale = max(1, scale)
    if max_distance is None:
        # Hop bound times the maximum (normalised) weight, capped to keep the
        # unary encoding finite; the benchmark topologies stay under the cap.
        max_weight = max((l.weight_ab // scale for l in topology.links), default=1)
        max_distance = min(len(topology) * max_weight, 64)

    formula = CnfFormula()
    ge: Dict[str, List[int]] = {}
    for node in topology.nodes:
        ge[node] = [formula.new_variable(f"ge:{node}:{k}") for k in range(1, max_distance + 1)]
        for k in range(1, max_distance):
            formula.add_implication(ge[node][k], ge[node][k - 1])
    formula.add_clause((-ge[source][0],))

    def ge_lit(node: str, k: int) -> Optional[int]:
        if k <= 0:
            return None
        k = min(k, max_distance)
        return ge[node][k - 1]

    for node in topology.nodes:
        if node == source:
            continue
        neighbors = [
            (l.other(node), max(1, l.weight_from(node) // scale))
            for l in topology.edges(node)
        ]
        if not neighbors:
            formula.add_clause((ge[node][max_distance - 1],))
            continue
        for k in range(1, max_distance + 1):
            upper = ge_lit(node, k)
            assert upper is not None
            # dist(node) >= k -> every neighbour has dist >= k - w.
            for neighbor, weight in neighbors:
                lower = ge_lit(neighbor, k - weight)
                if lower is not None:
                    formula.add_clause((-upper, lower))
            # dist(node) < k -> some neighbour has dist < k - w.
            support = []
            for neighbor, weight in neighbors:
                lower = ge_lit(neighbor, k - weight)
                aux = formula.new_variable(f"sup:{node}:{neighbor}:{k}")
                if lower is not None:
                    formula.add_clause((-aux, -lower))
                elif k - weight <= 0:
                    pass  # dist(neighbor) < k - w is trivially satisfied at 0
                support.append(aux)
            formula.add_clause([upper] + support)

    solver = SatSolver(formula)
    result, model = solver.solve()
    if result != SatResult.SAT or model is None:
        raise SolverError("shortest-path constraint encoding unexpectedly unsatisfiable")
    distances: Dict[str, int] = {}
    for node in topology.nodes:
        value = 0
        for k in range(1, max_distance + 1):
            if model.get(ge[node][k - 1], False):
                value = k
            else:
                break
        if value < max_distance:
            distances[node] = value
    return SptResult(
        distances=distances,
        elapsed_seconds=time.perf_counter() - started,
        states_or_decisions=solver.statistics.decisions,
    )
