"""Property-based tests for the SAT substrate and the failure-scenario logic.

The DPLL solver stands in for Z3 in the Minesweeper-like baseline; its
verdicts must agree with brute-force enumeration on small formulas.  The
failure-equivalence reduction (§4.3) must only ever *drop* redundant
scenarios, never invent ones that full enumeration would not contain, and its
splitter refinement must reach the reference refiner's classes
(``tests/oracles``) on drawn asymmetric graphs.
"""

import hashlib
import itertools
import os
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ebgp_rfc7938, ospf_everywhere
from repro.config.builder import edge_prefix, install_loop_inducing_statics
from repro.config.parser import parse_config
from repro.core.options import PlanktonOptions
from repro.engine.graph import (
    event_scenarios_for_pec,
    failure_scenarios_for_pec,
    network_symmetry,
)
from repro.pec.classes import compute_pecs
from repro.policies import LoopFreedom, Reachability
from repro.scenarios.enumerator import EVENT_KINDS, enumerate_event_scenarios
from repro.topology import (
    DeviceEquivalence,
    Topology,
    bgp_fat_tree,
    enumerate_failure_scenarios,
    fat_tree,
    load_topology,
    reduced_failure_scenarios,
    ring,
)
from repro.topology import failures
from repro.transient import TransientOptions
from tests.oracles.ospf_reference import (
    reference_device_classes,
    reference_reduced_failure_scenarios,
)
from tests.oracles.sat import CnfFormula, SatResult, SatSolver
from tests.helpers import add_static_route


# --------------------------------------------------------------------------- SAT
def brute_force_satisfiable(clauses, variable_count):
    """Try every assignment of ``variable_count`` booleans."""
    if variable_count == 0:
        return all(clauses) if clauses else True
    for bits in itertools.product([False, True], repeat=variable_count):
        assignment = {i + 1: bits[i] for i in range(variable_count)}
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            return True
    return False


clause_strategy = st.lists(
    st.lists(
        st.integers(-6, 6).filter(lambda lit: lit != 0),
        min_size=1,
        max_size=4,
    ),
    min_size=0,
    max_size=12,
)


class TestSatSolverProperties:
    @given(clause_strategy)
    @settings(max_examples=150, deadline=None)
    def test_verdict_matches_bruteforce(self, raw_clauses):
        formula = CnfFormula()
        variable_count = max((abs(l) for clause in raw_clauses for l in clause), default=0)
        for _ in range(variable_count):
            formula.new_variable()
        for clause in raw_clauses:
            formula.add_clause(clause)
        result, model = SatSolver(formula).solve()
        expected = brute_force_satisfiable(raw_clauses, variable_count)
        assert (result is SatResult.SAT) == expected

    @given(clause_strategy)
    @settings(max_examples=150, deadline=None)
    def test_returned_model_satisfies_every_clause(self, raw_clauses):
        formula = CnfFormula()
        variable_count = max((abs(l) for clause in raw_clauses for l in clause), default=0)
        for _ in range(variable_count):
            formula.new_variable()
        for clause in raw_clauses:
            formula.add_clause(clause)
        result, model = SatSolver(formula).solve()
        if result is not SatResult.SAT:
            return
        assert model is not None
        for clause in raw_clauses:
            assert any(model.get(abs(lit), False) == (lit > 0) for lit in clause)

    @given(st.integers(1, 6))
    def test_exactly_one_encoding(self, width):
        formula = CnfFormula()
        variables = [formula.new_variable() for _ in range(width)]
        formula.add_exactly_one(variables)
        result, model = SatSolver(formula).solve()
        assert result is SatResult.SAT
        assert sum(1 for v in variables if model.get(v, False)) == 1

    @given(st.integers(2, 6), st.integers(0, 3))
    def test_at_most_k_encoding(self, width, k):
        formula = CnfFormula()
        variables = [formula.new_variable() for _ in range(width)]
        formula.add_at_most_k(variables, k)
        # Forcing k+1 of them true must be unsatisfiable.
        if k + 1 <= width:
            for variable in variables[: k + 1]:
                formula.add_clause([variable])
            result, _model = SatSolver(formula).solve()
            assert result is SatResult.UNSAT


# --------------------------------------------------------------------------- failures
class TestFailureScenarioProperties:
    @given(st.integers(3, 8), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_enumeration_counts_match_binomials(self, ring_size, max_failures):
        topology = ring(ring_size)
        scenarios = enumerate_failure_scenarios(topology, max_failures)
        links = len(topology.links)
        expected = sum(
            len(list(itertools.combinations(range(links), count)))
            for count in range(0, max_failures + 1)
        )
        assert len(scenarios) == expected
        assert all(len(s) <= max_failures for s in scenarios)
        # Scenarios are unique.
        assert len({s.failed_links for s in scenarios}) == len(scenarios)

    @given(st.integers(3, 8), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_reduction_is_a_subset_of_full_enumeration(self, ring_size, max_failures):
        topology = ring(ring_size)
        colors = {name: 0 for name in topology.nodes}
        full = {s.failed_links for s in enumerate_failure_scenarios(topology, max_failures)}
        reduced = reduced_failure_scenarios(topology, max_failures, colors=colors)
        assert {s.failed_links for s in reduced} <= full
        # The empty scenario is always kept.
        assert () in {s.failed_links for s in reduced}

    @given(st.sampled_from([4, 6]), st.integers(1, 2))
    @settings(max_examples=10, deadline=None)
    def test_reduction_shrinks_symmetric_fat_trees(self, k, max_failures):
        topology = fat_tree(k)
        colors = {name: topology.node(name).role for name in topology.nodes}
        full = enumerate_failure_scenarios(topology, max_failures)
        reduced = reduced_failure_scenarios(topology, max_failures, colors=colors)
        assert len(reduced) < len(full)

    @given(st.integers(3, 7))
    @settings(max_examples=20, deadline=None)
    def test_interesting_nodes_stay_in_singleton_classes(self, ring_size):
        topology = ring(ring_size)
        colors = {name: 0 for name in topology.nodes}
        interesting = [topology.nodes[0]]
        reduced_plain = reduced_failure_scenarios(topology, 1, colors=colors)
        reduced_marked = reduced_failure_scenarios(
            topology, 1, colors=colors, interesting_nodes=interesting
        )
        # Marking a node as interesting can only preserve or increase the
        # number of distinguishable link classes.
        assert len(reduced_marked) >= len(reduced_plain)


# --------------------------------------------------------------------------- LEC pin
_CAMPUS = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples", "configs", "campus.topo"
)


def _coloured_fat_tree():
    topology = fat_tree(4)
    colors = {"edge0_0": "origin", "edge1_1": ("rack", 1)}
    return topology, colors, ["core0", "agg2_1"]


_LEC_CASES = {
    "fat_tree_4": lambda: (fat_tree(4), None, None),
    "fat_tree_6": lambda: (fat_tree(6), None, None),
    "ring_6": lambda: (ring(6), None, None),
    "campus": lambda: (load_topology(_CAMPUS), None, None),
    "coloured_interesting": _coloured_fat_tree,
}


class TestLecPin:
    """The compiled-adjacency refinement is pinned to the reference refiner
    (``tests/oracles``): same DEC numbering, same scenarios in the same order."""

    @pytest.mark.parametrize("case", sorted(_LEC_CASES))
    def test_device_classes_equal_reference(self, case):
        topology, colors, _interesting = _LEC_CASES[case]()
        equivalence = DeviceEquivalence(topology, colors)
        assert equivalence.device_classes == reference_device_classes(topology, colors)
        some_link = topology.links[len(topology.links) // 2].link_id
        failed = DeviceEquivalence(topology, colors, failed_links={some_link})
        assert failed.device_classes == reference_device_classes(topology, colors, {some_link})

    @pytest.mark.parametrize("max_failures", [1, 2])
    @pytest.mark.parametrize("case", sorted(_LEC_CASES))
    def test_reduced_scenarios_equal_reference(self, case, max_failures):
        topology, colors, interesting = _LEC_CASES[case]()
        reduced = reduced_failure_scenarios(
            topology, max_failures, colors=colors, interesting_nodes=interesting
        )
        assert [s.failed_links for s in reduced] == reference_reduced_failure_scenarios(
            topology, max_failures, colors, interesting
        )

    def test_fat_tree_4_single_failure_literal(self):
        # Captured on the commit before the compiled refinement.  Uncoloured
        # k=4 has one LEC per tier pair: the representatives are the first
        # edge-aggregation link and the first aggregation-core link.
        topology = fat_tree(4)
        reduced = reduced_failure_scenarios(topology, 1)
        assert [s.failed_links for s in reduced] == [(), (0,), (4,)]
        assert (topology.link(0).a, topology.link(0).b) == ("agg0_0", "edge0_0")
        assert (topology.link(4).a, topology.link(4).b) == ("agg0_0", "core0")
        both = reduced_failure_scenarios(ring(6), 2)
        assert [s.failed_links for s in both] == [(), (0,), (0, 1), (0, 2), (0, 3)]

    def test_mutated_topology_is_recompiled(self):
        topology = ring(4)
        before = DeviceEquivalence(topology).device_classes
        assert len(set(before.values())) == 1
        topology.add_node("stub")
        topology.add_link("stub", "r0")
        after = DeviceEquivalence(topology).device_classes
        assert after == reference_device_classes(topology)
        assert len(set(after.values())) > 1
        # A coloured refinement starts from the cached equitable partition: a
        # chord added after it must drop that partition and the rows with it.
        colors = {"r1": "origin"}
        assert DeviceEquivalence(topology, colors).device_classes == reference_device_classes(
            topology, colors
        )
        topology.add_link("r1", "r3")
        assert DeviceEquivalence(topology, colors).device_classes == reference_device_classes(
            topology, colors
        )

    def test_a_second_refinement_builds_no_rows_and_no_base_partition(self, monkeypatch):
        topology = fat_tree(4)
        DeviceEquivalence(topology, {"edge0_0": "origin"})

        def refused(*_args):
            raise AssertionError("built again")

        monkeypatch.setattr(failures, "_rows", refused)
        monkeypatch.setattr(failures, "_base_partition", refused)
        for colors, failed in (({"edge1_0": "origin"}, None), ({"agg2_1": 3}, {5, 9})):
            again = DeviceEquivalence(topology, colors, failed_links=failed)
            assert again.device_classes == reference_device_classes(topology, colors, failed)


@st.composite
def coloured_graphs(draw):
    """A weighted multigraph of at most 10 nodes, weights drawn per direction,
    with drawn colours, up to two failed links and up to two interesting nodes."""
    size = draw(st.integers(1, 10))
    topology = Topology("drawn")
    for node in range(size):
        topology.add_node(f"n{node}")
    if size > 1:
        ends = st.integers(0, size - 1)
        weights = st.integers(1, 3)
        for a, b, out, back in draw(
            st.lists(st.tuples(ends, ends, weights, weights), max_size=2 * size)
        ):
            if a != b:
                topology.add_link(f"n{a}", f"n{b}", weight=out, weight_ba=back)
    names = st.sampled_from(topology.nodes)
    colors = draw(st.dictionaries(names, st.sampled_from([None, "origin", ("rack", 1), 7])))
    link_ids = [link.link_id for link in topology.links]
    failed = draw(st.sets(st.sampled_from(link_ids), max_size=2)) if link_ids else set()
    interesting = draw(st.lists(names, max_size=2, unique=True))
    return topology, colors, failed, interesting


class TestRefinementDifferential:
    """The splitter refinement against the full-round reference refiner on
    drawn asymmetric graphs: same classes, same numbering, same scenarios."""

    @given(coloured_graphs())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_classes_and_scenarios_equal_reference(self, drawn):
        topology, colors, failed, interesting = drawn
        # The failed call first, so the unfailed one below builds the cache.
        assert DeviceEquivalence(topology, colors, failed).device_classes == (
            reference_device_classes(topology, colors, failed)
        )
        assert DeviceEquivalence(topology, colors).device_classes == (
            reference_device_classes(topology, colors)
        )
        for max_failures in (1, 2):
            reduced = reduced_failure_scenarios(
                topology, max_failures, colors=colors, interesting_nodes=interesting
            )
            assert [s.failed_links for s in reduced] == reference_reduced_failure_scenarios(
                topology, max_failures, colors, interesting
            )


# --------------------------------------------------------------------------- colour map
def _all_device_colors(network, pec):
    """The origin colours as they were before devices with no role were left
    out of the map: every device gets its (possibly empty) prefix triple."""
    return {
        name: (
            tuple(sorted(str(p) for p, devs in pec.ospf_origins if name in devs)),
            tuple(sorted(str(p) for p, devs in pec.bgp_origins if name in devs)),
            tuple(sorted(str(p) for p, devs in pec.static_devices if name in devs)),
        )
        for name in network.topology.nodes
    }


def _campus():
    topology = load_topology(_CAMPUS)
    with open(_CAMPUS[: -len(".topo")] + ".cfg") as handle:
        return parse_config(topology, handle.read()), [Reachability(sources=["acc0"])]


def _ospf_loop_fabric():
    network = ospf_everywhere(fat_tree(8))
    install_loop_inducing_statics(
        network, edge_prefix(2, 0), ["agg1_0", "edge1_0", "agg1_1", "edge1_1"]
    )
    return network, [LoopFreedom()]


def _ecmp_statics():
    # agg0_0 holds two static routes for the prefix, agg0_1 one: the same role.
    network = ospf_everywhere(fat_tree(4))
    for device, next_hop in (("agg0_0", "edge0_0"), ("agg0_0", "edge0_1"), ("agg0_1", "edge0_0")):
        add_static_route(network, device, edge_prefix(1, 0), next_hop)
    return network, [LoopFreedom()]


class TestOriginColourMap:
    """Leaving devices with no role out of the colour map changes no class:
    the scenarios are those the old all-device colours give."""

    @pytest.mark.parametrize("max_failures", [1, 2])
    @pytest.mark.parametrize(
        "build",
        [_campus, _ospf_loop_fabric, _ecmp_statics],
        ids=["campus", "ospf_k8_loop", "ecmp_statics"],
    )
    def test_failure_scenarios_equal_the_all_device_colouring(self, build, max_failures):
        network, policies = build()
        options = PlanktonOptions(max_failures=max_failures)
        symmetry = network_symmetry(network)
        for pec in compute_pecs(network):
            interesting = sorted(
                {node for policy in policies for node in policy.source_nodes(pec) or ()}
            )
            scenarios = failure_scenarios_for_pec(symmetry, pec, policies, options)
            assert [s.failed_links for s in scenarios] == reference_reduced_failure_scenarios(
                network.topology, max_failures, _all_device_colors(network, pec), interesting
            )

    def test_event_scenarios_on_ebgp_k4_are_the_parents(self):
        network = ebgp_rfc7938(bgp_fat_tree(4))
        symmetry = network_symmetry(network)
        digest = hashlib.sha256()
        ordered = hashlib.sha256()
        for pec in compute_pecs(network):
            scenarios = event_scenarios_for_pec(symmetry, pec, TransientOptions(scenario_events=2))
            old = enumerate_event_scenarios(
                network.topology,
                network.bgp_peers(),
                2,
                EVENT_KINDS,
                _all_device_colors(network, pec),
            )
            described = [scenario.describe() for scenario in scenarios]
            assert described == [scenario.describe() for scenario in old]
            assert len(described) == 2_416
            # A commuting pair's canonical order follows the kinds' sort
            # order, so against the parent each scenario is pinned as the
            # multiset of its events ...
            events = Counter(tuple(sorted(label.split("; "))) for label in described)
            digest.update(repr(sorted(events.items())).encode())
            # ... and the emitted labels, in order, pin the representative of
            # each commuting pair and the emission order from here on.
            ordered.update(repr(described).encode())
        # Captured before the colour map left devices out (8 PECs x 2 416),
        # with ``maintenance X`` renamed ``drain-return X``.
        assert digest.hexdigest()[:16] == "e0af59af2e27f478"
        assert ordered.hexdigest()[:16] == "6764341d6add2573"
