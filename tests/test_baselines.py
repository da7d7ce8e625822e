"""Tests for the baseline verifiers: SAT, Minesweeper-like, ARC-like, simulation, Bonsai."""

import pytest

from repro import Plankton, PlanktonOptions
from repro.baselines import SimulationVerifier
from repro.config import ConfigBuilder, ebgp_rfc7938, ospf_everywhere
from repro.config.builder import edge_prefix, install_loop_inducing_statics
from repro.exceptions import VerificationError
from repro.netaddr import Prefix
from repro.policies import LoopFreedom, Reachability, Waypoint
from repro.topology import bgp_fat_tree, fat_tree, ring
from tests.oracles.arc import ArcVerifier
from tests.oracles.bonsai import BonsaiCompressor
from tests.oracles.minesweeper import MinesweeperVerifier
from tests.oracles.sat import CnfFormula, SatResult, SatSolver
from tests.oracles.spt import shortest_paths_by_constraints, shortest_paths_by_execution
from tests.helpers import add_static_route, linear_chain


class TestSatSolver:
    def test_satisfiable(self):
        formula = CnfFormula()
        a, b = formula.new_variable("a"), formula.new_variable("b")
        formula.add_clause((a, b))
        formula.add_clause((-a, b))
        result, model = SatSolver(formula).solve()
        assert result == SatResult.SAT
        assert model[b] is True

    def test_unsatisfiable(self):
        formula = CnfFormula()
        a = formula.new_variable()
        formula.add_clause((a,))
        formula.add_clause((-a,))
        result, model = SatSolver(formula).solve()
        assert result == SatResult.UNSAT and model is None

    def test_exactly_one(self):
        formula = CnfFormula()
        variables = [formula.new_variable() for _ in range(4)]
        formula.add_exactly_one(variables)
        result, model = SatSolver(formula).solve()
        assert result == SatResult.SAT
        assert sum(model[v] for v in variables) == 1

    def test_at_most_k(self):
        formula = CnfFormula()
        variables = [formula.new_variable() for _ in range(4)]
        formula.add_at_most_k(variables, 2)
        for v in variables[:3]:
            formula.add_clause((v,))
        result, _ = SatSolver(formula).solve()
        assert result == SatResult.UNSAT

    def test_empty_clause_is_unsat(self):
        formula = CnfFormula()
        formula.new_variable()
        formula.add_clause(())
        result, _ = SatSolver(formula).solve()
        assert result == SatResult.UNSAT

    def test_pigeonhole_small(self):
        # 3 pigeons, 2 holes: unsatisfiable.
        formula = CnfFormula()
        holes = {
            (p, h): formula.new_variable(f"p{p}h{h}") for p in range(3) for h in range(2)
        }
        for p in range(3):
            formula.add_clause(tuple(holes[(p, h)] for h in range(2)))
        for h in range(2):
            formula.add_at_most_one([holes[(p, h)] for p in range(3)])
        result, _ = SatSolver(formula).solve()
        assert result == SatResult.UNSAT


class TestShortestPathBaselines:
    def test_agreement_on_fat_tree(self):
        topology = fat_tree(4)
        source = "edge0_0"
        executed = shortest_paths_by_execution(topology, source)
        solved = shortest_paths_by_constraints(topology, source)
        # Scale: the execution works on raw weights (10), the encoding on
        # gcd-normalised ones; compare shapes via ratios.
        for node, distance in solved.distances.items():
            assert executed.distances[node] == distance * 1 or executed.distances[node] == distance * 10

    def test_agreement_on_ring(self):
        topology = ring(6, link_weight=1)
        executed = shortest_paths_by_execution(topology, "r0")
        solved = shortest_paths_by_constraints(topology, "r0")
        assert executed.distances == solved.distances

    def test_execution_is_faster(self):
        topology = fat_tree(4)
        executed = shortest_paths_by_execution(topology, "edge0_0")
        solved = shortest_paths_by_constraints(topology, "edge0_0")
        assert executed.elapsed_seconds < solved.elapsed_seconds


class TestMinesweeperBaseline:
    def test_loop_check_agrees_with_plankton_pass(self):
        network = ospf_everywhere(fat_tree(4))
        prefix = edge_prefix(0, 0)
        plankton = Plankton(network).verify(LoopFreedom(destination_prefix=prefix))
        minesweeper = MinesweeperVerifier(network).check_loop_freedom(prefix)
        assert plankton.holds == minesweeper.holds is True

    def test_loop_check_agrees_with_plankton_fail(self):
        network = ospf_everywhere(fat_tree(4))
        install_loop_inducing_statics(
            network, edge_prefix(0, 0), ["agg1_0", "edge1_0", "agg1_1", "edge1_1"]
        )
        prefix = edge_prefix(0, 0)
        plankton = Plankton(network).verify(LoopFreedom(destination_prefix=prefix))
        minesweeper = MinesweeperVerifier(network).check_loop_freedom(prefix)
        assert plankton.holds == minesweeper.holds is False

    def test_reachability_under_failures_finds_cut(self):
        network = ospf_everywhere(
            linear_chain(3), originate_roles=("router",), prefix_for={"r0": Prefix("10.0.0.0/24")}
        )
        result = MinesweeperVerifier(network, max_failures=1).check_reachability(
            Prefix("10.0.0.0/24"), sources=["r2"]
        )
        assert not result.holds
        assert len(result.counterexample_failed_links) == 1

    def test_reachability_holds_in_ring(self):
        network = ospf_everywhere(
            ring(4), originate_roles=("router",), prefix_for={"r0": Prefix("10.0.0.0/24")}
        )
        result = MinesweeperVerifier(network, max_failures=1).check_reachability(
            Prefix("10.0.0.0/24"), sources=["r2"]
        )
        assert result.holds

    def test_ibgp_encoding_builds_network_copies(self):
        from repro.config import ibgp_over_ospf

        topology = ring(5)
        network = ibgp_over_ospf(topology, {"r0": Prefix("200.0.0.0/16")})
        verifier = MinesweeperVerifier(network)
        result = verifier.check_ibgp_reachability(Prefix("200.0.0.0/16"), sources=["r2"])
        assert result.network_copies == len(topology.nodes) + 1
        assert result.holds


class TestArcBaseline:
    def test_all_to_all_holds_without_failures(self):
        network = ospf_everywhere(fat_tree(4))
        prefixes = {edge_prefix(0, 0): ("edge0_0",)}
        result = ArcVerifier(network).check_all_to_all_reachability(prefixes, max_failures=0)
        assert result.holds

    def test_single_failure_resilience_in_fat_tree(self):
        network = ospf_everywhere(fat_tree(4))
        result = ArcVerifier(network).check_reachability_under_failures(
            edge_prefix(0, 0), sources=["edge3_1"], max_failures=1
        )
        assert result.holds

    def test_chain_not_resilient(self):
        network = ospf_everywhere(
            linear_chain(3), originate_roles=("router",), prefix_for={"r0": Prefix("10.0.0.0/24")}
        )
        result = ArcVerifier(network).check_reachability_under_failures(
            Prefix("10.0.0.0/24"), sources=["r2"], max_failures=1
        )
        assert not result.holds

    def test_agrees_with_plankton_on_fat_tree_failures(self):
        network = ospf_everywhere(fat_tree(4))
        prefix = edge_prefix(0, 0)
        policy = Reachability(sources=["edge3_1"], destination_prefix=prefix, any_branch=True)
        plankton = Plankton(network, PlanktonOptions(max_failures=1)).verify(policy)
        arc = ArcVerifier(network).check_reachability_under_failures(prefix, ["edge3_1"], 1)
        assert plankton.holds == arc.holds is True

    def test_builds_one_model_per_pair(self):
        network = ospf_everywhere(fat_tree(4))
        result = ArcVerifier(network).check_all_to_all_reachability(
            {edge_prefix(0, 0): ("edge0_0",)}, max_failures=0
        )
        assert result.pair_models_built == len(network.topology.nodes)

    def test_rejects_local_pref_configs(self):
        topology = bgp_fat_tree(4)
        network = ebgp_rfc7938(topology, waypoints=["agg0_0"], steer_through_waypoints=True)
        with pytest.raises(VerificationError):
            ArcVerifier(network)

    def test_rejects_recursive_static_routes(self):
        builder = ConfigBuilder(linear_chain(2))
        builder.enable_ospf("r0", [Prefix("10.0.0.0/24")])
        builder.enable_ospf("r1")
        add_static_route(builder.network, "r1", Prefix("172.16.0.0/12"), next_hop_ip=Prefix("10.0.0.1/32"))
        with pytest.raises(VerificationError):
            ArcVerifier(builder.build())


class TestSimulationBaseline:
    def test_agrees_on_deterministic_network(self):
        network = ospf_everywhere(fat_tree(4))
        simulation = SimulationVerifier(network).check(LoopFreedom())
        assert simulation.holds

    def test_misses_nondeterministic_violation_that_plankton_finds(self):
        """The Figure 1 point: simulation explores one convergence and can miss
        violations that only some orderings expose."""
        topology = bgp_fat_tree(4)
        network = ebgp_rfc7938(topology, waypoints=["agg0_0"], steer_through_waypoints=False)
        policy = Waypoint(
            sources=["edge0_0"], waypoints=["agg0_0"], destination_prefix=edge_prefix(3, 1)
        )
        plankton = Plankton(network).verify(policy)
        assert not plankton.holds
        verdicts = [SimulationVerifier(network, seed=seed).check(policy).holds for seed in range(6)]
        # At least one simulated ordering converges to a compliant state, i.e.
        # simulation alone would report "holds" for that run.
        assert any(verdicts)


class TestBonsai:
    def test_fat_tree_compression_ratio(self):
        network = ospf_everywhere(fat_tree(4))
        compressed = BonsaiCompressor(network).compress()
        assert compressed.compression_ratio > 1.5
        assert len(compressed.network.topology) < len(network.topology)

    def test_abstraction_maps_every_device(self):
        network = ospf_everywhere(fat_tree(4))
        compressed = BonsaiCompressor(network).compress()
        assert set(compressed.abstraction) == set(network.topology.nodes)

    def test_keep_distinct_pins_devices(self):
        network = ospf_everywhere(fat_tree(4))
        compressed = BonsaiCompressor(network).compress(keep_distinct=["core0"])
        abstract = compressed.abstract_node("core0")
        assert compressed.members[abstract] == ["core0"]

    def test_verification_on_abstract_network_agrees(self):
        network = ospf_everywhere(fat_tree(4))
        prefix = edge_prefix(0, 0)
        policy = Reachability(destination_prefix=prefix, any_branch=True)
        concrete = Plankton(network).verify(policy)
        compressed = BonsaiCompressor(network).compress()
        abstract_result = Plankton(compressed.network).verify(
            Reachability(destination_prefix=prefix, any_branch=True)
        )
        assert concrete.holds == abstract_result.holds is True

    def test_translate_nodes(self):
        network = ospf_everywhere(fat_tree(4))
        compressed = BonsaiCompressor(network).compress()
        translated = compressed.translate_nodes(["core0", "core1", "core2", "core3"])
        assert len(translated) >= 1
