"""End-to-end verifier tests: the paper's §5 correctness scenarios in miniature."""

import itertools
import logging

import pytest

from repro import OptimizationFlags, Plankton, PlanktonOptions
from repro.config import ConfigBuilder, ebgp_rfc7938, ibgp_over_ospf, ospf_everywhere
from repro.config.builder import edge_prefix, install_loop_inducing_statics
from repro.config.objects import (
    MatchConditions,
    OspfInterface,
    RouteMap,
    RouteMapClause,
    SetActions,
)
from repro.core.network_model import DependencyContext, PecExplorer
from repro.exceptions import VerificationError
from repro.incremental.service import SIGNATURE_EXCLUDED, result_signature_digest
from repro.modelcheck.explorer import COMPLETE, VACUOUS
from repro.netaddr import Prefix
from repro.pec.classes import compute_pecs
from repro.policies import (
    BlackHoleFreedom,
    BoundedPathLength,
    LoopFreedom,
    MultipathConsistency,
    PathConsistency,
    Policy,
    Reachability,
    Waypoint,
)
from repro.protocols.ospf import OspfRoutingTable
from repro.protocols.ospf_instance import OspfInstance
from repro.topology import (
    Topology,
    bgp_fat_tree,
    fat_tree,
    ring,
    rocketfuel_like,
)
from repro.topology.failures import FailureScenario
from tests.helpers import add_static_route, entry_for, linear_chain


class TestOspfFatTree:
    """The Figure 7(a)/(b) scenarios at small scale."""

    def test_loop_freedom_holds(self):
        network = ospf_everywhere(fat_tree(4))
        result = Plankton(network).verify(LoopFreedom())
        assert result.holds
        assert result.pecs_analyzed == 8

    def test_loop_freedom_violated_by_static_cycle(self):
        network = ospf_everywhere(fat_tree(4))
        install_loop_inducing_statics(
            network, edge_prefix(0, 0), ["agg1_0", "edge1_0", "agg1_1", "edge1_1"]
        )
        result = Plankton(network).verify(LoopFreedom())
        assert not result.holds
        violation = result.first_violation()
        assert violation.policy == "loop-freedom"
        assert "loop" in violation.message.lower()

    def test_consistent_static_routes_keep_policy(self):
        """Static routes matching what OSPF computes do not create loops
        (the paper's first 'pass' variant)."""
        network = ospf_everywhere(fat_tree(4))
        # core0 reaches edge0_0's prefix via agg0_0 under OSPF; install the same.
        network.device("core0").static_routes.append(
            __import__("repro.config.objects", fromlist=["StaticRoute"]).StaticRoute(
                prefix=edge_prefix(0, 0), next_hop_node="agg0_0"
            )
        )
        result = Plankton(network).verify(LoopFreedom())
        assert result.holds

    def test_single_ip_reachability(self):
        network = ospf_everywhere(fat_tree(4))
        policy = Reachability(destination_prefix=edge_prefix(0, 0), require_all_branches=False)
        result = Plankton(network).verify(policy)
        assert result.holds
        assert result.pecs_analyzed == 1

    def test_blackhole_freedom_holds(self):
        network = ospf_everywhere(fat_tree(4))
        result = Plankton(network).verify(BlackHoleFreedom())
        assert result.holds

    def test_bounded_path_length(self):
        network = ospf_everywhere(fat_tree(4))
        good = Plankton(network).verify(BoundedPathLength(max_hops=4))
        assert good.holds
        bad = Plankton(network).verify(BoundedPathLength(max_hops=2))
        assert not bad.holds

    def test_multiple_policies_in_one_run(self):
        network = ospf_everywhere(fat_tree(4))
        result = Plankton(network).verify([LoopFreedom(), BlackHoleFreedom()])
        assert result.holds
        assert set(result.policy_names) == {"loop-freedom", "blackhole-freedom"}


class TestFailures:
    def test_reachability_survives_single_failure_in_ring(self):
        network = ospf_everywhere(
            ring(5), originate_roles=("router",), prefix_for={"r0": Prefix("10.0.0.0/24")}
        )
        options = PlanktonOptions(max_failures=1)
        result = Plankton(network, options).verify(
            Reachability(sources=["r2"], require_all_branches=False)
        )
        assert result.holds
        assert result.failure_scenarios > 1

    def test_reachability_violated_on_chain_failure(self):
        network = ospf_everywhere(
            linear_chain(3), originate_roles=("router",), prefix_for={"r0": Prefix("10.0.0.0/24")}
        )
        options = PlanktonOptions(max_failures=1)
        result = Plankton(network, options).verify(
            Reachability(sources=["r2"], require_all_branches=False)
        )
        assert not result.holds
        assert "failed" in result.first_violation().failure_description

    def test_two_failures_break_ring(self):
        network = ospf_everywhere(
            ring(5), originate_roles=("router",), prefix_for={"r0": Prefix("10.0.0.0/24")}
        )
        result = Plankton(network, PlanktonOptions(max_failures=2)).verify(
            Reachability(sources=["r2"], require_all_branches=False)
        )
        assert not result.holds

    def test_failure_equivalence_reduces_scenarios(self):
        network = ospf_everywhere(fat_tree(4))
        policy = Reachability(destination_prefix=edge_prefix(0, 0), require_all_branches=False)
        reduced = Plankton(network, PlanktonOptions(max_failures=1)).verify(policy)
        full_options = PlanktonOptions(
            max_failures=1,
            optimizations=OptimizationFlags().without(failure_equivalence=True),
        )
        full = Plankton(network, full_options).verify(policy)
        assert reduced.holds == full.holds
        assert reduced.failure_scenarios < full.failure_scenarios

    #: ``a`` and ``b`` sit alike between ``s`` and ``d``; the two orders in
    #: which their links can be declared.
    SQUARE_ORDERS = [
        pytest.param([("s", "b"), ("s", "a"), ("b", "d"), ("a", "d")], id="b-links-first"),
        pytest.param([("s", "a"), ("s", "b"), ("a", "d"), ("b", "d")], id="a-links-first"),
    ]

    @staticmethod
    def _network(links, ospf=("s", "a", "b", "d")):
        topology = Topology("router-and-bystander")
        for name in ("s", "a", "b", "d", "x", "y"):
            if any(name in link for link in links):
                topology.add_node(name)
        for one, other in links:
            topology.add_link(one, other)
        builder = ConfigBuilder(topology)
        for name in ospf:
            builder.enable_ospf(name, [Prefix("10.0.0.0/24")] if name == "d" else ())
        return builder.build()

    @staticmethod
    def _reduction_keeps_the_violations(network, policy, expected):
        """The reduced run finds the violations the unreduced run finds."""

        def violating(flags):
            options = PlanktonOptions(
                max_failures=1, stop_at_first_violation=False, optimizations=flags
            )
            result = Plankton(network, options).verify(policy)
            return result.holds, {
                (violation.pec_index, violation.failure_description)
                for violation in result.violations
            }

        unreduced = violating(OptimizationFlags().without(failure_equivalence=True))
        assert unreduced == (False, expected)
        assert violating(OptimizationFlags()) == unreduced

    @pytest.mark.parametrize("links", SQUARE_ORDERS)
    def test_failure_equivalence_tells_a_router_from_a_bystander(self, links):
        """Only ``a`` runs OSPF: losing either ``a`` link cuts ``s`` off,
        losing a ``b`` link changes nothing.  The device colour reads the
        processes a device runs, so the reduction keeps ``a`` and ``b``
        apart whichever link it meets first."""
        network = self._network(links, ospf=("s", "a", "d"))
        self._reduction_keeps_the_violations(
            network, Reachability(sources=["s"]), {(0, "failed: a--d"), (0, "failed: s--a")}
        )

    @pytest.mark.parametrize("links", SQUARE_ORDERS)
    def test_failure_equivalence_tells_a_passive_interface_apart(self, links):
        """Both run OSPF, but ``b``'s interface towards ``d`` is passive, so
        ``b`` forms no adjacency with ``d``: as with the bystander, only the
        ``a`` links matter.  The passive flag is part of the link's weight
        pair in the refinement."""
        network = self._network(links)
        network.device("b").ospf.interfaces["d"] = OspfInterface("d", passive=True)
        self._reduction_keeps_the_violations(
            network, Reachability(sources=["s"]), {(0, "failed: a--d"), (0, "failed: s--a")}
        )

    @pytest.mark.parametrize(
        "links",
        [
            pytest.param(
                [("s", "b"), ("s", "a"), ("b", "d"), ("a", "d"), ("b", "y"), ("y", "d"),
                 ("a", "x"), ("x", "d")],
                id="b-links-first",
            ),
            pytest.param(
                [("s", "a"), ("s", "b"), ("a", "d"), ("b", "d"), ("a", "x"), ("x", "d"),
                 ("b", "y"), ("y", "d")],
                id="a-links-first",
            ),
        ],
    )
    def test_failure_equivalence_tells_a_cost_override_apart(self, links):
        """``a`` and ``b`` each reach ``d`` directly and through a detour, but
        ``b`` prices its direct link at 10, so ``s`` forwards through ``a``
        in two hops.  Losing an ``a`` link leaves only three-hop paths;
        losing a ``b`` link changes nothing.  The cost override is part of
        the link's weight pair in the refinement."""
        network = self._network(links, ospf=("s", "a", "b", "d", "x", "y"))
        network.device("b").ospf.interfaces["d"] = OspfInterface("d", cost=10)
        self._reduction_keeps_the_violations(
            network,
            BoundedPathLength(max_hops=2, sources=["s"]),
            {(0, "failed: a--d"), (0, "failed: s--a")},
        )


class TestBgpDataCenter:
    """The Figure 7(c) scenario: non-deterministic BGP convergence."""

    def _policy(self, topology, waypoints):
        return Waypoint(
            sources=["edge0_0"],
            waypoints=waypoints,
            destination_prefix=edge_prefix(3, 1),
        )

    def test_misconfigured_waypoint_violated(self):
        topology = bgp_fat_tree(4)
        network = ebgp_rfc7938(topology, waypoints=["agg0_0"], steer_through_waypoints=False)
        result = Plankton(network).verify(self._policy(topology, ["agg0_0"]))
        assert not result.holds
        violation = result.first_violation()
        assert violation.trail is not None and len(violation.trail) > 1

    def test_steered_waypoint_holds(self):
        topology = bgp_fat_tree(4)
        network = ebgp_rfc7938(topology, waypoints=["agg0_0"], steer_through_waypoints=True)
        result = Plankton(network).verify(self._policy(topology, ["agg0_0"]))
        assert result.holds

    def test_bgp_reachability_holds(self):
        topology = bgp_fat_tree(4)
        network = ebgp_rfc7938(topology)
        policy = Reachability(
            sources=["edge0_0"], destination_prefix=edge_prefix(3, 1), require_all_branches=False
        )
        result = Plankton(network).verify(policy)
        assert result.holds


class TestIbgpOverOspf:
    """The Figure 7(e) scenario: PEC dependencies resolved by the scheduler."""

    def test_reachability_through_recursion(self):
        topology = ring(6)
        network = ibgp_over_ospf(topology, {"r0": Prefix("200.0.0.0/16")})
        policy = Reachability(
            destination_prefix=Prefix("200.0.0.0/16"), require_all_branches=False
        )
        result = Plankton(network).verify(policy)
        assert result.holds

    def test_route_reflector_variant(self):
        topology = rocketfuel_like("AS1755", size=20, seed=5)
        network = ibgp_over_ospf(
            topology,
            {sorted(topology.nodes)[0]: Prefix("200.0.0.0/16")},
            route_reflectors=topology.nodes_by_role("backbone")[:2],
        )
        policy = Reachability(
            destination_prefix=Prefix("200.0.0.0/16"), require_all_branches=False
        )
        result = Plankton(network).verify(policy)
        assert result.holds

    def test_recursive_static_route_dependency(self):
        topology = linear_chain(3)
        builder = ConfigBuilder(topology)
        builder.enable_ospf("r0", [Prefix("10.0.1.0/24")])
        builder.enable_ospf("r1")
        builder.enable_ospf("r2")
        add_static_route(builder.network, "r2", Prefix("172.16.0.0/12"), next_hop_ip=Prefix("10.0.1.1/32"))
        add_static_route(builder.network, "r1", Prefix("172.16.0.0/12"), next_hop_node="r0")
        add_static_route(builder.network, "r0", Prefix("172.16.0.0/12"), drop=True)
        network = builder.build()
        policy = LoopFreedom(destination_prefix=Prefix("172.16.0.0/12"))
        result = Plankton(network).verify(policy)
        assert result.holds


class TestOptimizationFlags:
    """The Figure 8 ablations at unit-test scale: results agree, effort differs."""

    def _ring_network(self):
        return ospf_everywhere(
            ring(4), originate_roles=("router",), prefix_for={"r0": Prefix("10.0.0.0/24")}
        )

    def test_naive_model_checking_agrees_with_optimized(self):
        network = self._ring_network()
        policy = Reachability(sources=["r2"], require_all_branches=False)
        optimized = Plankton(network, PlanktonOptions(max_failures=1)).verify(policy)
        naive_options = PlanktonOptions(
            max_failures=1,
            optimizations=OptimizationFlags.none_enabled(),
            fast_ospf=False,
        )
        naive = Plankton(network, naive_options).verify(policy)
        assert optimized.holds == naive.holds
        assert naive.total_states_expanded > optimized.total_states_expanded

    def test_model_checked_ospf_agrees_with_fast_path(self):
        """The search answers: it runs to completion, reaches the one
        converged state SPF predicts (each accepted state is checked against
        the table), and a budget that cuts it short leaves no HOLDS."""
        network = ospf_everywhere(fat_tree(4))
        policy = LoopFreedom(destination_prefix=edge_prefix(0, 0))
        fast = Plankton(network, PlanktonOptions(fast_ospf=True)).verify(policy)
        slow = Plankton(network, PlanktonOptions(fast_ospf=False)).verify(policy)
        assert fast.verdict == slow.verdict == "holds"
        (run,) = slow.pec_runs
        assert run.completeness == COMPLETE
        assert (run.statistics.terminal_states, run.statistics.states_expanded) == (1, 20)
        cut = Plankton(network, PlanktonOptions(fast_ospf=False, max_states_per_pec=1)).verify(policy)
        assert cut.verdict == "inconclusive"
        assert [run.completeness for run in cut.pec_runs] == ["truncated"]

    def test_model_checked_ospf_origins_are_the_prefix_originators(self):
        """A device that originates a covering prefix does not originate the
        more specific one: the model-checked OSPF instance and SPF agree on
        who originates 10.1.0.0/16 (they did not, and the agreement check
        failed the task)."""
        builder = ConfigBuilder(ring(4))
        builder.enable_ospf("r0", [Prefix("10.0.0.0/8")])
        builder.enable_ospf("r1")
        builder.enable_ospf("r2", [Prefix("10.1.0.0/16")])
        builder.enable_ospf("r3")
        network = builder.build()
        assert OspfInstance(network, Prefix("10.1.0.0/16")).origins() == ["r2"]
        slow = Plankton(network, PlanktonOptions(fast_ospf=False, backend="serial")).verify(
            LoopFreedom()
        )
        assert slow.verdict == "holds" and not slow.errors
        assert all(run.completeness == COMPLETE for run in slow.pec_runs)

    def test_a_search_that_disagrees_with_spf_is_an_internal_error(self):
        network = ospf_everywhere(fat_tree(4))
        prefix = edge_prefix(0, 0)
        pec = next(pec for pec in compute_pecs(network) if pec.prefixes == (prefix,))
        explorer = PecExplorer(network, pec, FailureScenario(), PlanktonOptions(fast_ospf=False))
        tables = explorer._plane_inputs.ospf_tables
        table = tables[prefix]
        distances = dict(table.distances, agg0_1=table.distances["agg0_1"] + 1)
        tables[prefix] = OspfRoutingTable(distances, table.next_hops, table.chosen_origin)
        with pytest.raises(VerificationError, match="disagrees with SPF on 10.0.0.0/24 at agg0_1"):
            explorer.explore()

    def test_bgp_without_deterministic_nodes_agrees(self):
        topology = bgp_fat_tree(4)
        network = ebgp_rfc7938(topology, waypoints=["agg0_0"], steer_through_waypoints=False)
        policy = Waypoint(
            sources=["edge0_0"], waypoints=["agg0_0"], destination_prefix=edge_prefix(3, 1)
        )
        default = Plankton(network).verify(policy)
        no_det = Plankton(
            network,
            PlanktonOptions(optimizations=OptimizationFlags().without(deterministic_nodes=True)),
        ).verify(policy)
        assert default.holds == no_det.holds is False

    def test_bitstate_hashing_still_finds_violation(self):
        """The violation is read off the SPF planes; the search behind it is
        hash-compacted, says so, and answers for its one converged state."""
        network = ospf_everywhere(fat_tree(4))
        install_loop_inducing_statics(
            network, edge_prefix(0, 0), ["agg1_0", "edge1_0", "agg1_1", "edge1_1"]
        )
        options = PlanktonOptions(
            optimizations=OptimizationFlags(bitstate_hashing=True), fast_ospf=False
        )
        result = Plankton(network, options).verify(LoopFreedom())
        assert result.verdict == "violated"
        (run,) = result.pec_runs
        assert run.completeness == "bitstate"
        assert (run.statistics.terminal_states, run.statistics.states_expanded) == (1, 20)

    def test_without_helper(self):
        flags = OptimizationFlags().without(deterministic_nodes=True, policy_based_pruning=True)
        assert not flags.deterministic_nodes
        assert not flags.policy_based_pruning
        assert flags.consistent_execution


class TestResultsAndApi:
    def test_requires_at_least_one_policy(self):
        network = ospf_everywhere(fat_tree(4))
        with pytest.raises(VerificationError):
            Plankton(network).verify([])

    def test_summary_mentions_policy_and_verdict(self):
        network = ospf_everywhere(fat_tree(4))
        result = Plankton(network).verify(LoopFreedom())
        summary = result.summary()
        assert "loop-freedom" in summary and "HOLDS" in summary

    def test_violation_render_includes_trail(self):
        network = ospf_everywhere(fat_tree(4))
        install_loop_inducing_statics(
            network, edge_prefix(0, 0), ["agg1_0", "edge1_0", "agg1_1", "edge1_1"]
        )
        result = Plankton(network).verify(LoopFreedom())
        text = result.first_violation().render()
        assert "policy" in text and "loop" in text.lower()

    def test_stop_at_first_violation_vs_all(self):
        network = ospf_everywhere(fat_tree(4))
        install_loop_inducing_statics(
            network, edge_prefix(0, 0), ["agg1_0", "edge1_0", "agg1_1", "edge1_1"]
        )
        install_loop_inducing_statics(
            network, edge_prefix(0, 1), ["agg2_0", "edge2_0", "agg2_1", "edge2_1"]
        )
        first_only = Plankton(network, PlanktonOptions(stop_at_first_violation=True)).verify(LoopFreedom())
        all_of_them = Plankton(network, PlanktonOptions(stop_at_first_violation=False)).verify(LoopFreedom())
        assert len(first_only.violations) == 1
        assert len(all_of_them.violations) >= 2

    def test_run_pec_returns_the_converged_data_planes(self):
        from repro.core.network_model import DependencyContext, PecExplorer
        from repro.topology.failures import FailureScenario

        network = ospf_everywhere(fat_tree(4))
        plankton = Plankton(network)
        pec = next(pec for pec in plankton.pecs if pec.ospf_origins)
        run, outcomes = plankton.run_pec(
            pec, FailureScenario(), [LoopFreedom()], DependencyContext(), collect_outcomes=True
        )
        assert not run.violations
        assert len(outcomes) == run.converged_states >= 1
        assert all(outcome.data_plane.pec_range == pec.address_range for outcome in outcomes)

    def test_parallel_cores_match_serial(self):
        network = ospf_everywhere(fat_tree(4))
        serial = Plankton(network, PlanktonOptions(stop_at_first_violation=False)).verify(LoopFreedom())
        parallel = Plankton(
            network, PlanktonOptions(cores=2, stop_at_first_violation=False)
        ).verify(LoopFreedom())
        assert serial.holds == parallel.holds
        assert len(serial.pec_runs) == len(parallel.pec_runs)


# --------------------------------------------------------------------------- one road
def bad_gadget():
    """BAD GADGET: origin ``o`` (AS 100) plus a triangle ``n1..n3``.

    Routes learned from ``o`` are tagged ``d``.  Every triangle node prefers
    (local-pref 200) what its clockwise neighbour advertises, but imports it
    only while it still carries the tag — i.e. only while that neighbour uses
    its own direct route — and strips the tag; the other direction is denied.
    No assignment of best paths is stable.
    """
    triangle = ["n1", "n2", "n3"]
    topology = Topology("bad-gadget")
    for name in ["o"] + triangle:
        topology.add_node(name, role="router")
    for position, name in enumerate(triangle):
        topology.add_link("o", name)
        topology.add_link(name, triangle[(position + 1) % 3])
    builder = ConfigBuilder(topology)
    builder.enable_bgp("o", 100, [Prefix("10.9.0.0/24")])
    tagged = MatchConditions(communities=["d"])
    prefer = SetActions(local_preference=200, remove_communities=["d"])
    for position, name in enumerate(triangle):
        builder.enable_bgp(name, position + 1)
        builder.route_map(
            "FROM_O", name, RouteMap("FROM_O", [RouteMapClause(10, actions=SetActions(add_communities=["d"]))])
        )
        builder.route_map("FROM_CW", name, RouteMap("FROM_CW", [RouteMapClause(10, match=tagged, actions=prefer)]))
        builder.route_map("DENY", name, RouteMap("DENY", [RouteMapClause(10, permit=False)]))
    for position, name in enumerate(triangle):
        builder.bgp_session(name, "o", import_map_a="FROM_O")
        builder.bgp_session(
            name, triangle[(position + 1) % 3], import_map_a="FROM_CW", import_map_b="DENY"
        )
    return builder.build()


class TestNoConvergedState:
    """A configuration without a stable state checks nothing — on every road
    — and says so in the verdict: each run is ``vacuous`` and the request
    ``inconclusive``, instead of passing silently or inventing a data plane."""

    @staticmethod
    def _assert_vacuous(runs, caplog):
        for run in runs:
            assert run.converged_states == run.checked_states == 0
            assert not run.violations
            assert run.statistics.truncated is False
            assert run.completeness == VACUOUS
        assert len(runs) == 1
        # The record carries it: no log line on the side.
        assert not [r for r in caplog.records if r.name == "repro.core"]

    @pytest.mark.parametrize("fast_ospf", [True, False])
    def test_verify_is_inconclusive(self, fast_ospf, caplog):
        plankton = Plankton(bad_gadget(), PlanktonOptions(fast_ospf=fast_ospf))
        with caplog.at_level(logging.WARNING, logger="repro.core"):
            result = plankton.verify(Reachability(sources=["n1"]))
        assert result.holds and result.total_converged_states == 0
        assert result.verdict == "inconclusive"
        assert result.summary().startswith(
            "policies reachability: INCONCLUSIVE (1 run(s) vacuous);"
        )
        self._assert_vacuous(result.pec_runs, caplog)

    def test_run_pec_with_dependents_agrees(self, caplog):
        plankton = Plankton(bad_gadget())
        (pec,) = [pec for pec in plankton.pecs if pec.has_bgp()]
        with caplog.at_level(logging.WARNING, logger="repro.core"):
            run, outcomes = plankton.run_pec(
                pec,
                FailureScenario(),
                [Reachability(sources=["n1"])],
                DependencyContext(),
                collect_outcomes=True,
            )
        assert outcomes == []
        self._assert_vacuous([run], caplog)

    def test_converging_configurations_are_conclusive(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.core"):
            result = Plankton(ebgp_rfc7938(bgp_fat_tree(4))).verify(
                Reachability(sources=["edge0_0"], destination_prefix=edge_prefix(3, 1))
            )
        assert result.verdict == "holds"
        assert all(run.completeness == COMPLETE for run in result.pec_runs)
        assert not caplog.records


class TestHaltsAtAFixedPoint:
    """A fully converged state is accepted as it is.  At an RPVP fixed point
    no node is enabled, so no undecided peer will ever advertise: a stability
    check there could only reject a real converged state."""

    @staticmethod
    def _violations(flags):
        result = Plankton(
            bad_gadget(),
            PlanktonOptions(max_failures=1, stop_at_first_violation=False, optimizations=flags),
        ).verify(Reachability(sources=["n1"]))
        return result, {(v.failure_description, v.message) for v in result.violations}

    def test_bad_gadget_with_o_n1_failed_is_the_unoptimised_violation(self):
        # With o--n1 down the gadget has a stable state, and in it n1 holds
        # no route.
        default, found = self._violations(OptimizationFlags())
        _unoptimised, expected = self._violations(OptimizationFlags.none_enabled())
        assert not default.holds and default.total_converged_states == 4
        assert found == expected
        ((failure, message),) = found
        assert failure == "failed: o--n1" and "n1 [blackhole]" in message


class TestFastOspfIsNotASecondRoad:
    """Without an OSPF-originated prefix ``fast_ospf`` has nothing to change:
    the whole result — counts and exploration statistics included — is the
    same document."""

    @pytest.mark.parametrize("stop_at_first", [True, False])
    @pytest.mark.parametrize("violating", [False, True])
    def test_bgp_fabric_result_is_independent_of_fast_ospf(self, violating, stop_at_first):
        digests = set()
        for fast_ospf in (True, False):
            network = ebgp_rfc7938(bgp_fat_tree(4))
            if violating:
                install_loop_inducing_statics(
                    network, edge_prefix(0, 0), ["agg1_0", "edge1_0", "agg1_1", "edge1_1"]
                )
            options = PlanktonOptions(fast_ospf=fast_ospf, stop_at_first_violation=stop_at_first)
            result = Plankton(network, options).verify(
                LoopFreedom(destination_prefix=edge_prefix(0, 0))
            )
            assert result.holds is not violating
            digests.add(result_signature_digest(result))
        assert len(digests) == 1


class _EveryPlane(Policy):
    """Sees every converged data plane (no sources, no signature
    suppression) and fails the ``fail_at``-th one."""

    name = "every-plane"

    def __init__(self, fail_at=None):
        self.fail_at = fail_at
        self.planes = []

    def check(self, context):
        self.planes.append(context.data_plane)
        return "the k-th outcome" if len(self.planes) == self.fail_at else None


class TestMultiPrefixPec:
    """A PEC with two BGP prefixes: the first prefix's search is streamed and
    each of its converged states crossed with the second prefix's list."""

    WIDE = Prefix("10.0.0.0/16")

    def _fabric(self, **options):
        network = ebgp_rfc7938(bgp_fat_tree(4))
        edge = network.device("edge1_0")
        edge.bgp.networks.append(self.WIDE)
        edge.route_maps["EXPORT_OWN"].clauses[0].match.prefixes.append(self.WIDE)
        plankton = Plankton(network, PlanktonOptions(**options))
        pec = next(pec for pec in plankton.pecs if len(pec.bgp_origins) == 2)
        # Two dead core switches keep the product small (16 x 2 outcomes).
        dead = {link.link_id for core in ("core2", "core3") for link in network.topology.edges(core)}
        return plankton, pec, FailureScenario(tuple(sorted(dead)))

    @staticmethod
    def _run(plankton, pec, failure, policy, collect_outcomes):
        return plankton.run_pec(
            pec, failure, [policy], DependencyContext(), collect_outcomes=collect_outcomes
        )

    def test_outcomes_are_the_product_first_prefix_slowest(self):
        plankton, pec, failure = self._fabric(stop_at_first_violation=False)
        first, second = (prefix for prefix, _devices in pec.bgp_origins)
        streamed, upstream = _EveryPlane(), _EveryPlane()
        run, kept = self._run(plankton, pec, failure, streamed, collect_outcomes=False)
        upstream_run, outcomes = self._run(plankton, pec, failure, upstream, collect_outcomes=True)

        # Independent PEC and PEC with dependents: the same planes in the
        # same order, the same run document.
        assert kept == []
        planes = [outcome.data_plane.to_dict() for outcome in outcomes]
        assert planes == [plane.to_dict() for plane in streamed.planes]
        assert planes == [plane.to_dict() for plane in upstream.planes]
        assert run.to_dict(SIGNATURE_EXCLUDED) == upstream_run.to_dict(SIGNATURE_EXCLUDED)
        assert run.converged_states == run.checked_states == len(planes)

        def forwarding_for(plane, prefix):
            entries = ((device, entry_for(plane.fib(device), prefix)) for device in plane.devices())
            return tuple((device, entry and entry.next_hops) for device, entry in entries)

        pairs = [
            (forwarding_for(outcome.data_plane, first), forwarding_for(outcome.data_plane, second))
            for outcome in outcomes
        ]
        of_first = list(dict.fromkeys(a for a, _b in pairs))
        of_second = list(dict.fromkeys(b for _a, b in pairs))
        assert len(of_first) > 1 and len(of_second) > 1
        assert pairs == list(itertools.product(of_first, of_second))

    @pytest.mark.parametrize("collect_outcomes", [False, True])
    def test_stop_at_first_counts_through_the_violating_outcome(self, collect_outcomes):
        plankton, pec, failure = self._fabric()
        everything, _ = self._run(plankton, pec, failure, _EveryPlane(), collect_outcomes)
        k = 5
        run, outcomes = self._run(plankton, pec, failure, _EveryPlane(fail_at=k), collect_outcomes)
        assert run.converged_states == run.checked_states == k
        assert [violation.message for violation in run.violations] == ["the k-th outcome"]
        if collect_outcomes:
            # Downstream PECs need every outcome: searched to the end.
            assert len(outcomes) == everything.converged_states
            assert run.statistics.states_expanded == everything.statistics.states_expanded
        else:
            assert outcomes == []
            assert run.statistics.states_expanded < everything.statistics.states_expanded
