"""Engine equivalence: serial and parallel backends produce identical results.

The execution engine's contract is that backend choice is invisible in the
verdict: on the same task graph, the serial walk and the process pool must
report the same violations (same order — the verdict is folded from the
ledger's ordered prefix, in task-graph order), the same per-PEC runs and the
same state counters, on both independent and dependent PEC topologies.  That
holds under early stop too: which tasks *complete* on the pool is
timing-dependent, but the prefix up to the first violating task is not.
"""

import multiprocessing

import pytest

from repro import Plankton, PlanktonOptions, VerificationResult
from repro.config import ibgp_over_ospf, ospf_everywhere
from repro.config.builder import ConfigBuilder, edge_prefix, install_loop_inducing_statics
from repro.core.results import PecRunResult
from repro.engine import (
    EngineContext,
    ProcessPoolBackend,
    SerialBackend,
    build_task_graph,
    run_graph,
    select_backend,
)
from repro.incremental.service import result_signature
from repro.netaddr import Prefix
from repro.policies import LoopFreedom, Reachability
from repro.policies.base import Policy
from repro.topology import fat_tree, ring
from repro.topology.failures import FailureScenario
from tests.helpers import add_static_route, dependents, linear_chain, validate_task_graph

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _clean_network():
    return ospf_everywhere(fat_tree(4))


def _violating_network():
    network = ospf_everywhere(fat_tree(4))
    install_loop_inducing_statics(
        network, edge_prefix(0, 0), ["agg1_0", "edge1_0", "agg1_1", "edge1_1"]
    )
    install_loop_inducing_statics(
        network, edge_prefix(0, 1), ["agg2_0", "edge2_0", "agg2_1", "edge2_1"]
    )
    return network


def _dependent_network():
    return ibgp_over_ospf(ring(6), {"r0": Prefix("200.0.0.0/16")})


def _static_chain_network():
    topology = linear_chain(3)
    builder = ConfigBuilder(topology)
    builder.enable_ospf("r0", [Prefix("10.0.1.0/24")])
    builder.enable_ospf("r1")
    builder.enable_ospf("r2")
    add_static_route(builder.network, "r2", Prefix("172.16.0.0/12"), next_hop_ip=Prefix("10.0.1.1/32"))
    add_static_route(builder.network, "r1", Prefix("172.16.0.0/12"), next_hop_node="r0")
    add_static_route(builder.network, "r0", Prefix("172.16.0.0/12"), drop=True)
    return builder.build()


def _assert_identical(serial: VerificationResult, parallel: VerificationResult):
    assert serial.holds == parallel.holds
    assert serial.pecs_analyzed == parallel.pecs_analyzed
    assert serial.failure_scenarios == parallel.failure_scenarios
    assert len(serial.pec_runs) == len(parallel.pec_runs)
    assert [(r.pec_index, r.failure, r.converged_states, r.checked_states) for r in serial.pec_runs] == [
        (r.pec_index, r.failure, r.converged_states, r.checked_states) for r in parallel.pec_runs
    ]
    assert [(v.policy, v.pec_index, v.message) for v in serial.violations] == [
        (v.policy, v.pec_index, v.message) for v in parallel.violations
    ]
    assert serial.total_converged_states == parallel.total_converged_states
    assert serial.total_states_expanded == parallel.total_states_expanded
    assert serial.total_unique_states == parallel.total_unique_states


# --------------------------------------------------------------------------- graph builder
class TestTaskGraphBuilder:
    def test_independent_network_builds_edge_free_graph(self):
        plankton = Plankton(_clean_network())
        policies = [LoopFreedom()]
        relevant = [p for p in plankton.pecs if policies[0].applies_to(p)]
        graph = build_task_graph(
            plankton.symmetry, plankton.pecs, plankton.dependency_graph,
            policies, plankton.options, relevant,
        )
        validate_task_graph(graph)
        assert len(graph) == len(relevant)  # one scenario each (no failures)
        assert not graph.has_edges
        assert all(task.check_policies and not task.collect_outcomes for task in graph.tasks)

    def test_dependent_network_builds_edges_from_scc_schedule(self):
        plankton = Plankton(_dependent_network())
        policy = Reachability(destination_prefix=Prefix("200.0.0.0/16"), any_branch=True)
        relevant = [p for p in plankton.pecs if policy.applies_to(p)]
        graph = build_task_graph(
            plankton.symmetry, plankton.pecs, plankton.dependency_graph,
            [policy], plankton.options, relevant,
        )
        validate_task_graph(graph)
        assert graph.has_edges
        by_id = {task.task_id: task for task in graph.tasks}
        for task in graph.tasks:
            for dependency_id in task.depends_on:
                upstream = by_id[dependency_id]
                # Every edge follows a PEC dependency, and the upstream task
                # materialises its converged data planes.
                assert upstream.collect_outcomes
                assert upstream.pec_index in plankton.dependency_graph.dependencies_of(
                    task.pec_index
                )

    def test_dependent_graph_shares_failure_scenarios(self):
        plankton = Plankton(_dependent_network(), PlanktonOptions(max_failures=1))
        policy = Reachability(destination_prefix=Prefix("200.0.0.0/16"), any_branch=True)
        relevant = [p for p in plankton.pecs if policy.applies_to(p)]
        graph = build_task_graph(
            plankton.symmetry, plankton.pecs, plankton.dependency_graph,
            [policy], plankton.options, relevant,
        )
        validate_task_graph(graph)
        assert graph.failure_scenarios == 1 + len(plankton.network.topology.links)

    def test_each_task_waits_for_every_dependency_in_an_earlier_scc(self):
        """Figure 5 with two BGP origins: under every failure, a PEC's task has
        an edge to the same failure's task of each PEC it depends on that the
        SCC schedule puts first."""
        network = ibgp_over_ospf(
            ring(5), {"r0": Prefix("200.0.0.0/16"), "r2": Prefix("201.0.0.0/16")}
        )
        plankton = Plankton(network, PlanktonOptions(max_failures=1))
        policy = Reachability(any_branch=True)
        relevant = [p for p in plankton.pecs if policy.applies_to(p)]
        dependencies = plankton.dependency_graph
        graph = build_task_graph(
            plankton.symmetry, plankton.pecs, dependencies, [policy], plankton.options, relevant
        )
        validate_task_graph(graph)
        scc_of = {index: i for i, scc in enumerate(dependencies.schedule()) for index in scc}
        by_id = {task.task_id: task for task in graph.tasks}
        waited = 0
        for task in graph.tasks:
            upstream = {
                by_id[dependency].pec_index
                for dependency in task.depends_on
                if by_id[dependency].failure == task.failure
            }
            earlier = {
                index
                for index in dependencies.dependencies_of(task.pec_index)
                if scc_of[index] < scc_of[task.pec_index]
            }
            assert earlier <= upstream
            waited += len(earlier)
        assert waited


# --------------------------------------------------------------------------- equivalence
class TestBackendEquivalence:
    def test_independent_clean_network(self):
        network = _clean_network()
        serial = Plankton(network, PlanktonOptions(stop_at_first_violation=False)).verify(
            LoopFreedom()
        )
        parallel = Plankton(
            network, PlanktonOptions(cores=2, stop_at_first_violation=False)
        ).verify(LoopFreedom())
        _assert_identical(serial, parallel)
        assert serial.holds

    def test_independent_violating_network(self):
        network = _violating_network()
        serial = Plankton(network, PlanktonOptions(stop_at_first_violation=False)).verify(
            LoopFreedom()
        )
        parallel = Plankton(
            network, PlanktonOptions(cores=2, stop_at_first_violation=False)
        ).verify(LoopFreedom())
        _assert_identical(serial, parallel)
        assert not serial.holds
        assert len(serial.violations) >= 2

    def test_dependent_ibgp_network(self):
        network = _dependent_network()
        policy = Reachability(destination_prefix=Prefix("200.0.0.0/16"), any_branch=True)
        serial = Plankton(network, PlanktonOptions(stop_at_first_violation=False)).verify(policy)
        parallel = Plankton(
            network, PlanktonOptions(cores=2, stop_at_first_violation=False)
        ).verify(policy)
        _assert_identical(serial, parallel)
        assert serial.holds

    def test_dependent_static_chain_with_failures(self):
        network = _static_chain_network()
        policy = LoopFreedom(destination_prefix=Prefix("172.16.0.0/12"))
        options = dict(max_failures=1, stop_at_first_violation=False)
        serial = Plankton(network, PlanktonOptions(**options)).verify(policy)
        parallel = Plankton(network, PlanktonOptions(cores=2, **options)).verify(policy)
        _assert_identical(serial, parallel)

    def test_early_stop_agrees_on_verdict_and_runs_parallel(self):
        """stop_at_first_violation no longer forces serial execution."""
        network = _violating_network()
        graph_probe = Plankton(network, PlanktonOptions(cores=2))
        relevant = [p for p in graph_probe.pecs if LoopFreedom().applies_to(p)]
        graph = build_task_graph(
            graph_probe.symmetry, graph_probe.pecs, graph_probe.dependency_graph,
            [LoopFreedom()], graph_probe.options, relevant,
        )
        assert isinstance(select_backend(graph_probe.options, graph), ProcessPoolBackend)

        serial = Plankton(network, PlanktonOptions(stop_at_first_violation=True)).verify(
            LoopFreedom()
        )
        parallel = Plankton(
            network, PlanktonOptions(cores=2, stop_at_first_violation=True)
        ).verify(LoopFreedom())
        assert not serial.holds and not parallel.holds
        assert serial.violations and parallel.violations
        assert {v.policy for v in parallel.violations} == {"loop-freedom"}

    def test_early_stop_returns_the_serial_ordered_prefix(self):
        """parallel == serial also under stop-at-first: the pool's racing
        stop decides which tasks completed, never what the result is."""
        network = _violating_network()
        serial = result_signature(
            Plankton(network, PlanktonOptions(stop_at_first_violation=True)).verify(
                LoopFreedom()
            )
        )
        for _ in range(4):
            parallel = Plankton(
                network, PlanktonOptions(cores=2, stop_at_first_violation=True)
            ).verify(LoopFreedom())
            assert result_signature(parallel) == serial

    def test_early_stop_on_clean_network_checks_everything(self):
        network = _clean_network()
        serial = Plankton(network, PlanktonOptions(stop_at_first_violation=True)).verify(
            LoopFreedom()
        )
        parallel = Plankton(
            network, PlanktonOptions(cores=2, stop_at_first_violation=True)
        ).verify(LoopFreedom())
        _assert_identical(serial, parallel)
        assert parallel.holds

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_unpicklable_policy_still_runs_in_parallel(self):
        """Under fork, policies never cross a pickle boundary — closures work."""
        threshold = 100

        class ClosurePolicy(Policy):
            name = "closure-loop-freedom"

            def __init__(self):
                self._inner = LoopFreedom()
                self._filter = lambda message: message if threshold else None  # unpicklable

            def applies_to(self, pec):
                return self._inner.applies_to(pec)

            def check(self, context):
                message = self._inner.check(context)
                return self._filter(message) if message else None

        network = _violating_network()
        policy = ClosurePolicy()
        serial = Plankton(network, PlanktonOptions(stop_at_first_violation=False)).verify(policy)
        parallel = Plankton(
            network, PlanktonOptions(cores=2, stop_at_first_violation=False)
        ).verify(policy)
        assert serial.holds == parallel.holds == False
        assert len(serial.violations) == len(parallel.violations)


# --------------------------------------------------------------------------- plumbing
class TestEnginePlumbing:
    def test_backend_selection(self):
        plankton = Plankton(_clean_network(), PlanktonOptions(cores=4))
        relevant = [p for p in plankton.pecs if LoopFreedom().applies_to(p)]
        graph = build_task_graph(
            plankton.symmetry, plankton.pecs, plankton.dependency_graph,
            [LoopFreedom()], plankton.options, relevant,
        )
        assert isinstance(select_backend(PlanktonOptions(cores=1), graph), SerialBackend)
        assert isinstance(select_backend(PlanktonOptions(cores=4), graph), ProcessPoolBackend)
        # One planned task runs serially whatever the core count.
        assert isinstance(select_backend(PlanktonOptions(cores=4), graph.tasks[:1]), SerialBackend)
        with pytest.raises(TypeError):
            PlanktonOptions(backend="serial")

    def test_cold_ledger_drops_planes_after_the_last_dependent(self):
        """Plane lifetime on the cold path: once every dependent of a task
        has recorded, the ledger holds none of that task's data planes (the
        incremental service, which still has to encode them, keeps them)."""
        plankton = Plankton(_dependent_network(), PlanktonOptions(max_failures=1))
        policy = Reachability(destination_prefix=Prefix("200.0.0.0/16"), any_branch=True)
        policies, _relevant, graph = plankton.expand_request(policy)
        upstream_ids = [task_id for task_id, deps in dependents(graph).items() if deps]
        assert upstream_ids
        context = EngineContext(plankton=plankton, policies=policies)
        ledger = run_graph(graph, context)
        assert all(ledger.has_result(task.task_id) for task in graph.tasks)
        assert all(ledger.result(task_id).data_planes == [] for task_id in upstream_ids)
        kept = run_graph(graph, context, keep_planes=True)
        assert all(kept.result(task_id).data_planes for task_id in upstream_ids)
        # Same verdict either way: the dependents read the planes in time.
        folded = [VerificationResult(policy_names=[policy.name]) for _ in range(2)]
        folded[0].absorb(ledger.finalize())
        folded[1].absorb(kept.finalize())
        assert result_signature(folded[0]) == result_signature(folded[1])
        assert folded[0].pec_runs and folded[0].holds

    def test_verification_result_merge(self):
        base = VerificationResult(policy_names=["p"])
        base.record(PecRunResult(pec_index=0, failure=FailureScenario(), converged_states=2))
        other = VerificationResult(policy_names=["p"])
        run = PecRunResult(pec_index=1, failure=FailureScenario(), converged_states=3)
        other.record(run)
        base.merge(other)
        assert len(base.pec_runs) == 2
        assert base.total_converged_states == 5
        assert base.holds
