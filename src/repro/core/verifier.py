"""The Plankton verifier facade.

:class:`Plankton` ties the whole pipeline together (paper Figure 3):

1. compute Packet Equivalence Classes from the configuration,
2. build the PEC dependency graph and a dependency-aware schedule,
3. expand every (PEC, failure scenario) pair into the execution engine's
   task graph (:mod:`repro.engine`) — with explicit dependency edges when
   PECs depend on each other — and run it serially, or on a persistent
   process pool when ``cores`` > 1,
4. invoke the policy callback on each converged state as the search reaches
   it; report the first (or all) violations with an event trail.

A transient campaign (:meth:`Plankton.verify_transients`) takes the same
path with SPVP interleaving searches as its tasks.
"""

from __future__ import annotations

import time
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple, Type, Union

from repro.config.objects import NetworkConfig
from repro.core.options import PlanktonOptions
from repro.core.results import PecRunResult, VerificationResult, Violation
from repro.exceptions import VerificationError
from repro.modelcheck.explorer import TRUNCATED, VACUOUS
from repro.modelcheck.trail import Trail
from repro.pec.classes import PacketEquivalenceClass, compute_pecs
from repro.pec.dependencies import PecDependencyGraph, build_dependency_graph
from repro.policies.base import Policy, PolicyCheckContext
from repro.protocols.ospf import OspfComputation
from repro.topology.failures import FailureScenario

if TYPE_CHECKING:
    from repro.core.network_model import ConvergedOutcome, DependencyContext, PecExplorer
    from repro.engine.graph import NetworkSymmetry, TaskGraph
    from repro.transient.explorer import TransientCampaignResult, TransientOptions
    from repro.transient.properties import TransientProperty


class Plankton:
    """The configuration verifier.

    Typical use::

        plankton = Plankton(network, PlanktonOptions(max_failures=1))
        result = plankton.verify(Reachability(sources=["edge0_0"]))
        assert result.holds, result.first_violation().render()
    """

    def __init__(self, network: NetworkConfig, options: Optional[PlanktonOptions] = None) -> None:
        # Refuse a configuration that names an undefined route map or prefix
        # list, as every front end does: the incremental fingerprints test
        # every clause of every map a session names, where a run would fail
        # only on the clauses it reaches.
        for device in network.devices.values():
            device.validate()
        self.network = network
        self.options = options or PlanktonOptions()
        self.pecs: List[PacketEquivalenceClass] = compute_pecs(network)
        self.dependency_graph: PecDependencyGraph = build_dependency_graph(network, self.pecs)
        self.ospf_computation = OspfComputation(network)
        self._pec_by_index = {pec.index: pec for pec in self.pecs}
        #: What requests against this configuration expand to, kept by the
        #: incremental service (:meth:`IncrementalVerifier.verify`) under the
        #: policies' canonical tokens.  Options are fixed per instance and a
        #: changed configuration is a new instance, so nothing here is ever
        #: invalidated: it lives and dies with the configuration generation.
        self.request_memo: Dict[Tuple, Tuple] = {}

    @cached_property
    def _explorer_class(self) -> Type["PecExplorer"]:
        """:class:`PecExplorer`, imported when the first PEC is run: the
        explorer stack is most of the program, and a request answered from
        the result cache explores nothing."""
        from repro.core.network_model import PecExplorer

        return PecExplorer

    @cached_property
    def symmetry(self) -> "NetworkSymmetry":
        """What the failure and event reductions read of this configuration
        beyond one PEC (:func:`~repro.engine.graph.network_symmetry`), built
        on the first expansion and kept for every later request."""
        from repro.engine.graph import network_symmetry

        return network_symmetry(self.network)

    def pec_by_index(self, index: int) -> PacketEquivalenceClass:
        """The PEC with partition index ``index``."""
        return self._pec_by_index[index]

    # ------------------------------------------------------------------ public API
    def expand_request(
        self, policies: Union[Policy, Sequence[Policy]]
    ) -> Tuple[List[Policy], List[PacketEquivalenceClass], "object"]:
        """Normalise a verification request into (policies, relevant PECs, graph).

        The shared prologue of :meth:`verify` and the incremental service's
        re-verification: the policy list is validated, the PECs at least one
        policy applies to are selected, and the request is expanded into the
        execution engine's task graph (empty when nothing is relevant).
        """
        from repro.engine import build_task_graph

        policy_list = [policies] if isinstance(policies, Policy) else list(policies)
        if not policy_list:
            raise VerificationError("at least one policy is required")
        relevant = [pec for pec in self.pecs if any(p.applies_to(pec) for p in policy_list)]
        graph = build_task_graph(
            self.symmetry,
            self.pecs,
            self.dependency_graph,
            policy_list,
            self.options,
            relevant,
        )
        return policy_list, relevant, graph

    def verify(self, policies: Union[Policy, Sequence[Policy]]) -> VerificationResult:
        """Verify the configuration against one policy or a list of policies.

        All work — independent and dependent PECs alike — is expanded into
        the execution engine's task graph and run on the backend that
        :attr:`PlanktonOptions.cores` selects.
        """
        from repro.engine import EngineContext, run_graph

        started = time.perf_counter()
        policy_list, relevant, graph = self.expand_request(policies)
        result = VerificationResult(
            policy_names=[p.name for p in policy_list],
            pecs_analyzed=len(relevant),
            failure_scenarios=graph.failure_scenarios,
        )
        ledger = run_graph(graph, EngineContext(plankton=self, policies=policy_list))
        result.absorb(ledger.finalize())
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def expand_transients(
        self,
        properties: Sequence["TransientProperty"],
        transient: Optional["TransientOptions"] = None,
        failures: Optional[Sequence[FailureScenario]] = None,
        initial_events: Sequence[object] = (),
        scenarios: Optional[Sequence[object]] = None,
        pecs: Optional[Sequence[PacketEquivalenceClass]] = None,
    ) -> "TaskGraph":
        """Expand a transient campaign into the execution engine's task graph.

        The shared prologue of :meth:`verify_transients` and the incremental
        service's re-run.  The campaign covers the BGP-originated PECs of
        ``pecs`` (default: every PEC), each resolved by index in this
        configuration's partition; one task per (PEC, failure scenario),
        PEC-major.  The failure scenarios come from ``failures`` when given,
        otherwise from the §4.3 Link Equivalence Class reduction under
        ``options.max_failures``.  Every task of a PEC carries its payload
        (:class:`~repro.transient.explorer.TransientTaskConfig`): the
        properties, the ``transient`` options, the base ``initial_events``
        and the lifecycle ``scenarios`` — derived per PEC with the
        symmetry-reduced k-event enumerator when omitted and
        ``transient.scenario_events > 0``.

        ``transient.stop_at_first_violation`` governs *all* transient
        stopping — each per-prefix analysis, the scenarios left in a task,
        and the campaign-level cancellation of still-queued tasks — so
        :attr:`PlanktonOptions.stop_at_first_violation` (a converged-state
        knob) cannot cut an exhaustive campaign short.  Every other engine
        knob, supervision included, is this verifier's own.
        """
        from repro.engine import build_transient_task_graph
        from repro.transient.explorer import TransientOptions, TransientTaskConfig

        target = [
            self.pec_by_index(pec.index)
            for pec in (self.pecs if pecs is None else pecs)
            if pec.has_bgp()
        ]
        config = TransientTaskConfig(
            properties=tuple(properties),
            options=transient or TransientOptions(),
            initial_events=tuple(initial_events),
        )
        return build_transient_task_graph(
            self.symmetry, target, self.options, config, failures=failures, scenarios=scenarios
        )

    def verify_transients(
        self,
        properties: Sequence["TransientProperty"],
        transient: Optional["TransientOptions"] = None,
        failures: Optional[Sequence[FailureScenario]] = None,
        initial_events: Sequence[object] = (),
        scenarios: Optional[Sequence[object]] = None,
        pecs: Optional[Sequence[PacketEquivalenceClass]] = None,
    ) -> "TransientCampaignResult":
        """Run a transient campaign (:meth:`expand_transients`) on the backend
        the options select: one run per (failure, lifecycle scenario, BGP
        prefix), in task-graph order."""
        from repro.engine import EngineContext, run_graph
        from repro.transient.explorer import TransientCampaignResult

        started = time.perf_counter()
        graph = self.expand_transients(
            properties, transient, failures, initial_events, scenarios, pecs
        )
        campaign = TransientCampaignResult()
        campaign.absorb(run_graph(graph, EngineContext(plankton=self)).finalize(), graph)
        campaign.elapsed_seconds = time.perf_counter() - started
        return campaign

    # ------------------------------------------------------------------ single PEC run
    def _policy_sources(
        self, pec: PacketEquivalenceClass, policies: List[Policy], has_dependents: bool
    ) -> Optional[List[str]]:
        """Union of policy source nodes, when usable for pruning (§4.2)."""
        if not self.options.optimizations.policy_based_pruning:
            return None
        if has_dependents:
            # Not sound for PECs on which other PECs depend (§4.2).
            return None
        if not policies:
            return None
        sources: Set[str] = set()
        for policy in policies:
            declared = policy.source_nodes(pec)
            if declared is None:
                return None
            sources.update(declared)
        return sorted(sources)

    def run_pec(
        self,
        pec: PacketEquivalenceClass,
        failure: FailureScenario,
        policies: List[Policy],
        dependency_context: DependencyContext,
        collect_outcomes: bool,
    ) -> Tuple[PecRunResult, List[ConvergedOutcome]]:
        """Explore one PEC under one failure scenario and check the policies.

        This is the engine's unit of work (one task-graph node executes it
        once per upstream-outcome combination); it can also be called
        directly for one-off explorations.
        """
        sources = self._policy_sources(pec, policies, has_dependents=collect_outcomes)
        explorer = self._explorer_class(
            self.network,
            pec,
            failure,
            self.options,
            policy_sources=sources,
            dependency_context=dependency_context,
            ospf_computation=self.ospf_computation,
        )
        run = PecRunResult(pec_index=pec.index, failure=failure)
        network = self.network
        failure_text = failure.describe(network.topology)
        upstream_planes = dependency_context.data_planes()
        stop_at_first = self.options.stop_at_first_violation
        pruning = self.options.optimizations.policy_based_pruning
        # Each applicable policy, with the signatures of the planes it was
        # checked on when policy-based pruning suppresses repeats (§3.5).
        checks = [
            (policy, set() if pruning else None) for policy in policies if policy.applies_to(pec)
        ]

        def check_outcome(outcome: ConvergedOutcome) -> Optional[str]:
            """Check every policy on one converged outcome, as the search
            reaches it: over the lazy outcome, so that a policy builds only
            what it reads of it (loop freedom: nothing, while the state's
            certificate holds), and a violation's trail builds the rest.
            Under stop-at-first the first violation message is returned,
            which ends the search of an independent PEC; a PEC with
            dependents is searched to the end (downstream PECs need every
            outcome) and only stops being checked."""
            if run.violations and stop_at_first:
                return None
            run.converged_states += 1
            context = PolicyCheckContext(network, pec, outcome, failure, upstream_planes)
            for policy, seen in checks:
                if seen is not None:
                    signature = policy.state_signature(context)
                    if signature is not None:
                        if signature in seen:
                            run.suppressed_states += 1
                            continue
                        seen.add(signature)
                run.checked_states += 1
                message = policy.check(context)
                if message is None:
                    continue
                trail = Trail(policy=policy.name, pec_description=pec.describe())
                trail.add("failure", failure_text)
                trail.add_labels("rpvp-step", outcome.steps)
                trail.violation_description = message
                trail.data_plane_dump = outcome.data_plane.describe()
                run.violations.append(
                    Violation(
                        policy=policy.name,
                        pec_index=pec.index,
                        pec_description=str(pec.address_range),
                        failure_description=failure_text,
                        message=message,
                        trail=trail,
                    )
                )
                if stop_at_first:
                    return None if collect_outcomes else message
            return None

        outcomes = explorer.explore(on_outcome=check_outcome, keep_outcomes=collect_outcomes)
        run.statistics = explorer.statistics
        run.completeness = explorer.completeness
        if not run.converged_states and pec.has_bgp() and run.completeness != TRUNCATED:
            # Every execution was abandoned as inconsistent (the configuration
            # may not converge): nothing was checked.
            run.completeness = VACUOUS
        return run, outcomes

