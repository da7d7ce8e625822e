"""The network model explored by the model checker, and the FIB builder.

This module is the Promela-model analogue of the paper's prototype: it wires
the RPVP semantics of :mod:`repro.protocols.rpvp` into the generic
:class:`~repro.modelcheck.explorer.Explorer`, applying the §4 optimizations by
shrinking the successor relation, and it assembles converged per-prefix
protocol states into network-wide data planes (the FIB model of §3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.config.objects import NetworkConfig
from repro.dataplane import DataPlane, FibEntry
from repro.exceptions import VerificationError
from repro.modelcheck.explorer import (
    ExplorationStatistics,
    Explorer,
    ExplorerOptions,
)
from repro.modelcheck.por import ReductionStatistics
from repro.netaddr import Prefix
from repro.core.determinism import (
    BgpDeterminism,
    NodeDecision,
    OspfDeterminism,
    independence_groups,
)
from repro.core.options import OptimizationFlags, PlanktonOptions
from repro.core.successors import CandidateEngine
from repro.modelcheck.hashing import ZobristFingerprinter
from repro.pec.classes import PacketEquivalenceClass
from repro.protocols.base import EPSILON, PathVectorInstance, Route, RouteSource
from repro.protocols.bgp import BgpInstance
from repro.protocols.ospf import OspfComputation
from repro.protocols.ospf_instance import OspfInstance
from repro.protocols.rpvp import (
    RpvpState,
    RpvpTransition,
    enabled_nodes,
    initial_state,
    node_space_for,
    rpvp_successors,
)
from repro.protocols.static import resolve_static_routes
from repro.topology.failures import FailureScenario


# --------------------------------------------------------------------------- deps
class DependencyContext:
    """Converged data planes of the PECs the current PEC depends on.

    The verifier stores, for every upstream PEC, one of its converged data
    planes (the combination currently being explored), and this context
    resolves recursive lookups against them: next hops towards an IP address,
    and reachability between devices (used for iBGP session liveness).
    """

    def __init__(
        self,
        pecs: Sequence[PacketEquivalenceClass] = (),
        data_planes: Optional[Dict[int, DataPlane]] = None,
    ) -> None:
        self._pecs = list(pecs)
        self._data_planes: Dict[int, DataPlane] = dict(data_planes or {})

    def add(self, pec: PacketEquivalenceClass, data_plane: DataPlane) -> None:
        """Register the converged data plane of an upstream PEC."""
        if pec.index not in {p.index for p in self._pecs}:
            self._pecs.append(pec)
        self._data_planes[pec.index] = data_plane

    def data_planes(self) -> Dict[int, DataPlane]:
        """All registered upstream data planes, keyed by PEC index."""
        return dict(self._data_planes)

    def data_plane_for(self, address: int) -> Optional[DataPlane]:
        """The upstream data plane whose PEC covers ``address``."""
        for pec in self._pecs:
            if pec.address_range.contains_address(address) and pec.index in self._data_planes:
                return self._data_planes[pec.index]
        return None

    def next_hops_toward(self, node: str, address: int) -> Tuple[str, ...]:
        """Next hops ``node`` uses towards ``address`` per the upstream data planes."""
        data_plane = self.data_plane_for(address)
        if data_plane is None:
            return ()
        return data_plane.next_hops(node, address)

    def reaches(self, source: str, address: int) -> bool:
        """Whether ``source`` can deliver traffic to ``address`` upstream."""
        data_plane = self.data_plane_for(address)
        if data_plane is None:
            return False
        from repro.dataplane.forwarding import PathStatus, trace_paths

        branches = trace_paths(data_plane, source, address)
        return any(branch.status == PathStatus.DELIVERED for branch in branches)


# --------------------------------------------------------------------------- outcome
@dataclass
class ConvergedOutcome:
    """One converged data plane of a PEC, with how it was reached."""

    data_plane: DataPlane
    control_plane: Dict[str, Route] = field(default_factory=dict)
    steps: List[object] = field(default_factory=list)
    bgp_states: Dict[Prefix, RpvpState] = field(default_factory=dict)


@dataclass
class PrefixExplorationResult:
    """Converged control-plane states for one prefix."""

    prefix: Prefix
    states: List[RpvpState]
    step_labels: List[List[object]]
    statistics: Optional[ExplorationStatistics] = None


# --------------------------------------------------------------------------- explorer
class PecExplorer:
    """Explores all converged data planes of one PEC under one failure scenario."""

    def __init__(
        self,
        network: NetworkConfig,
        pec: PacketEquivalenceClass,
        failure: FailureScenario,
        options: PlanktonOptions,
        policy_sources: Optional[Sequence[str]] = None,
        dependency_context: Optional[DependencyContext] = None,
        ospf_computation: Optional[OspfComputation] = None,
    ) -> None:
        self.network = network
        self.pec = pec
        self.failure = failure
        self.options = options
        self.flags = options.optimizations
        self.policy_sources = list(policy_sources) if policy_sources else None
        self.dependencies = dependency_context or DependencyContext()
        self.ospf = ospf_computation or OspfComputation(network)
        #: One shared §4-reduction ledger for every per-prefix search of this
        #: PEC run (the successor pipeline records enabled-vs-expanded there).
        self.reduction = ReductionStatistics(mode="rpvp")
        self.statistics = ExplorationStatistics(reduction=self.reduction)

    # ------------------------------------------------------------------ protocol instances
    def _failed_links(self) -> Set[int]:
        return self.failure.as_set()

    def _loopback_of(self, device: str) -> Optional[Prefix]:
        node = self.network.topology.node(device)
        return node.loopback

    def _ibgp_session_up(self, a: str, b: str) -> bool:
        """An iBGP session is usable when each side reaches the other's loopback."""
        for near, far in ((a, b), (b, a)):
            loopback = self._loopback_of(far)
            if loopback is None:
                return False
            address = loopback.first
            if self.dependencies.data_plane_for(address) is not None:
                if not self.dependencies.reaches(near, address):
                    return False
            else:
                # No upstream data plane provided: fall back to the IGP view.
                table = self.ospf.compute([far], self._failed_links())
                if not table.is_reachable(near):
                    return False
        return True

    def _igp_cost(self, node: str, peer: str) -> float:
        """IGP cost from ``node`` to ``peer`` under the current failures."""
        cost = self.ospf.igp_cost_between(node, peer, self._failed_links())
        if cost == float("inf"):
            return 1_000_000.0
        return cost

    def bgp_instance(self, prefix: Prefix) -> BgpInstance:
        """The BGP instance for ``prefix`` under this failure scenario."""
        return BgpInstance(
            self.network,
            prefix,
            failed_links=self._failed_links(),
            session_up=self._ibgp_session_up,
            igp_cost=self._igp_cost,
        )

    def ospf_instance(self, prefix: Prefix) -> OspfInstance:
        """The OSPF instance for ``prefix`` under this failure scenario."""
        return OspfInstance(
            self.network,
            prefix,
            failed_links=self._failed_links(),
            computation=self.ospf,
        )

    # ------------------------------------------------------------------ exploration
    def explore(
        self,
        on_outcome: Optional[Callable[["ConvergedOutcome"], Optional[str]]] = None,
        keep_outcomes: bool = True,
    ) -> List[ConvergedOutcome]:
        """All converged data planes of the PEC under this failure scenario.

        When ``on_outcome`` is given and the PEC has at most one BGP prefix,
        the exploration streams: the callback is invoked on every converged
        data plane *as the model checker reaches it*, and a non-None return
        value (a violation message) stops the search immediately — this is how
        the paper's prototype reports the first violating event sequence
        without enumerating the remaining converged states.
        """
        bgp_prefixes = [prefix for prefix, devices in self.pec.bgp_origins if devices]
        if on_outcome is not None and len(bgp_prefixes) <= 1 and self.options.fast_ospf:
            return self._explore_streaming(
                bgp_prefixes[0] if bgp_prefixes else None, on_outcome, keep_outcomes
            )
        per_prefix_results: List[PrefixExplorationResult] = []
        for prefix in bgp_prefixes:
            result = self._explore_bgp_prefix(prefix)
            per_prefix_results.append(result)
            if result.statistics is not None:
                self._accumulate(result.statistics)

        # OSPF-only PECs (optionally) go through the model checker as well,
        # mainly to support the Figure 8 ablations; with the optimizations on
        # the result is identical to the cached SPF computation.
        if not self.options.fast_ospf:
            for prefix, devices in self.pec.ospf_origins:
                if devices:
                    result = self._explore_ospf_prefix(prefix)
                    if result.statistics is not None:
                        self._accumulate(result.statistics)

        outcomes: List[ConvergedOutcome] = []
        combinations = self._combinations(per_prefix_results)
        for combo in combinations:
            bgp_states = {result.prefix: state for result, (state, _labels) in zip(per_prefix_results, combo)}
            steps: List[object] = []
            for _result, (_state, labels) in zip(per_prefix_results, combo):
                steps.extend(labels)
            data_plane, control_plane = self.build_data_plane(bgp_states)
            outcome = ConvergedOutcome(
                data_plane=data_plane,
                control_plane=control_plane,
                steps=steps,
                bgp_states=bgp_states,
            )
            outcomes.append(outcome)
            if on_outcome is not None:
                violation = on_outcome(outcome)
                if violation is not None:
                    break
        return outcomes

    def _explore_streaming(
        self,
        prefix: Optional[Prefix],
        on_outcome: Callable[["ConvergedOutcome"], Optional[str]],
        keep_outcomes: bool,
    ) -> List[ConvergedOutcome]:
        """Streamed exploration for PECs with at most one BGP prefix."""
        outcomes: List[ConvergedOutcome] = []

        if prefix is None:
            # Purely deterministic PEC (OSPF + static): one converged state.
            data_plane, control_plane = self.build_data_plane({})
            outcome = ConvergedOutcome(data_plane=data_plane, control_plane=control_plane)
            if keep_outcomes:
                outcomes.append(outcome)
            on_outcome(outcome)
            return outcomes

        instance = self.bgp_instance(prefix)
        analyzer = BgpDeterminism(instance)
        engine = self._candidate_engine(instance)
        successors = self._optimized_successors(
            instance, analyzer, use_for_determinism=self.flags.deterministic_nodes, engine=engine
        )

        def check_terminal(state: RpvpState, labels: List[object]) -> Optional[str]:
            accepted = self._accept_terminal(instance, state, analyzer, engine=engine)
            # Terminal states may outlive the search inside outcomes; drop the
            # DFS ancestor chain and search caches they would otherwise pin.
            state.detach()
            if not accepted:
                return None
            data_plane, control_plane = self.build_data_plane({prefix: state})
            outcome = ConvergedOutcome(
                data_plane=data_plane,
                control_plane=control_plane,
                steps=list(labels),
                bgp_states={prefix: state},
            )
            if keep_outcomes:
                outcomes.append(outcome)
            return on_outcome(outcome)

        explorer_options = self._explorer_options()
        explorer_options.stop_at_first_violation = self.options_stop_early
        explorer = Explorer(
            successors=successors,
            check_terminal=check_terminal,
            options=explorer_options,
        )
        explorer.canonicalize = self._make_canonicalizer(explorer, instance)
        outcome_of_search = explorer.run(initial_state(instance), collect_converged=False)
        self._accumulate(outcome_of_search.statistics)
        return outcomes

    @property
    def options_stop_early(self) -> bool:
        """Whether the streaming search should stop at the first violation."""
        return self.options.stop_at_first_violation

    @staticmethod
    def _combinations(
        results: Sequence[PrefixExplorationResult],
    ) -> List[List[Tuple[RpvpState, List[object]]]]:
        """Cross product of the converged states across prefixes."""
        combos: List[List[Tuple[RpvpState, List[object]]]] = [[]]
        for result in results:
            if not result.states:
                # A prefix with BGP origins but no converged state (e.g. all
                # origins partitioned away): keep a placeholder empty state.
                continue
            paired = list(zip(result.states, result.step_labels))
            combos = [combo + [choice] for combo in combos for choice in paired]
        return combos

    def _accumulate(self, stats: ExplorationStatistics) -> None:
        self.statistics.states_expanded += stats.states_expanded
        self.statistics.unique_states += stats.unique_states
        self.statistics.transitions += stats.transitions
        self.statistics.terminal_states += stats.terminal_states
        self.statistics.unique_terminal_states += stats.unique_terminal_states
        self.statistics.max_depth_reached = max(
            self.statistics.max_depth_reached, stats.max_depth_reached
        )
        self.statistics.elapsed_seconds += stats.elapsed_seconds
        self.statistics.visited_bytes += stats.visited_bytes
        self.statistics.interner_entries += stats.interner_entries
        self.statistics.interner_bytes += stats.interner_bytes
        self.statistics.state_bytes += stats.state_bytes
        self.statistics.truncated = self.statistics.truncated or stats.truncated

    # ------------------------------------------------------------------ per-prefix searches
    def _explorer_options(self) -> ExplorerOptions:
        return ExplorerOptions(
            max_states=self.options.max_states_per_pec,
            max_seconds=self.options.max_seconds_per_pec,
            stop_at_first_violation=False,
            use_bitstate=self.flags.bitstate_hashing,
            bitstate_bits=self.options.bitstate_bits,
        )

    def _make_canonicalizer(
        self, explorer: Explorer, instance: PathVectorInstance
    ) -> Callable[[RpvpState], Hashable]:
        """State-hashing canonicalizer: incremental Zobrist fingerprints.

        States already hold intern-table ids per slot (the §4.4 state
        hashing), and the visited-set key is a 64-bit Zobrist fingerprint a
        child state derives from its parent's in O(1) — one table lookup for
        the transitioned node's old and new id, with no object hashing at
        all.  The fingerprinter is bound to the instance's shared
        :class:`~repro.protocols.interning.RouteInternTable` and handed to
        the explorer as its interner so the reported table statistics keep
        counting the entries this search touched.
        """
        if not self.flags.state_hashing:
            return lambda state: state
        space = node_space_for(instance)
        fingerprinter = ZobristFingerprinter(space.table)
        # One 4-byte id slot per node plus the array object overhead.
        fingerprinter.state_bytes_per_state = 64 + 4 * len(space.names)
        explorer.interner = fingerprinter
        return lambda state: state.fingerprint(fingerprinter)

    def _candidate_engine(self, instance: PathVectorInstance) -> Optional[CandidateEngine]:
        """The incremental candidate engine for one instance (None when the
        unoptimized semantics are in effect)."""
        if not self.flags.consistent_execution:
            return None
        return CandidateEngine(instance)

    def _explore_instance(
        self,
        instance: PathVectorInstance,
        successors: Callable[[RpvpState], List[Tuple[object, RpvpState]]],
        stability: Optional[BgpDeterminism] = None,
        engine: Optional[CandidateEngine] = None,
    ) -> PrefixExplorationResult:
        explorer = Explorer(
            successors=successors,
            check_terminal=None,
            canonicalize=None,
            options=self._explorer_options(),
            reduction=self.reduction,
        )
        explorer.canonicalize = self._make_canonicalizer(explorer, instance)
        start = initial_state(instance)
        outcome = explorer.run(start, collect_converged=True)
        states: List[RpvpState] = []
        labels: List[List[object]] = []
        for state, path in zip(outcome.converged_states, outcome.converged_paths):
            accepted = self._accept_terminal(instance, state, stability, engine=engine)
            # Collected states outlive the search; drop the DFS ancestor
            # chain and search caches they would otherwise pin (after the
            # acceptance check, which reuses the cached candidate sets).
            state.detach()
            if accepted:
                states.append(state)
                labels.append(path)
        if not states and not outcome.converged_states:
            # Defensive: the initial state itself may already be converged.
            if self._accept_terminal(instance, start, stability, engine=engine):
                states.append(start.detach())
                labels.append([])
        return PrefixExplorationResult(
            prefix=Prefix("0.0.0.0/0") if not hasattr(instance, "prefix") else instance.prefix,  # type: ignore[attr-defined]
            states=states,
            step_labels=labels,
            statistics=outcome.statistics,
        )

    def _accept_terminal(
        self,
        instance: PathVectorInstance,
        state: RpvpState,
        stability: Optional[BgpDeterminism] = None,
        engine: Optional[CandidateEngine] = None,
    ) -> bool:
        """Keep only terminals that are genuine (or policy-sufficient) converged states."""
        if not self.flags.consistent_execution:
            return not enabled_nodes(instance, state)
        # Consistent execution always comes with its engine (see
        # ``_candidate_engine``).  The exploration already computed (or can
        # compute in O(deg)) this state's candidate sets; reuse them instead
        # of re-evaluating every (node, peer) advertisement.
        cache = engine.candidates(state)
        # A decided node with an improving update from a decided peer means
        # this execution is not consistent with any converged state.
        if cache.decided_pending:
            return False
        if (
            self.flags.policy_based_pruning
            and self._sources_decided(instance, state)
            and (stability is None or stability.decisions_are_stable(state))
        ):
            return True
        # Otherwise require full convergence: no undecided node can update.
        if cache.updates:
            return False
        if stability is not None and not stability.decisions_are_stable(state):
            return False
        return True

    def _sources_decided(self, instance: PathVectorInstance, state: RpvpState) -> bool:
        if not self.policy_sources:
            return False
        participating = [s for s in self.policy_sources if s in set(instance.nodes())]
        if not participating:
            return False
        return all(state.best(source) is not None for source in participating)

    def _explore_bgp_prefix(self, prefix: Prefix) -> PrefixExplorationResult:
        instance = self.bgp_instance(prefix)
        # The analyzer is always built: even with the deterministic-node
        # optimization off it provides the stability check that keeps
        # policy-based pruning sound (see ``_optimized_successors``).
        analyzer = BgpDeterminism(instance)
        engine = self._candidate_engine(instance)
        successors = self._optimized_successors(
            instance, analyzer, use_for_determinism=self.flags.deterministic_nodes, engine=engine
        )
        result = self._explore_instance(instance, successors, stability=analyzer, engine=engine)
        result.prefix = prefix
        return result

    def _explore_ospf_prefix(self, prefix: Prefix) -> PrefixExplorationResult:
        instance = self.ospf_instance(prefix)
        analyzer = OspfDeterminism(instance) if self.flags.deterministic_nodes else None
        engine = self._candidate_engine(instance)
        successors = self._optimized_successors(
            instance, analyzer, use_for_determinism=self.flags.deterministic_nodes, engine=engine
        )
        result = self._explore_instance(instance, successors, engine=engine)
        result.prefix = prefix
        return result

    # ------------------------------------------------------------------ optimized successors
    def _optimized_successors(
        self,
        instance: PathVectorInstance,
        analyzer,
        use_for_determinism: bool = True,
        engine: Optional[CandidateEngine] = None,
    ) -> Callable[[RpvpState], List[Tuple[object, RpvpState]]]:
        flags = self.flags
        sources = self.policy_sources
        reduction = self.reduction
        # Sources that participate in this instance, as state-array slots:
        # the sources-decided test runs per state and reduces to "is every
        # source slot a non-zero route id".
        slot_of = node_space_for(instance).slot_of
        source_slots = tuple(
            slot_of[source] for source in (sources or ()) if source in slot_of
        )

        def successors(state: RpvpState) -> List[Tuple[object, RpvpState]]:
            if not flags.consistent_execution:
                expansion = rpvp_successors(instance, state)
                if expansion:
                    reduction.observe_expansion(
                        enabled=len(expansion), expanded=len(expansion), reduced=False
                    )
                return expansion

            # The candidate sets are maintained incrementally: a state derived
            # from its parent by one node's decision re-evaluates only that
            # node and its peers (see repro.core.successors).
            cache = engine.candidates(state)

            enabled_count = 0
            for node_updates in cache.updates.values():
                enabled_count += len(node_updates)

            # Consistent executions only: a node that has selected a path never
            # changes it, so if any decided node could still be improved the
            # execution cannot lead to a converged state — abandon it.
            if cache.decided_pending:
                if enabled_count:
                    reduction.observe_expansion(
                        enabled=enabled_count, expanded=0, reduced=True
                    )
                return []

            # Policy-based pruning: once every source node has decided, the
            # forwarding the policy inspects is fixed (consistent executions
            # never revisit decisions), so stop here — provided no decided
            # node could still be forced to change its selection later.
            if (
                flags.policy_based_pruning
                and source_slots
                and all(state._ids[slot] for slot in source_slots)
                and (
                    not isinstance(analyzer, BgpDeterminism)
                    or analyzer.decisions_are_stable(state)
                )
            ):
                if enabled_count:
                    reduction.observe_expansion(
                        enabled=enabled_count, expanded=0, reduced=True
                    )
                return []

            candidates_of = cache.updates
            if not candidates_of:
                return []

            if analyzer is not None and use_for_determinism:
                decision = self._decide(analyzer, state, candidates_of)
                if decision.kind in ("deterministic", "tied") and decision.node is not None:
                    reduction.observe_expansion(
                        enabled=enabled_count,
                        expanded=len(decision.candidates),
                        reduced=len(decision.candidates) < enabled_count,
                    )
                    return [
                        (
                            RpvpTransition(node=decision.node, new_route=route, from_peer=peer),
                            state.with_best(decision.node, route),
                        )
                        for peer, route in decision.candidates
                    ]

            enabled = sorted(candidates_of)
            if flags.decision_independence and len(enabled) > 1:
                groups = independence_groups(instance, state, enabled)
                if groups:
                    enabled = groups[0]

            result: List[Tuple[object, RpvpState]] = []
            for node in enabled:
                for peer, route in candidates_of[node]:
                    result.append(
                        (
                            RpvpTransition(node=node, new_route=route, from_peer=peer),
                            state.with_best(node, route),
                        )
                    )
            reduction.observe_expansion(
                enabled=enabled_count,
                expanded=len(result),
                reduced=len(result) < enabled_count,
            )
            return result

        return successors

    def _decide(self, analyzer, state: RpvpState, candidates_of) -> NodeDecision:
        if isinstance(analyzer, OspfDeterminism):
            return analyzer.pick(sorted(candidates_of), candidates_of)
        defer = set(self.policy_sources or ())
        return analyzer.analyze(state, candidates_of, defer=defer)

    # ------------------------------------------------------------------ FIB construction
    def build_data_plane(
        self,
        bgp_states: Optional[Dict[Prefix, RpvpState]] = None,
    ) -> Tuple[DataPlane, Dict[str, Route]]:
        """Combine per-prefix protocol results into a network-wide data plane."""
        bgp_states = bgp_states or {}
        devices = self.network.topology.nodes
        data_plane = DataPlane(devices, pec_range=self.pec.address_range)
        data_plane.annotations["failure"] = self.failure.describe(self.network.topology)
        control_plane: Dict[str, Route] = {}
        failed = self._failed_links()

        # Per-prefix OSPF and BGP entries, most specific prefixes last so that
        # equal-prefix conflicts are decided purely by administrative distance.
        for prefix in sorted(self.pec.prefixes, key=lambda p: p.length):
            self._install_ospf_entries(data_plane, prefix, failed)
            self._install_bgp_entries(data_plane, prefix, bgp_states.get(prefix), control_plane)

        # Static routes last: they may depend on entries installed above (for
        # recursive next hops resolved inside the same PEC).
        for prefix in sorted(self.pec.prefixes, key=lambda p: p.length):
            self._install_static_entries(data_plane, prefix, failed)

        return data_plane, control_plane

    def _ospf_origins_for(self, prefix: Prefix) -> List[str]:
        origins = set(self.pec.origins_for(prefix, "ospf"))
        # Redistribution needs a static route, so only those devices are asked.
        for name in self.ospf.static_route_devices():
            config = self.network.device(name)
            if config.ospf is not None and config.ospf.redistribute_static:
                if any(route.prefix == prefix for route in config.static_routes):
                    origins.add(name)
        return sorted(origins)

    def _install_ospf_entries(self, data_plane: DataPlane, prefix: Prefix, failed: Set[int]) -> None:
        origins = self._ospf_origins_for(prefix)
        if not origins:
            return
        table = self.ospf.compute(origins, failed)
        origin_set = set(origins)
        for node, distance in table.distances.items():
            if node in origin_set:
                data_plane.install(
                    node,
                    FibEntry(prefix=prefix, source=RouteSource.CONNECTED, delivers_locally=True),
                )
            else:
                next_hops = table.next_hops.get(node, ())
                if next_hops:
                    data_plane.install(
                        node,
                        FibEntry(
                            prefix=prefix,
                            next_hops=next_hops,
                            source=RouteSource.OSPF,
                            metric=int(distance),
                        ),
                    )

    def _install_bgp_entries(
        self,
        data_plane: DataPlane,
        prefix: Prefix,
        state: Optional[RpvpState],
        control_plane: Dict[str, Route],
    ) -> None:
        bgp_origin_devices = set(self.pec.origins_for(prefix, "bgp"))
        for origin in bgp_origin_devices:
            data_plane.install(
                origin,
                FibEntry(prefix=prefix, source=RouteSource.CONNECTED, delivers_locally=True),
            )
        if state is None:
            return
        for node, route in state.items():
            if route is None or route.path == EPSILON:
                if route is not None:
                    control_plane[node] = route
                continue
            control_plane[node] = route
            peer = route.path.head
            node_cfg = self.network.device(node)
            peer_cfg = self.network.device(peer)
            if node_cfg.bgp is None or peer_cfg.bgp is None:
                continue
            if node_cfg.bgp.asn != peer_cfg.bgp.asn:
                # eBGP: the peer is directly connected.
                data_plane.install(
                    node,
                    FibEntry(prefix=prefix, next_hops=(peer,), source=RouteSource.EBGP),
                )
            else:
                # iBGP: recurse through the IGP route to the peer's loopback.
                next_hops = self._resolve_ibgp_next_hops(node, peer)
                data_plane.install(
                    node,
                    FibEntry(
                        prefix=prefix,
                        next_hops=next_hops,
                        source=RouteSource.IBGP,
                        metric=route.igp_cost,
                    ),
                )

    def _resolve_ibgp_next_hops(self, node: str, peer: str) -> Tuple[str, ...]:
        loopback = self._loopback_of(peer)
        if loopback is not None:
            upstream = self.dependencies.next_hops_toward(node, loopback.first)
            if upstream:
                return upstream
        # Fall back to the IGP shortest path towards the peer.
        table = self.ospf.compute([peer], self._failed_links())
        return table.next_hops.get(node, ())

    def _install_static_entries(self, data_plane: DataPlane, prefix: Prefix, failed: Set[int]) -> None:
        for device in self.ospf.static_route_devices():
            resolution = resolve_static_routes(self.network, device, prefix, failed)
            if resolution is None:
                continue
            if resolution.drop:
                data_plane.install(
                    device,
                    FibEntry(prefix=prefix, source=RouteSource.STATIC, drop=True),
                )
                continue
            next_hops: List[str] = list(resolution.next_hop_nodes)
            for address_prefix in resolution.unresolved_ips:
                address = address_prefix.first
                if self.pec.address_range.contains_address(address):
                    entry = data_plane.lookup(device, address)
                    if entry is not None and entry.next_hops:
                        next_hops.extend(entry.next_hops)
                else:
                    next_hops.extend(self.dependencies.next_hops_toward(device, address))
            data_plane.install(
                device,
                FibEntry(
                    prefix=prefix,
                    next_hops=tuple(sorted(set(next_hops))),
                    source=RouteSource.STATIC,
                ),
            )
