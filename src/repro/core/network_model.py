"""The network model explored by the model checker, and the FIB builder.

This module is the Promela-model analogue of the paper's prototype: it wires
the RPVP semantics of :mod:`repro.protocols.rpvp` into the generic
:class:`~repro.modelcheck.explorer.Explorer`, applying the §4 optimizations by
shrinking the successor relation, and it assembles converged per-prefix
protocol states into network-wide data planes (the FIB model of §3.3).

There is one road from a converged state to its data plane:
:meth:`PecExplorer.explore` runs one kind of search (``_search``), accepts
converged states inside it by the same rule that ends executions
(``_successor_relation``) and builds each plane as the state is reached.

Sibling converged states differ in a few devices' routes (§4.4), so
:meth:`PecExplorer.build_data_plane` builds only the first plane of a task
from scratch — the protocol-major OSPF, BGP and static passes over every
device — and derives each later plane from it: the first plane's per-device
:class:`~repro.dataplane.Fib` objects, with only those of the devices that
hold other routes replaced, by tables interned per (device, route ids) and
built by the same passes restricted to those devices.  A single link failure
likewise moves only the devices whose shortest paths crossed the link, so a
PEC without BGP derives each failure task's plane from its failure-free
task's plane, kept on the shared :class:`OspfComputation`: only the devices
whose SPF entry moved, and the static-route devices, are rebuilt.  ``Fib``
objects are therefore shared between the planes of one task, and between the
tasks of a PEC without BGP; a derived plane records its base and the devices
it changed, so that a policy may check it from those devices alone.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import (
    Callable,
    Collection,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.config.objects import NetworkConfig
from repro.dataplane import DataPlane, Fib, FibEntry
from repro.exceptions import VerificationError
from repro.modelcheck.explorer import (
    COMPLETE,
    ExplorationStatistics,
    Explorer,
    ExplorerOptions,
    weakest,
)
from repro.modelcheck.por import ReductionStatistics
from repro.netaddr import Prefix
from repro.core.determinism import BgpDeterminism, OspfDeterminism, independence_groups
from repro.core.options import PlanktonOptions
from repro.core.successors import CandidateEngine, CandidateSets
from repro.modelcheck.hashing import ZobristFingerprinter
from repro.pec.classes import PacketEquivalenceClass
from repro.protocols.base import EPSILON, PathVectorInstance, Route, RouteSource
from repro.protocols.bgp import BgpInstance
from repro.protocols.interning import RouteInternTable, node_space_for
from repro.protocols.ospf import OspfComputation, OspfRoutingTable
from repro.protocols.ospf_instance import OspfInstance
from repro.protocols.rpvp import (
    RpvpState,
    RpvpTransition,
    enabled_nodes,
    initial_state,
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
        if pec.index not in self._data_planes:
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
    control_plane: Mapping[str, Route] = field(default_factory=dict)
    steps: List[object] = field(default_factory=list)


class _ControlPlane(Mapping):
    """device -> the route it selected, over the live BGP states of one plane
    (a longer prefix's over a shorter's), built on first read: most planes
    are checked by policies that never read it.  Pickles as a plain dict."""

    def __init__(self, states: Sequence[RpvpState]) -> None:
        self._states = states

    @functools.cached_property
    def _routes(self) -> Dict[str, Route]:
        routes: Dict[str, Route] = {}
        for state in self._states:
            route = state.intern_table.route
            for node, route_id in zip(state.node_names, state._ids):
                if route_id:
                    routes[node] = route(route_id)
        del self._states
        return routes

    def __getitem__(self, node: str) -> Route:
        return self._routes[node]

    def __iter__(self):
        return iter(self._routes)

    def __len__(self) -> int:
        return len(self._routes)

    def __repr__(self) -> str:
        return repr(self._routes)

    def __reduce__(self):
        return dict, (self._routes,)


class _PlaneInputs(NamedTuple):
    """The inputs every data plane of one task shares."""

    prefixes: List[Prefix]  # of the PEC, in install order
    failure_text: str
    failed: Set[int]
    ospf_origins: Dict[Prefix, List[str]]
    ospf_tables: Dict[Prefix, OspfRoutingTable]  # of the prefixes with OSPF origins
    bgp_origins: Dict[Prefix, Set[str]]


@dataclass
class _ReferencePlane:
    """The first data plane of a task, as later planes are derived from it."""

    prefixes: Tuple[Prefix, ...]  # the live BGP prefixes, in install order
    table: RouteInternTable  # the one their states' route ids live in
    names: Tuple[str, ...]  # slot -> device
    ids: List[Sequence[int]]  # the reference states' route-id arrays, per live prefix
    #: The first plane's FIBs, all shared, in a plane of their own: the base of
    #: every derived plane, never handed to a callback (an install into the
    #: first plane copies the table it writes to, so the reference holds).
    plane: DataPlane
    #: (slot, route id per live prefix) -> the FIB of that device holding those
    #: routes.
    interned: Dict[Tuple[int, ...], Fib] = field(default_factory=dict)


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
        #: The weakest completeness of the searches so far (Explorer.run's).
        self.completeness = COMPLETE
        self._reference: Optional[_ReferencePlane] = None

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
        """The BGP instance for ``prefix`` under this failure scenario.

        Its memo host is the PEC's, kept on the shared
        :class:`OspfComputation` (:meth:`~OspfComputation.pec_memos`, one PEC
        at a time): the failure tasks of one PEC run back to back in the
        independent expansion, and each eBGP advertisement is filtered and
        ranked once for all of them.  A task of another PEC replaces it.
        """
        hosts = self.ospf.pec_memos(self.pec).setdefault("bgp", {})
        return BgpInstance(
            self.network,
            prefix,
            failed_links=self._failed_links(),
            session_up=self._ibgp_session_up,
            igp_cost=self._igp_cost,
            memo_host=hosts.setdefault(prefix, {}),
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

        Every plane is built and handed to ``on_outcome`` *as the model
        checker reaches the converged state behind it*; a non-None return (a
        violation message) ends the search there — this is how the paper's
        prototype reports the first violating event sequence without
        enumerating the remaining converged states.  The planes are also
        returned unless ``keep_outcomes`` is False.

        A PEC without BGP has exactly one plane (OSPF and static routing are
        deterministic).  A PEC with several BGP prefixes converges per
        prefix independently: every prefix but the first is enumerated into
        a list, the first is streamed, and each of its converged states is
        crossed with the others' (first prefix slowest).  A prefix without
        any converged state therefore leaves the PEC without a plane.
        """
        outcomes: List[ConvergedOutcome] = []

        def emit(bgp_states: Dict[Prefix, RpvpState], steps: List[object]) -> Optional[str]:
            outcome = ConvergedOutcome(*self.build_data_plane(bgp_states), steps)
            if keep_outcomes:
                outcomes.append(outcome)
            return on_outcome(outcome) if on_outcome is not None else None

        if not self.options.fast_ospf:
            # The planes take their OSPF entries from the SPF table; the
            # search answers by agreeing with that table in every state it
            # accepts (the Figure 8 ablations time this search).
            for prefix, devices in self.pec.ospf_origins:
                if devices:
                    instance = self.ospf_instance(prefix)
                    analyzer = OspfDeterminism(instance) if self.flags.deterministic_nodes else None
                    self._search(instance, analyzer, self._spf_agreement(prefix))

        bgp_prefixes = [prefix for prefix, devices in self.pec.bgp_origins if devices]
        if not bgp_prefixes:
            emit({}, [])
            return outcomes

        def search(prefix: Prefix, on_converged) -> None:
            instance = self.bgp_instance(prefix)
            # The analyzer is always built: even with the deterministic-node
            # optimization off it provides the stability check that keeps
            # policy-based pruning sound (see ``_successor_relation``).
            self._search(instance, BgpDeterminism(instance), on_converged)

        streamed, *listed = bgp_prefixes
        if not listed:
            # The common case: one BGP prefix, nothing to cross.
            search(streamed, lambda state, labels: emit({streamed: state}, labels))
            return outcomes
        converged_of: List[List[Tuple[RpvpState, List[object]]]] = []
        for prefix in listed:
            found: List[Tuple[RpvpState, List[object]]] = []
            search(prefix, lambda state, labels: found.append((state, labels)))
            converged_of.append(found)

        def cross(state: RpvpState, labels: List[object]) -> Optional[str]:
            for combination in itertools.product(*converged_of):
                bgp_states = {streamed: state}
                steps = list(labels)
                for prefix, (other_state, other_labels) in zip(listed, combination):
                    bgp_states[prefix] = other_state
                    steps.extend(other_labels)
                violation = emit(bgp_states, steps)
                if violation is not None:
                    return violation
            return None

        search(streamed, cross)
        return outcomes

    def _spf_agreement(self, prefix: Prefix) -> Callable[[RpvpState, List[object]], None]:
        """The check of a model-checked OSPF search: every decided node of an
        accepted state holds the SPF distance of ``prefix``'s table, through
        one of its ECMP next hops (an origin: ``EPSILON`` at distance 0), and
        a state that ended by full convergence - not stopped by policy-based
        pruning once the sources decided - leaves no node SPF reaches
        undecided.  A disagreement raises :class:`VerificationError`."""
        table = self._plane_inputs.ospf_tables[prefix]
        distances, next_hops = table.distances, table.next_hops
        sources = [source for source in self.policy_sources or () if source in distances]
        prunes = self.flags.consistent_execution and self.flags.policy_based_pruning and sources

        def check(state: RpvpState, labels: List[object]) -> None:
            best = state.as_dict()
            for node, route in best.items():
                if route is None:
                    continue
                path = route.path
                on_spf = path.head in next_hops.get(node, ()) if path != EPSILON else route.igp_cost == 0
                if distances.get(node) != route.igp_cost or not on_spf:
                    raise VerificationError(
                        f"model-checked OSPF disagrees with SPF on {prefix} at {node}: "
                        f"{path} at cost {route.igp_cost}, SPF {distances.get(node)} "
                        f"via {next_hops.get(node, ())}"
                    )
            if not (prunes and all(best.get(source) is not None for source in sources)):
                undecided = [node for node in distances if node in best and best[node] is None]
                if undecided:
                    raise VerificationError(
                        f"model-checked OSPF converged on {prefix} with "
                        f"{', '.join(undecided)} undecided, which SPF reaches"
                    )

        return check

    def _search(
        self,
        instance: PathVectorInstance,
        analyzer: Union[BgpDeterminism, OspfDeterminism, None],
        on_converged: Callable[[RpvpState, List[object]], Optional[str]],
    ) -> None:
        """Model-check one protocol instance: every accepted converged state
        goes to ``on_converged(state, path labels)`` as it is reached, and a
        non-None return ends the search."""
        successors, accepts = self._successor_relation(instance, analyzer)

        def check_terminal(state: RpvpState, labels: List[object]) -> Optional[str]:
            accepted = accepts(state)
            # Converged states outlive the search inside outcomes; drop the
            # DFS ancestor chain and search caches they would otherwise pin
            # (after the acceptance test, which reuses the candidate sets).
            state.detach()
            return on_converged(state, labels) if accepted else None

        explorer = Explorer(
            successors=successors,
            check_terminal=check_terminal,
            options=ExplorerOptions(
                max_states=self.options.max_states_per_pec,
                max_seconds=self.options.max_seconds_per_pec,
                use_bitstate=self.flags.bitstate_hashing,
                bitstate_bits=self.options.bitstate_bits,
            ),
        )
        explorer.canonicalize = self._make_canonicalizer(explorer, instance)
        self.completeness = weakest(
            self.completeness, explorer.run(initial_state(instance), self.statistics)
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

    # ------------------------------------------------------------------ successor relation
    def _successor_relation(
        self,
        instance: PathVectorInstance,
        analyzer: Union[BgpDeterminism, OspfDeterminism, None],
    ) -> Tuple[
        Callable[[RpvpState], List[Tuple[object, RpvpState]]], Callable[[RpvpState], bool]
    ]:
        """``(successors, accepts)`` of one instance under the §4 flags.

        ``successors`` is the RPVP successor relation shrunk by the enabled
        optimizations; ``accepts`` says whether a state it ends an execution
        at is a converged state to report.  Both read one rule, ``halts``.
        """
        flags = self.flags
        reduction = self.reduction
        if not flags.consistent_execution:
            # The unoptimised semantics: every enabled node branches, and an
            # execution ends only where no node is enabled.
            def every_successor(state: RpvpState) -> List[Tuple[object, RpvpState]]:
                expansion = rpvp_successors(instance, state)
                if expansion:
                    reduction.observe_expansion(
                        enabled=len(expansion), expanded=len(expansion), reduced=False
                    )
                return expansion

            return every_successor, lambda state: not enabled_nodes(instance, state)

        # The candidate sets are maintained incrementally: a state derived
        # from its parent by one node's decision re-evaluates only that node
        # and merges its new advertisement into what the parent knew of the
        # nodes that read it (see repro.core.successors).
        engine = CandidateEngine(instance)
        # Policy sources that participate in this instance, as state-array
        # slots: "every source has decided" is "every slot holds a non-zero
        # route id".
        slot_of = node_space_for(instance).slot_of
        source_slots = tuple(
            slot_of[source] for source in (self.policy_sources or ()) if source in slot_of
        )
        prunes = flags.policy_based_pruning and bool(source_slots)
        # Only BGP decisions can be overturned by a later, better update.
        stable = (
            analyzer.decisions_are_stable
            if isinstance(analyzer, BgpDeterminism)
            else (lambda state: True)
        )
        determinism = analyzer if flags.deterministic_nodes else None
        spf_ordered = isinstance(determinism, OspfDeterminism)
        defer = set(self.policy_sources or ())

        def halts(state: RpvpState, cache: CandidateSets) -> Optional[bool]:
            """Why the execution ends at ``state``: False — it is inconsistent
            with every converged state and abandoned; True — it is accepted
            as converged; None — it goes on."""
            # Consistent executions only (§4.1.1): a node that has selected a
            # path never changes it, so a decided node that could still be
            # improved means this execution leads to no converged state.
            if cache.decided_pending:
                return False
            # Policy-based pruning (§4.2): once every source node has decided,
            # the forwarding the policy inspects is fixed, so stop here —
            # provided no decided node could still be forced to change its
            # selection later.
            if prunes and all(state._ids[slot] for slot in source_slots) and stable(state):
                return True
            if cache.updates:
                return None
            # Full convergence: no node is enabled, so no undecided peer will
            # ever advertise and every decided selection is final.
            return True

        def successors(state: RpvpState) -> List[Tuple[object, RpvpState]]:
            cache = engine.candidates(state)
            candidates_of = cache.updates
            enabled_count = cache.enabled_count

            if halts(state, cache) is not None:
                if enabled_count:
                    reduction.observe_expansion(enabled=enabled_count, expanded=0, reduced=True)
                return []

            decision = None
            if spf_ordered:
                decision = determinism.pick(candidates_of)
            elif determinism is not None:
                decision = determinism.analyze(
                    state, candidates_of, cache.best_rank, defer=defer
                )
            if decision is not None and decision.node is not None:
                moves = [(decision.node, peer, route) for peer, route in decision.candidates]
            else:
                enabled = sorted(candidates_of)
                if flags.decision_independence and len(enabled) > 1:
                    groups = independence_groups(instance, state, enabled)
                    if groups:
                        enabled = groups[0]
                moves = [
                    (node, peer, route) for node in enabled for peer, route in candidates_of[node]
                ]
            reduction.observe_expansion(
                enabled=enabled_count, expanded=len(moves), reduced=len(moves) < enabled_count
            )
            return [
                (
                    RpvpTransition(node=node, new_route=route, from_peer=peer),
                    state.with_best(node, route),
                )
                for node, peer, route in moves
            ]

        return successors, lambda state: halts(state, engine.candidates(state)) is True

    # ------------------------------------------------------------------ FIB construction
    def build_data_plane(
        self,
        bgp_states: Optional[Dict[Prefix, RpvpState]] = None,
    ) -> Tuple[DataPlane, Mapping[str, Route]]:
        """Combine per-prefix protocol results into a network-wide data plane,
        and the control plane behind it (built when first read).

        A plane is either built from scratch (``_install_entries`` over all
        devices) or derived from a reference plane (``_derived_plane``): the
        reference's FIBs with only the devices that may differ rebuilt, the
        reference as its ``base`` and those devices as its ``changed``.

        * With live BGP states, the first plane of a task is built from
          scratch, and a snapshot of it, with the route-id arrays of the
          states behind it, becomes the task's reference.  Every later plane
          over the same live BGP prefixes is derived from it, rebuilding the
          devices whose route ids differ (``_route_derived_plane``).
        * Without (a PEC without BGP has one plane per task), the failure-free
          task's plane is built from scratch and its snapshot kept on the
          shared :class:`OspfComputation` as the PEC's reference
          (``pec_memos(pec)["reference_plane"]``).  A failure task of the
          same PEC derives its plane from it, rebuilding the devices whose
          SPF entry the failure moved (:meth:`OspfComputation.moved`) and
          every static-route device (static routes read the failed links and
          the task's dependencies).
          On a miss — another PEC's reference, or none — it builds from
          scratch and keeps nothing.

        Planes therefore *share* :class:`Fib` objects, across the tasks of a
        PEC without BGP too; see :meth:`DataPlane.install` for what that
        means to a caller who edits a plane.
        """
        bgp_states = bgp_states or {}
        live = {
            prefix: bgp_states[prefix]
            for prefix in self._plane_inputs.prefixes
            if bgp_states.get(prefix) is not None
        }
        states = list(live.values())
        failed = self._plane_inputs.failed
        reference = self._reference
        kept = self.ospf.pec_memos(self.pec).get("reference_plane") if failed and not live else None
        if (
            reference is not None
            and reference.prefixes == tuple(live)
            and all(state.intern_table is reference.table for state in states)
        ):
            data_plane = self._route_derived_plane(reference, live)
        elif kept is not None:
            moved = self._moved_devices()
            data_plane = self._derived_plane(
                kept, dict(kept.fibs), tuple(sorted(moved)), moved, live
            )
        else:
            data_plane = DataPlane(self.network.topology.nodes, pec_range=self.pec.address_range)
            self._install_entries(data_plane, live)
            # One intern table (one node space) under every live prefix is
            # what makes a slot one device and its ids comparable across
            # planes; BGP speakers do not depend on the prefix, so it holds.
            table = states[0].intern_table if states else None
            if states and all(state.intern_table is table for state in states):
                self._reference = _ReferencePlane(
                    prefixes=tuple(live),
                    table=table,
                    names=states[0].node_names,
                    ids=[state._ids for state in states],
                    plane=self._snapshot(data_plane),
                )
            elif not live and not failed:
                self.ospf.pec_memos(self.pec)["reference_plane"] = self._snapshot(data_plane)
        data_plane.annotations["failure"] = self._plane_inputs.failure_text
        return data_plane, _ControlPlane(states)

    def _snapshot(self, data_plane: DataPlane) -> DataPlane:
        """A plane of its own holding ``data_plane``'s FIBs, all shared: the
        base of every plane derived from it, never handed to a callback (an
        install into ``data_plane`` copies the table it writes to, so the
        snapshot holds)."""
        snapshot = DataPlane((), pec_range=self.pec.address_range)
        snapshot.fibs = dict(data_plane.fibs)
        for fib in snapshot.fibs.values():
            fib.share()
        return snapshot

    def _moved_devices(self) -> Set[str]:
        """The devices whose FIB may differ between this failure's plane and
        the failure-free plane of a PEC without BGP: those whose SPF entry
        toward an OSPF origin set of the PEC moved, and every static-route
        device."""
        inputs = self._plane_inputs
        devices = set(self.ospf.static_route_devices())
        for origins in inputs.ospf_origins.values():
            if origins:
                devices.update(self.ospf.moved(origins, inputs.failed))
        return devices

    def _derived_plane(
        self,
        base: DataPlane,
        fibs: Dict[str, Fib],
        changed: Tuple[str, ...],
        missing: Collection[str],
        live: Dict[Prefix, RpvpState],
    ) -> DataPlane:
        """A plane derived from ``base``, recording it and the ``changed``
        devices: ``fibs`` — ``base``'s FIBs, in its device order, with those
        of the changed devices already swapped in — completed by the FIBs of
        the ``missing`` ones, built by the install passes restricted to them
        (and shared from here on).  The document is the from-scratch build's."""
        if missing:
            built = DataPlane(missing)
            self._install_entries(built, live, only=missing)
            for device, fib in built.fibs.items():
                fibs[device] = fib
                fib.share()
        data_plane = DataPlane((), pec_range=self.pec.address_range)
        data_plane.fibs, data_plane.base, data_plane.changed = fibs, base, changed
        return data_plane

    def _route_derived_plane(
        self, reference: _ReferencePlane, live: Dict[Prefix, RpvpState]
    ) -> DataPlane:
        """The plane derived from the task's reference that differs from it in
        the devices holding other BGP routes.

        A device's FIB is a function of the task and that device's own BGP
        routes, so the replacements are interned per (slot, route id per live
        prefix); a miss is built by ``_derived_plane`` and interned.
        """
        interned = reference.interned
        arrays = [state._ids for state in live.values()]
        differing: Set[int] = set()
        for ids, reference_ids in zip(arrays, reference.ids):
            if ids != reference_ids:
                differing.update(
                    itertools.compress(itertools.count(), map(operator.ne, ids, reference_ids))
                )
        changed = list(differing)
        names = reference.names
        fibs = dict(reference.plane.fibs)
        missing: Dict[str, Tuple[int, ...]] = {}
        # One key per changed slot: (slot, its route id under each live prefix).
        for key in zip(changed, *([ids[slot] for slot in changed] for ids in arrays)):
            fib = interned.get(key)
            if fib is None:
                missing[names[key[0]]] = key
            else:
                fibs[fib.device] = fib
        # From a list, not a generator: a tuple built from a generator is
        # allocated at a guessed size and resized, and once freed it parks in
        # the free list of its final size — 0.75 MB of peak RSS on a k=4
        # fabric under two failures.
        data_plane = self._derived_plane(
            reference.plane, fibs, tuple([names[slot] for slot in changed]), missing, live
        )
        for device, key in missing.items():
            interned[key] = fibs[device]
        return data_plane

    @functools.cached_property
    def _plane_inputs(self) -> _PlaneInputs:
        """What every plane of this task is built from, computed once."""
        # Most specific prefixes last so that equal-prefix conflicts are
        # decided purely by administrative distance.
        prefixes = sorted(self.pec.prefixes, key=lambda p: p.length)
        failed = self._failed_links()
        ospf_origins = {prefix: self._ospf_origins_for(prefix) for prefix in prefixes}
        return _PlaneInputs(
            prefixes=prefixes,
            failure_text=self.failure.describe(self.network.topology),
            failed=failed,
            ospf_origins=ospf_origins,
            ospf_tables={
                prefix: self.ospf.compute(origins, failed)
                for prefix, origins in ospf_origins.items()
                if origins
            },
            bgp_origins={prefix: set(self.pec.origins_for(prefix, "bgp")) for prefix in prefixes},
        )

    def _install_entries(
        self,
        data_plane: DataPlane,
        bgp_states: Dict[Prefix, RpvpState],
        only: Optional[Collection[str]] = None,
    ) -> None:
        """The OSPF, BGP and static passes over the devices of ``data_plane``:
        all of the network's, or the ones ``only`` names."""
        prefixes = self._plane_inputs.prefixes
        for prefix in prefixes:
            self._install_ospf_entries(data_plane, prefix, only)
            self._install_bgp_entries(data_plane, prefix, bgp_states.get(prefix), only)
        # Static routes last: they may depend on entries installed above (for
        # recursive next hops resolved inside the same PEC).
        for prefix in prefixes:
            self._install_static_entries(data_plane, prefix, only)

    def _ospf_origins_for(self, prefix: Prefix) -> List[str]:
        origins = set(self.pec.origins_for(prefix, "ospf"))
        # Redistribution needs a static route, so only those devices are asked.
        for name in self.ospf.static_route_devices():
            config = self.network.device(name)
            if config.ospf is not None and config.ospf.redistribute_static:
                if any(route.prefix == prefix for route in config.static_routes):
                    origins.add(name)
        return sorted(origins)

    def _install_ospf_entries(
        self, data_plane: DataPlane, prefix: Prefix, only: Optional[Collection[str]]
    ) -> None:
        table = self._plane_inputs.ospf_tables.get(prefix)
        if table is None:
            return
        origin_set = set(self._plane_inputs.ospf_origins[prefix])
        distances = table.distances
        if only is not None:
            distances = {node: distances[node] for node in only if node in distances}
        # Devices at one distance behind the same next hops hold equal
        # entries (a fat tree has a few dozen per prefix): build each once.
        entries: Dict[Tuple[Tuple[str, ...], float], FibEntry] = {}
        for node, distance in distances.items():
            if node in origin_set:
                data_plane.install(
                    node,
                    FibEntry(prefix=prefix, source=RouteSource.CONNECTED, delivers_locally=True),
                )
            else:
                next_hops = table.next_hops.get(node, ())
                if next_hops:
                    entry = entries.get((next_hops, distance))
                    if entry is None:
                        entry = entries[next_hops, distance] = FibEntry(
                            prefix=prefix,
                            next_hops=next_hops,
                            source=RouteSource.OSPF,
                            metric=int(distance),
                        )
                    data_plane.install(node, entry)

    def _install_bgp_entries(
        self,
        data_plane: DataPlane,
        prefix: Prefix,
        state: Optional[RpvpState],
        only: Optional[Collection[str]],
    ) -> None:
        for origin in self._plane_inputs.bgp_origins[prefix]:
            if only is not None and origin not in only:
                continue
            data_plane.install(
                origin,
                FibEntry(prefix=prefix, source=RouteSource.CONNECTED, delivers_locally=True),
            )
        if state is None:
            return
        for node, route in state.items():
            if route is None or route.path == EPSILON:
                continue
            if only is not None and node not in only:
                continue
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
        table = self.ospf.compute([peer], self._plane_inputs.failed)
        return table.next_hops.get(node, ())

    def _install_static_entries(
        self, data_plane: DataPlane, prefix: Prefix, only: Optional[Collection[str]]
    ) -> None:
        failed = self._plane_inputs.failed
        for device in self.ospf.static_route_devices():
            if only is not None and device not in only:
                continue
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
