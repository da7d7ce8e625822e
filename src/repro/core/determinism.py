"""Deterministic-node detection heuristics (paper §4.1.2) and decision independence (§4.1.3).

The heart of Plankton's partial-order reduction: at each step of the RPVP
exploration, if some enabled node can be shown to have a *guaranteed winning*
update — one that no future advertisement could ever beat — then only that
node is executed, avoiding the branching over all enabled nodes.

* For OSPF the heuristic is a network-wide shortest-path computation: a node
  is allowed to execute only after all nodes with shorter paths have executed
  (the SPF distances are cached per topology/failures/origins in
  :class:`repro.protocols.ospf.OspfComputation`).

* For BGP the heuristic follows the decision process conservatively: an
  update is a guaranteed winner when its rank is strictly better than a lower
  bound on the rank of any update that could still arrive from a peer that
  has not yet decided.  The lower bound uses the highest local preference any
  import policy could assign, the minimum possible AS-path length in the
  session graph, and the minimum IGP cost among peers — the same three checks
  the paper describes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.modelcheck.por.independence import node_independence_groups
from repro.protocols.base import PathVectorInstance, Route
from repro.protocols.bgp import BgpInstance
from repro.protocols.filters import maximum_local_pref
from repro.protocols.interning import node_space_for
from repro.protocols.ospf_instance import OspfInstance
from repro.protocols.rpvp import RpvpState


@dataclass
class NodeDecision:
    """What the determinism analysis concluded for one step.

    ``kind`` is one of:

    * ``"deterministic"`` — ``node`` has a single guaranteed-winning update;
      only that successor needs exploring.
    * ``"tied"`` — ``node``'s possible winners are all already visible, but
      there are several of them; branch over those updates only.
    * ``"none"`` — no node could be resolved; fall back to branching over all
      enabled nodes.
    """

    kind: str
    node: Optional[str] = None
    candidates: Tuple[Tuple[str, Route], ...] = ()


class OspfDeterminism:
    """Deterministic execution order for OSPF: increasing SPF distance."""

    def __init__(self, instance: OspfInstance) -> None:
        self.instance = instance
        # The execution order as one total key per node: its place by
        # (SPF distance, name); the nodes no origin reaches come after the
        # ``_reachable`` that have one.
        ordered = instance.deterministic_order()
        self._reachable = len(ordered)
        unreachable = sorted(set(instance.nodes()).difference(ordered))
        self._order: Dict[str, int] = {
            node: place for place, node in enumerate(ordered + tuple(unreachable))
        }

    def pick(self, candidates_of: Dict[str, List[Tuple[str, Route]]]) -> NodeDecision:
        """Pick the enabled node closest to an origin; its best update is final.

        ``candidates_of`` maps each enabled node to its (non-empty) best
        updates; the order of its keys does not matter.
        """
        order = self._order
        chosen = min(candidates_of, key=order.__getitem__, default=None)
        if chosen is None or order[chosen] >= self._reachable:
            return NodeDecision(kind="none")
        # Equal-cost candidates lead to the same converged cost; the FIB model
        # re-derives the full ECMP next-hop set from the SPF table, so a single
        # representative suffices here.
        return NodeDecision(
            kind="deterministic", node=chosen, candidates=(candidates_of[chosen][0],)
        )


class BgpDeterminism:
    """Guaranteed-winner detection for BGP (paper §4.1.2)."""

    def __init__(self, instance: BgpInstance) -> None:
        self.instance = instance
        self.network = instance.network
        self._origins = frozenset(instance.origins())
        self._global_max_local_pref = self._compute_global_max_local_pref()
        self._session_max_local_pref = self._compute_session_local_pref_bounds()
        self._min_as_hops = self._compute_min_as_hops()
        self._session_bounds: Dict[Tuple[str, str], Optional[Tuple]] = {}
        # node -> ((bound, peer slot), ...) over the peers with a bound,
        # lowest bound first: what _best_future_rank reads, built on first ask.
        self._future_bounds: Dict[str, Tuple[Tuple[Tuple, int], ...]] = {}
        # affected(v) = {v} ∪ {n : v ∈ peers(n)} — the nodes whose stability
        # verdict can change when v's entry changes: v itself (its decidedness
        # and current rank) and every node that reads v's decidedness through
        # _best_future_rank.  Computed once; peers() is not assumed symmetric.
        affected: Dict[str, set] = {node: {node} for node in instance.nodes()}
        for node in instance.nodes():
            for peer in instance.peers(node):
                if peer in affected:
                    affected[peer].add(node)
        self._stability_affected: Dict[str, frozenset] = {
            node: frozenset(members) for node, members in affected.items()
        }

    # ------------------------------------------------------------------ bounds
    def _compute_global_max_local_pref(self) -> int:
        highest = 0
        for name in self.instance.nodes():
            config = self.network.device(name)
            default = config.bgp.default_local_pref if config.bgp else 100
            highest = max(highest, maximum_local_pref(config, default))
        return highest

    def _compute_session_local_pref_bounds(self) -> Dict[Tuple[str, str], int]:
        """Upper bound on the local preference node n can end up with via peer p."""
        bounds: Dict[Tuple[str, str], int] = {}
        for node in self.instance.nodes():
            config = self.network.device(node)
            if config.bgp is None:
                continue
            for session in config.bgp.neighbors:
                if session.is_ibgp(config.bgp.asn):
                    # Local preference is carried over iBGP; it could have been
                    # set anywhere in the AS.
                    bound = self._global_max_local_pref
                else:
                    bound = config.bgp.default_local_pref
                    if session.import_map is not None:
                        route_map = config.route_maps.get(session.import_map)
                        if route_map is not None:
                            for clause in route_map.clauses:
                                if clause.permit and clause.actions.local_preference is not None:
                                    bound = max(bound, clause.actions.local_preference)
                bounds[(node, session.peer)] = bound
        return bounds

    def _compute_min_as_hops(self) -> Dict[str, int]:
        """Minimum achievable AS-path length per node (0/1-weight Dijkstra).

        An advertisement gains one AS hop whenever it crosses an eBGP session
        and none over iBGP, so the minimum possible AS-path length of any
        route a node can ever hold is the 0/1-shortest distance from the
        origins in the session graph.  Prepending can only increase it, so
        this is a sound lower bound.
        """
        distances: Dict[str, int] = {}
        heap: List[Tuple[int, str]] = []
        for origin in self.instance.origins():
            distances[origin] = 0
            heapq.heappush(heap, (0, origin))
        while heap:
            dist, node = heapq.heappop(heap)
            if dist > distances.get(node, 1 << 30):
                continue
            node_asn = self.network.device(node).bgp.asn
            for peer in self.instance.peers(node):
                peer_asn = self.network.device(peer).bgp.asn
                step = 0 if peer_asn == node_asn else 1
                candidate = dist + step
                if candidate < distances.get(peer, 1 << 30):
                    distances[peer] = candidate
                    heapq.heappush(heap, (candidate, peer))
        return distances

    def _peer_can_ever_advertise(self, node: str, peer: str) -> bool:
        """Whether ``peer`` could ever send ``node`` an advertisement.

        A non-origin iBGP peer with no eBGP sessions that is not a route
        reflector for ``node`` can never advertise anything (standard iBGP
        loop prevention: iBGP-learned routes are not passed to iBGP peers), so
        it never contributes a "future" update.
        """
        if peer in self._origins:
            return True
        peer_cfg = self.network.device(peer)
        node_cfg = self.network.device(node)
        if peer_cfg.bgp is None or node_cfg.bgp is None:
            return False
        if peer_cfg.bgp.asn != node_cfg.bgp.asn:
            return True  # eBGP peer: may forward anything it learns.
        session = peer_cfg.bgp.neighbor(node)
        if session is not None and session.route_reflector_client:
            return True
        # iBGP peer: can only pass on routes it originated or learned via eBGP.
        return any(
            not neighbor.is_ibgp(peer_cfg.bgp.asn) for neighbor in peer_cfg.bgp.neighbors
        )

    # ------------------------------------------------------------------ analysis
    def _best_future_rank(self, node: str, state: RpvpState) -> Optional[Tuple]:
        """Lower bound on the rank of any update that could still arrive at ``node``.

        Only peers that have not yet decided (best path still ⊥) can produce
        *new* advertisements in a consistent execution; decided peers already
        contributed their final advertisement to the current candidate set.
        Returns None when no future update is possible.  The node's sessions
        are sorted by their bound once, so the first undecided peer in that
        order gives the minimum.
        """
        bounds = self._future_bounds.get(node)
        if bounds is None:
            slot_of = node_space_for(self.instance).slot_of
            entries = []
            for peer in self.instance.peers(node):
                bound = self.session_rank_bound(node, peer)
                if bound is not None:
                    entries.append((bound, slot_of[peer]))
            entries.sort(key=itemgetter(0))
            bounds = self._future_bounds[node] = tuple(entries)
        ids = state._ids
        for bound, slot in bounds:
            if not ids[slot]:
                return bound
        return None

    def session_rank_bound(self, node: str, peer: str) -> Optional[Tuple]:
        """Static lower bound on the rank of any route ``node`` can import from ``peer``.

        Local-pref upper bound for the session, 0/1 AS-hop distance of the
        peer, IGP cost of the session.  The bound holds for *every*
        advertisement the peer could ever send — decided or not: the
        future-rank analysis takes it over the undecided peers, and the
        transient partial-order reduction uses it to prove a receiver's best
        path immune to further deliveries on the session.  Returns None when
        the peer can never advertise anything at all (it can never obtain a
        route, or iBGP loop prevention keeps it silent towards ``node``).
        A function of the instance alone, so computed once per session.
        """
        key = (node, peer)
        try:
            return self._session_bounds[key]
        except KeyError:
            bound = self._session_bounds[key] = self._compute_session_rank_bound(node, peer)
            return bound

    def _compute_session_rank_bound(self, node: str, peer: str) -> Optional[Tuple]:
        if peer not in self._min_as_hops:
            return None
        if not self._peer_can_ever_advertise(node, peer):
            return None
        config = self.network.device(node)
        peer_asn = self.network.device(peer).bgp.asn
        is_ibgp = peer_asn == config.bgp.asn
        local_pref_bound = self._session_max_local_pref.get(
            (node, peer), self._global_max_local_pref
        )
        as_path_bound = self._min_as_hops[peer] + (0 if is_ibgp else 1)
        igp_bound = 0 if not is_ibgp else int(self.instance.igp_cost(node, peer))
        return (
            -local_pref_bound,
            as_path_bound,
            0,  # MED lower bound
            1 if is_ibgp else 0,
            igp_bound,
        )

    def _node_is_unstable(self, node: str, state: RpvpState) -> bool:
        """Whether ``node`` is decided but could still receive a better update."""
        route = state.best(node)
        if route is None:
            return False
        future = self._best_future_rank(node, state)
        return future is not None and future < self.instance.cached_rank(node, route)

    def _scan_unstable(self, state: RpvpState) -> frozenset:
        """Unstable nodes of a state with somebody undecided.

        A decided node can only be unstable through an *undecided* peer (see
        :meth:`_best_future_rank`), so the scan visits the undecided slots
        and evaluates their readers, not every node.
        """
        readers: Set[str] = set()
        for node, route_id in zip(state.node_names, state._ids):
            if not route_id:
                readers.update(self._stability_affected.get(node, ()))
        return frozenset(node for node in readers if self._node_is_unstable(node, state))

    def unstable_nodes(self, state: RpvpState) -> frozenset:
        """The decided nodes whose selection a future update could still beat.

        Cached on the state.  A search asks only at the states where an
        execution ends (policy-pruned ones), so no parent or close ancestor
        carries an answer to derive from: each state is scanned once.
        """
        if state._stability_token is self:
            return state._stability_cache
        if all(state._ids):
            # Nobody is undecided, so no update can arrive any more (every
            # state a search converges in on an un-partitioned fabric).
            cache = frozenset()
        else:
            cache = self._scan_unstable(state)
        state._stability_token = self
        state._stability_cache = cache
        return cache

    def decisions_are_stable(self, state: RpvpState) -> bool:
        """Whether every decided node's selection could survive to convergence.

        Used when policy-based pruning wants to finish an execution early
        (paper §4.2): the partial execution is only *assumed* consistent, and
        accepting it is unsafe if some decided node could still receive a
        strictly better update (the node would then be forced to change its
        path, contradicting consistency).  A tie is fine — on ties a node
        keeps its current path.
        """
        return not self.unstable_nodes(state)

    def analyze(
        self,
        state: RpvpState,
        candidates_of: Dict[str, List[Tuple[str, Route]]],
        best_rank: Dict[str, Tuple],
        defer: Optional[Set[str]] = None,
    ) -> NodeDecision:
        """Classify the current step (see :class:`NodeDecision`).

        ``candidates_of`` maps each enabled (undecided) node to its currently
        best-ranked updates (the RPVP set ``U``), and ``best_rank`` each such
        node to the rank they share (both as the candidate sets of
        :mod:`repro.core.successors` carry them).  A future update that merely
        *ties* with the currently best candidate does not block the decision:
        BGP's age-based tie-breaking keeps the already-received route (the
        paper's extension models exactly this partial-order ranking), so the
        present candidates are the possible winners.

        Nodes in ``defer`` (typically the policy's source nodes) are decided
        last, so that by the time a source executes, all of its potential
        advertisers have decided and every tie the policy cares about is
        branched over.
        """
        tied_choice: Optional[Tuple[str, Tuple[Tuple[str, Route], ...]]] = None
        ordering = sorted(candidates_of)
        if defer:
            # The deferred nodes last, each part still in name order (the
            # sort is stable).
            ordering.sort(key=defer.__contains__)
        for node in ordering:
            candidates = candidates_of[node]
            if not candidates:
                continue
            future = self._best_future_rank(node, state)
            if future is not None and future < best_rank[node]:
                # A strictly better update may still arrive; undecidable now.
                continue
            if len(candidates) == 1:
                return NodeDecision(
                    kind="deterministic", node=node, candidates=(candidates[0],)
                )
            if tied_choice is None:
                tied_choice = (node, tuple(candidates))
        if tied_choice is not None:
            node, candidates = tied_choice
            return NodeDecision(kind="tied", node=node, candidates=candidates)
        return NodeDecision(kind="none")


def independence_groups(
    instance: PathVectorInstance,
    state: RpvpState,
    enabled: Sequence[str],
) -> List[List[str]]:
    """Partition the enabled nodes into decision-independent groups (§4.1.3).

    Two undecided nodes are independent when every advertisement path between
    them in the peer graph crosses a node that has already made its decision
    (and therefore will not relay further updates).  Concretely: compute the
    connected components of the peer graph restricted to undecided nodes; two
    enabled nodes in different components are independent, so exploring them
    in a single fixed order (component by component) is sufficient.

    The partition itself lives with the rest of the partial-order-reduction
    machinery (:func:`repro.modelcheck.por.node_independence_groups`); this
    wrapper binds it to the RPVP notion of "undecided" (best path still ⊥).
    """
    undecided = {node for node, route_id in zip(state.node_names, state._ids) if not route_id}
    return node_independence_groups(instance.peers, undecided, enabled)
