"""The Reduced Path Vector Protocol (RPVP), paper §3.4.2, Algorithm 1.

RPVP replaces SPVP's message passing with a shared-memory model: the network
state is exactly the best route of every node.  At each step one *enabled*
node is non-deterministically picked; it either clears an invalid best path
or adopts the advertisement of one of its best updating peers (again a
non-deterministic choice when several peers are tied under the ranking
function).  When no node is enabled the state is converged.

Theorem 1 of the paper shows that exploring RPVP executions (with failures
applied before the protocol starts) covers every converged state SPVP can
reach, so the model checker only needs this much simpler protocol.

This module implements the raw, *unoptimized* semantics.  The verifier core
layers partial-order reduction and the other §4 optimizations on top of the
successor relation defined here.

:class:`RpvpState` is the id-array kernel of
:mod:`repro.protocols.interning` over the node space of its sorted node set:
one route id per node.  An SPVP state's best block is laid out the same way,
so a converged SPVP state *is* an RPVP state (Theorem 1) by a slice of its
id array, in the same intern table.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ProtocolError
from repro.protocols.base import EPSILON, PathVectorInstance, Route
from repro.protocols.interning import IdArrayState, _NodeSpace, node_space


# --------------------------------------------------------------------------- state
class RpvpState(IdArrayState):
    """An RPVP network state: the best route of every node.

    An :class:`~repro.protocols.interning.IdArrayState` over the node space
    of its (sorted) node set: the names and the route intern table live once
    in the shared space, and each state stores one route id per node, in
    sorted-name order.  Copy-on-write in :meth:`with_best` is one memcpy of
    machine integers plus a one-triple delta, which the model checker uses
    for O(1) incremental Zobrist fingerprints (paper §4.4) and incremental
    successor candidate sets.
    """

    __slots__ = (
        "_engine_token",
        "_engine_cache",
        "_stability_token",
        "_stability_cache",
    )

    _SEARCH_SLOTS = (
        "_fp_token",
        "_engine_token",
        "_engine_cache",
        "_stability_token",
        "_stability_cache",
    )

    def __init__(self, assignments: Iterable[Tuple[str, Optional[Route]]]) -> None:
        pairs = sorted(assignments, key=lambda item: item[0])
        space = node_space(tuple(name for name, _route in pairs))
        route_id = space.table.route_id
        self._init(space, array("i", [route_id(route) for _name, route in pairs]))

    def _init(
        self,
        space: _NodeSpace,
        ids: "array[int]",
        parent: Optional["RpvpState"] = None,
        delta: Tuple[Tuple[int, int, int], ...] = (),
    ) -> "RpvpState":
        # ``delta`` is one ``(slot, old_id, new_id)`` triple for a state out
        # of :meth:`with_best`: the fingerprint folds the two ids out and in;
        # the candidate engine looks up what the node advertised under the
        # old id and advertises under the new one; the stability analysis
        # reads the slot only.
        self._init_ids(space, ids, parent, delta)
        self._engine_token = None
        self._engine_cache = None
        self._stability_token = None
        self._stability_cache = None
        return self

    @staticmethod
    def from_dict(best: Dict[str, Optional[Route]]) -> "RpvpState":
        """Build a state from a node -> route mapping."""
        return RpvpState(best.items())

    @property
    def assignments(self) -> Tuple[Tuple[str, Optional[Route]], ...]:
        """The (node, route) pairs in node order (materialized on demand)."""
        return tuple(zip(self._space.names, self.routes()))

    def routes(self) -> List[Optional[Route]]:
        """The route vector in node order."""
        route = self._space.table.route
        return [route(rid) for rid in self._ids]

    def items(self) -> Iterable[Tuple[str, Optional[Route]]]:
        """Iterate (node, route) pairs without materializing a tuple."""
        route = self._space.table.route
        for name, rid in zip(self._space.names, self._ids):
            yield name, route(rid)

    @property
    def node_names(self) -> Tuple[str, ...]:
        """The sorted node names (shared across states of one node set)."""
        return self._space.names

    def best(self, node: str) -> Optional[Route]:
        """The best route of ``node`` (None = no route, the paper's ⊥)."""
        try:
            slot = self._space.slot_of[node]
        except KeyError:
            raise ProtocolError(f"node {node!r} not part of this RPVP state") from None
        return self._space.table.route(self._ids[slot])

    def as_dict(self) -> Dict[str, Optional[Route]]:
        """A mutable copy of the assignment."""
        return dict(zip(self._space.names, self.routes()))

    def with_best(self, node: str, route: Optional[Route]) -> "RpvpState":
        """A new state with ``node``'s best route replaced.

        One flat array copy plus an integer store, recording the single-slot
        delta for incremental fingerprinting / successor generation.
        """
        try:
            slot = self._space.slot_of[node]
        except KeyError:
            raise ProtocolError(f"node {node!r} not part of this RPVP state") from None
        ids = array("i", self._ids)
        old = ids[slot]
        new = self._space.table.route_id(route)
        ids[slot] = new
        return RpvpState.__new__(RpvpState)._init(
            self._space, ids, parent=self, delta=((slot, old, new),)
        )

    def __repr__(self) -> str:
        decided = sum(1 for route in self.routes() if route is not None)
        return f"RpvpState({decided}/{len(self)} decided)"

    def __reduce__(self):
        return (RpvpState, (self.assignments,))

    def __len__(self) -> int:
        return len(self._space.names)


@dataclass(frozen=True)
class RpvpTransition:
    """One RPVP step: ``node`` adopted ``new_route`` (None = cleared invalid path)."""

    node: str
    new_route: Optional[Route]
    from_peer: Optional[str] = None

    def describe(self) -> str:
        if self.new_route is None:
            return f"{self.node} withdraws its (invalid) best path"
        peer = f" from {self.from_peer}" if self.from_peer else ""
        return f"{self.node} selects {self.new_route.describe()}{peer}"


def initial_state(instance: PathVectorInstance) -> RpvpState:
    """The RPVP initial state: origins hold their own route, others hold ⊥."""
    best: Dict[str, Optional[Route]] = {}
    origin_set = set(instance.origins())
    for node in instance.nodes():
        if node in origin_set:
            best[node] = instance.origin_route(node)  # type: ignore[attr-defined]
        else:
            best[node] = None
    return RpvpState.from_dict(best)


def is_invalid(instance: PathVectorInstance, state: RpvpState, node: str) -> bool:
    """The paper's ``invalid(n)`` predicate.

    A best path is invalid when its next hop no longer backs it: the next hop
    is not a peer any more (e.g. the link failed), or the next hop's current
    best path is not the remainder of the node's path.
    """
    route = state.best(node)
    if route is None or route.path == EPSILON:
        return False
    head = route.path.head
    if head not in instance.peers(node):
        return True
    head_route = state.best(head)
    head_path = head_route.path if head_route is not None else None
    return head_path != route.path.rest


def updating_peers(
    instance: PathVectorInstance,
    state: RpvpState,
    node: str,
    against: Optional[Route] = None,
) -> List[Tuple[str, Route]]:
    """Peers whose current advertisement would improve ``node``'s best path.

    ``against`` overrides the incumbent route (used after an invalidation,
    where the comparison is against ⊥).
    Returns (peer, imported advertisement) pairs.
    """
    incumbent = state.best(node) if against is None else against
    candidates: List[Tuple[str, Route]] = []
    for peer in instance.peers(node):
        advertisement = instance.advertisement(node, peer, state.best(peer))
        if advertisement is None:
            continue
        if instance.better(node, advertisement, incumbent):
            candidates.append((peer, advertisement))
    return candidates


def best_updates(
    instance: PathVectorInstance,
    node: str,
    candidates: Sequence[Tuple[str, Route]],
) -> List[Tuple[str, Route]]:
    """The highest-ranked candidates (the paper's set ``U``); ties all kept."""
    if not candidates:
        return []
    best_key = min(instance.cached_rank(node, route) for _peer, route in candidates)
    return [
        (peer, route)
        for peer, route in candidates
        if instance.cached_rank(node, route) == best_key
    ]


def enabled_nodes(instance: PathVectorInstance, state: RpvpState) -> List[str]:
    """Algorithm 1, line 5: nodes with an invalid path or an improving peer."""
    enabled = []
    for node in instance.nodes():
        if is_invalid(instance, state, node):
            enabled.append(node)
        elif updating_peers(instance, state, node):
            enabled.append(node)
    return enabled


def step_node(
    instance: PathVectorInstance,
    state: RpvpState,
    node: str,
) -> List[Tuple[RpvpTransition, RpvpState]]:
    """All outcomes of executing ``node`` once (Algorithm 1, lines 10-16).

    If the node's path is invalid it is first cleared; then, among the peers
    tied for the best update, each choice produces one successor.  When there
    is no updating peer after an invalidation, the single successor has the
    path cleared.
    """
    working_state = state
    cleared = False
    if is_invalid(instance, state, node):
        working_state = state.with_best(node, None)
        cleared = True
    candidates = updating_peers(instance, working_state, node)
    best = best_updates(instance, node, candidates)
    if not best:
        if cleared:
            return [(RpvpTransition(node=node, new_route=None), working_state)]
        return []
    successors = []
    for peer, route in best:
        transition = RpvpTransition(node=node, new_route=route, from_peer=peer)
        successors.append((transition, working_state.with_best(node, route)))
    return successors


def rpvp_successors(
    instance: PathVectorInstance,
    state: RpvpState,
) -> List[Tuple[RpvpTransition, RpvpState]]:
    """All successors of ``state`` under the unoptimized RPVP semantics."""
    successors: List[Tuple[RpvpTransition, RpvpState]] = []
    for node in enabled_nodes(instance, state):
        successors.extend(step_node(instance, state, node))
    return successors
