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

This module holds the state and the step labels.  The successor relation
itself — which nodes are enabled and where each may move — is
:class:`repro.core.successors.CandidateEngine`'s: ``every_move`` is the
relation as Algorithm 1 states it, and the §4 optimizations only shrink it
(:meth:`repro.core.network_model.PecExplorer._successor_relation`).

:class:`RpvpState` is the id-array kernel of
:mod:`repro.protocols.interning` over the node space of its sorted node set:
one route id per node.  An SPVP state's best block is laid out the same way,
so a converged SPVP state *is* an RPVP state (Theorem 1) by a slice of its
id array, in the same intern table.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Tuple

from repro.exceptions import ProtocolError
from repro.protocols.base import PathVectorInstance, Route
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
        space = self._space
        try:
            slot = space.slot_of[node]
        except KeyError:
            raise ProtocolError(f"node {node!r} not part of this RPVP state") from None
        ids = array("i", self._ids)
        old = ids[slot]
        ids[slot] = new = space.table.route_id(route)
        return RpvpState.__new__(RpvpState)._init(space, ids, self, ((slot, old, new),))

    def __repr__(self) -> str:
        decided = sum(1 for route in self.routes() if route is not None)
        return f"RpvpState({decided}/{len(self)} decided)"

    def __reduce__(self):
        return (RpvpState, (self.assignments,))

    def __len__(self) -> int:
        return len(self._space.names)


class RpvpTransition:
    """One RPVP step: ``node`` adopted ``new_route`` (None = cleared invalid path).

    A search label, built once per move, so a plain ``__slots__`` class:
    value equality and hash over the three fields, pickled by them, never
    changed after construction.
    """

    __slots__ = ("node", "new_route", "from_peer")

    def __init__(
        self, node: str, new_route: Optional[Route], from_peer: Optional[str] = None
    ) -> None:
        self.node, self.new_route, self.from_peer = node, new_route, from_peer

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not RpvpTransition:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])

    def __reduce__(self):
        return RpvpTransition, (self.node, self.new_route, self.from_peer)

    def __repr__(self) -> str:
        return (
            f"RpvpTransition(node={self.node!r}, new_route={self.new_route!r}, "
            f"from_peer={self.from_peer!r})"
        )

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
