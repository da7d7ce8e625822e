"""The raw RPVP successor relation (paper §3.4.2, Algorithm 1) the candidate
engine is pinned to.

These are the functions :mod:`repro.protocols.rpvp` used to define the
unoptimised semantics with, moved here: every enabled node — one whose best
path is invalid or that has an improving peer — is stepped once per best
update, re-reading every peer's advertisement on every call.  They rank with
the *uncached* ``rank`` instance method, so that a memoisation bug in the
product cannot hide from the comparison.

:class:`repro.core.successors.CandidateEngine` answers the same question
incrementally (``CandidateEngine.every_move``, the Figure 8 "None" rows);
``tests/property/test_state_representation.py`` checks the two agree,
transition for transition and in the same order, on every step of drawn
walks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.protocols.base import EPSILON, PathVectorInstance, Route
from repro.protocols.rpvp import RpvpState, RpvpTransition


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
    instance: PathVectorInstance, state: RpvpState, node: str
) -> List[Tuple[str, Route]]:
    """Peers whose current advertisement would improve ``node``'s best path,
    as (peer, imported advertisement) pairs in ``peers()`` order."""
    incumbent: Optional[Route] = state.best(node)
    candidates: List[Tuple[str, Route]] = []
    for peer in instance.peers(node):
        advertisement = instance.advertisement(node, peer, state.best(peer))
        if advertisement is None:
            continue
        if incumbent is None or instance.rank(node, advertisement) < instance.rank(node, incumbent):
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
    best_key = min(instance.rank(node, route) for _peer, route in candidates)
    return [(peer, route) for peer, route in candidates if instance.rank(node, route) == best_key]


def enabled_nodes(instance: PathVectorInstance, state: RpvpState) -> List[str]:
    """Algorithm 1, line 5: nodes with an invalid path or an improving peer."""
    return [
        node
        for node in instance.nodes()
        if is_invalid(instance, state, node) or updating_peers(instance, state, node)
    ]


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
    best = best_updates(instance, node, updating_peers(instance, working_state, node))
    if not best:
        if cleared:
            return [(RpvpTransition(node=node, new_route=None), working_state)]
        return []
    return [
        (RpvpTransition(node=node, new_route=route, from_peer=peer), working_state.with_best(node, route))
        for peer, route in best
    ]


def rpvp_successors(
    instance: PathVectorInstance,
    state: RpvpState,
) -> List[Tuple[RpvpTransition, RpvpState]]:
    """All successors of ``state`` under the unoptimised RPVP semantics."""
    successors: List[Tuple[RpvpTransition, RpvpState]] = []
    for node in enabled_nodes(instance, state):
        successors.extend(step_node(instance, state, node))
    return successors
