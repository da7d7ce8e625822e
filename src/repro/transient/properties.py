"""Transient properties checked over pre-convergence control plane states.

The paper scopes Plankton to converged states and explicitly lists checking
transient behaviour ("no transient loops prior to convergence") as out of
scope / future work (§3.5, §8).  This module implements that extension for the
SPVP message-passing model: a *transient property* is a predicate over the
instantaneous forwarding relation implied by the nodes' current best paths,
evaluated at every state the exploration reaches, converged or not.
"""

from __future__ import annotations

import abc
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.protocols.spvp import DELIVERING, NO_ROUTE


class TransientForwarding:
    """The forwarding relation implied by one control plane state.

    One head code per node (:attr:`hops`, in the instance's node order, as
    :attr:`names` lists them): the position in :attr:`names` of the node it
    forwards to, ``NO_ROUTE`` when it has no route, or ``DELIVERING`` when it
    originates the prefix.  A position at or past ``len(hops)`` names a head
    that is no node of the space: it has no route of its own.  The codes are
    the SPVP layout's per-route memo (:meth:`~repro.protocols.spvp.
    _SpvpSpace.hops_of`), so building the relation of a state is one look-up
    per node.

    :attr:`next_hop` (node -> the device it forwards to, ``None`` without a
    route or at an origin) and :attr:`delivering` (the origins) are the
    same relation by name, built on first read.
    """

    __slots__ = ("names", "hops", "_next_hop", "_delivering")

    def __init__(self, names: Tuple[str, ...], hops: Sequence[int]) -> None:
        self.names = names
        self.hops = hops
        self._next_hop: Optional[Dict[str, Optional[str]]] = None
        self._delivering: Optional[FrozenSet[str]] = None

    @staticmethod
    def of_best(space, best) -> "TransientForwarding":
        """The relation of the best block ``best`` (slot-indexed route ids)
        of an SPVP state over ``space``."""
        hops = space.hops_of(best)
        # Read after hops_of, which may add a head to the names.
        return TransientForwarding(space.head_names, hops)

    @property
    def next_hop(self) -> Dict[str, Optional[str]]:
        """Node -> the device it currently forwards to (None = no route, or
        an origin)."""
        if self._next_hop is None:
            names = self.names
            self._next_hop = {
                names[node]: names[hop] if hop >= 0 else None
                for node, hop in enumerate(self.hops)
            }
        return self._next_hop

    @property
    def delivering(self) -> FrozenSet[str]:
        """The nodes that deliver locally (the origins holding their route)."""
        if self._delivering is None:
            names = self.names
            self._delivering = frozenset(
                names[node] for node, hop in enumerate(self.hops) if hop == DELIVERING
            )
        return self._delivering

    def find_cycle(self) -> Optional[List[str]]:
        """A forwarding cycle, if the instantaneous next hops contain one.

        The cycle of the first node (in node order) whose walk closes,
        starting at the node where that walk re-enters itself.  One pass: a
        walk that runs into a node already known to reach a dead end stops
        there, so every node is stepped over once.
        """
        hops = self.hops
        count = len(hops)
        # 0 = not walked yet, 1 = on the current walk, 2 = reaches a dead end.
        mark = bytearray(count)
        for start in range(count):
            if mark[start]:
                continue
            walk: List[int] = []
            node = start
            while 0 <= node < count:
                seen = mark[node]
                if seen == 2:
                    break
                if seen:
                    names = self.names
                    return [names[index] for index in walk[walk.index(node):]] + [names[node]]
                mark[node] = 1
                walk.append(node)
                node = hops[node]
            for index in walk:
                mark[index] = 2
        return None

    def dead_ends(self) -> List[str]:
        """Nodes whose next hop currently has no route (transient black holes)."""
        hops = self.hops
        count = len(hops)
        names = self.names
        return sorted(
            names[node]
            for node, hop in enumerate(hops)
            if hop >= count or (hop >= 0 and hops[hop] == NO_ROUTE)
        )


class TransientProperty(abc.ABC):
    """Base class for transient properties."""

    #: Human-readable name used in reports.
    name: str = "transient-property"

    @abc.abstractmethod
    def check(self, forwarding: TransientForwarding, converged: bool) -> Optional[str]:
        """Return a violation description for this state, or None.

        Must be a pure function of ``(forwarding, converged)``: the explorer
        evaluates it once per distinct best-path assignment and reuses the
        answer for every other interleaving that reaches the same one.
        """


class TransientLoopFreedom(TransientProperty):
    """No forwarding loop exists in any reachable (transient) state."""

    name = "transient-loop-freedom"

    def __init__(self, ignore_converged: bool = False) -> None:
        #: When True, loops in converged states are not reported here (they
        #: are Plankton's normal Loop policy); only pre-convergence loops are.
        self.ignore_converged = ignore_converged

    def check(self, forwarding: TransientForwarding, converged: bool) -> Optional[str]:
        if converged and self.ignore_converged:
            return None
        cycle = forwarding.find_cycle()
        if cycle is None:
            return None
        kind = "converged" if converged else "transient"
        return f"{kind} forwarding loop: " + " -> ".join(cycle)


class TransientBlackHoleFreedom(TransientProperty):
    """No node ever forwards to a neighbour that currently has no route."""

    name = "transient-blackhole-freedom"

    def __init__(self, sources: Optional[Sequence[str]] = None) -> None:
        self.sources = set(sources) if sources else None

    def check(self, forwarding: TransientForwarding, converged: bool) -> Optional[str]:
        dead = forwarding.dead_ends()
        if self.sources is not None:
            dead = [node for node in dead if node in self.sources]
        if not dead:
            return None
        return "next hop of " + ", ".join(dead) + " has no route"
