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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.protocols.base import Route


@dataclass(frozen=True)
class TransientForwarding:
    """The forwarding relation implied by one control plane state.

    ``next_hop[n]`` is the device ``n`` currently forwards to, ``None`` when
    ``n`` has no route.  Origins forward to themselves conceptually; they are
    listed in ``delivering`` instead.
    """

    next_hop: Dict[str, Optional[str]]
    delivering: frozenset

    @staticmethod
    def from_best_paths(best: Dict[str, Optional[Route]]) -> "TransientForwarding":
        """Build the relation from a best-path assignment (SPVP/RPVP state)."""
        next_hop: Dict[str, Optional[str]] = {}
        delivering = set()
        for node, route in best.items():
            if route is None:
                next_hop[node] = None
            elif len(route.path) == 0:
                next_hop[node] = None
                delivering.add(node)
            else:
                next_hop[node] = route.path.head
        return TransientForwarding(next_hop=next_hop, delivering=frozenset(delivering))

    @staticmethod
    def of_state(state) -> "TransientForwarding":
        """The relation implied by an SPVP state's current best paths."""
        return TransientForwarding.from_best_paths(state.best_map())

    def find_cycle(self) -> Optional[List[str]]:
        """A forwarding cycle, if the instantaneous next hops contain one.

        The cycle of the first node (in ``next_hop`` order) whose walk closes,
        starting at the node where that walk re-enters itself.  One pass: a
        walk that runs into a node already known to reach a dead end stops
        there, so every node is stepped over once.
        """
        terminating: Set[str] = set()
        for start in self.next_hop:
            walk: List[str] = []
            position: Dict[str, int] = {}
            node: Optional[str] = start
            while node is not None and node not in terminating:
                if node in position:
                    return walk[position[node]:] + [node]
                position[node] = len(walk)
                walk.append(node)
                node = self.next_hop.get(node)
            terminating.update(walk)
        return None

    def dead_ends(self) -> List[str]:
        """Nodes whose next hop currently has no route (transient black holes)."""
        result = []
        for node, successor in self.next_hop.items():
            if successor is None:
                continue
            if self.next_hop.get(successor) is None and successor not in self.delivering:
                result.append(node)
        return sorted(result)


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


class AlwaysReaches(TransientProperty):
    """The given sources always have a path leading to a delivering node.

    This is a strong continuity property (no interruption of service during
    convergence); most networks violate it transiently, which is exactly the
    kind of insight the extension exposes.
    """

    name = "always-reaches"

    def __init__(self, sources: Sequence[str]) -> None:
        if not sources:
            raise ValueError("always-reaches needs at least one source")
        self.sources = list(sources)

    def check(self, forwarding: TransientForwarding, converged: bool) -> Optional[str]:
        for source in self.sources:
            node: Optional[str] = source
            hops = 0
            limit = len(forwarding.next_hop) + 1
            while node is not None and node not in forwarding.delivering and hops <= limit:
                node = forwarding.next_hop.get(node)
                hops += 1
            if node is None or node not in forwarding.delivering:
                return f"{source} cannot reach an origin in this state"
        return None
