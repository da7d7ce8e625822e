"""The name-keyed forwarding relation the slot relation is pinned to.

:class:`ReferenceForwarding` is the transient forwarding relation as plain
dicts: ``next_hop`` maps each node to the device it forwards to (``None``
without a route, or at an origin) and ``delivering`` holds the origins.  It
is built from a name -> best-route assignment and walked by name, the way
the package read a state before
:class:`~repro.transient.properties.TransientForwarding` became one head
code per node.  It duck-types that class (``next_hop``, ``delivering``,
``find_cycle``, ``dead_ends``), so every transient property checks it too:
:class:`~tests.oracles.transient_reference.NaiveTransientAnalyzer` checks
its states on it, and the property suites compare the two relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.protocols.base import Route


@dataclass(frozen=True)
class ReferenceForwarding:
    """The forwarding relation implied by one best-path assignment."""

    next_hop: Dict[str, Optional[str]]
    delivering: frozenset

    @staticmethod
    def from_best_paths(best: Dict[str, Optional[Route]]) -> "ReferenceForwarding":
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
        return ReferenceForwarding(next_hop=next_hop, delivering=frozenset(delivering))

    def find_cycle(self) -> Optional[List[str]]:
        """The cycle of the first node (in ``next_hop`` order) whose walk
        closes, starting at the node where that walk re-enters itself."""
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
        """Nodes whose next hop currently has no route, sorted by name."""
        result = []
        for node, successor in self.next_hop.items():
            if successor is None:
                continue
            if self.next_hop.get(successor) is None and successor not in self.delivering:
                result.append(node)
        return sorted(result)
