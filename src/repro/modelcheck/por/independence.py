"""Independence relations: which transitions commute (paper §4.1.3, Appendix A).

Partial-order reduction starts from an *independence relation*: two
transitions are independent when, in every state where both are enabled,
neither disables the other and executing them in either order reaches the
same state.  Exploring one order of a pair of independent transitions is
then enough.  The SPVP relation over message deliveries is held by the
instance's slot layout, as one channel mask per receiver
(:attr:`~repro.protocols.spvp._SpvpSpace.in_mask`, which states it).  This
module holds the RPVP one, :func:`node_independence_groups` — the
decision-independence partition (§4.1.3), shared with
:mod:`repro.core.determinism`: two undecided nodes are independent when
every advertisement path between them crosses a node that has already
decided (and so relays nothing further).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set


def node_independence_groups(
    peers_of,
    undecided: Set[str],
    enabled: Sequence[str],
) -> List[List[str]]:
    """Partition ``enabled`` nodes into decision-independent groups (§4.1.3).

    ``peers_of(node)`` enumerates the peer-graph neighbours; two enabled
    nodes in different connected components of the peer graph *restricted to
    undecided nodes* cannot influence each other's decision, so exploring
    the groups in a single fixed order is sufficient.  This is the generic
    core of :func:`repro.core.determinism.independence_groups`, kept here so
    the RPVP and SPVP reductions share one home.
    """
    component_of: Dict[str, int] = {}
    current = 0
    for start in sorted(undecided):
        if start in component_of:
            continue
        stack = [start]
        component_of[start] = current
        while stack:
            node = stack.pop()
            for peer in peers_of(node):
                if peer in undecided and peer not in component_of:
                    component_of[peer] = current
                    stack.append(peer)
        current += 1
    groups: Dict[int, List[str]] = {}
    for node in enabled:
        groups.setdefault(component_of.get(node, -1), []).append(node)
    return [sorted(members) for _key, members in sorted(groups.items())]
