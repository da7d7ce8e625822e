"""Independence relations: which transitions commute (paper §4.1.3, Appendix A).

Partial-order reduction starts from an *independence relation*: two
transitions are independent when, in every state where both are enabled,
neither disables the other and executing them in either order reaches the
same state.  Exploring one order of a pair of independent transitions is
then enough.  This module provides the two relations the reproduction uses:

* :class:`ChannelIndependence` — over SPVP message deliveries.  A delivery
  on channel ``(sender, receiver)`` drains that channel's head, rewrites the
  receiver's rib-in entry and best path, and (only on a best-path change)
  appends one advertisement to each of the receiver's outgoing channels.
  Two deliveries with *distinct receivers* therefore touch disjoint best and
  rib-in slots, and the only slot they can share is a channel one of them
  pops and the other appends to (when one receiver is the other's sender) —
  and a head pop commutes with a tail append on a non-empty FIFO, with the
  appended advertisement depending only on the appender's own (untouched)
  state.  Deliveries to the *same* receiver race on its rib-in/best
  selection and are dependent.  The relation is therefore held as one mask
  per receiver over the instance's channel index (``in_mask``): the
  deliveries dependent on one into ``d`` are exactly the bits of
  ``in_mask[d]``, which is how the sleep sets
  (:mod:`repro.modelcheck.por.sleep`) apply it.  The out-adjacency (who
  each node can message) is what the ample selector reasons over to decide
  which currently-*disabled* dependent deliveries could become enabled
  (:mod:`repro.modelcheck.por.ample`).

* :func:`node_independence_groups` — the RPVP decision-independence
  partition (§4.1.3), shared with :mod:`repro.core.determinism`: two
  undecided nodes are independent when every advertisement path between them
  crosses a node that has already decided (and so relays nothing further).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.protocols.spvp import space_for


class ChannelIndependence:
    """The static independence relation over one SPVP instance's channels."""

    def __init__(self, instance) -> None:
        self.instance = instance
        space = space_for(instance)
        self.space = space
        #: sender -> receivers of its channels (who it messages on a change).
        self.out_peers: Dict[str, Tuple[str, ...]] = dict(space.out_peers)
        #: receiver -> the mask of its incoming channels: the deliveries
        #: dependent on any delivery to it.
        self.in_mask: Dict[str, int] = space.in_mask


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
