"""Static route resolution.

Static routes contribute directly to the FIB.  A static route whose next hop
is an IP address is *recursive*: its forwarding behaviour is defined by how
the network routes packets destined to that address, which is what creates
PEC dependencies (paper §3.2, including the self-loop case observed in the
real-world configurations of §5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.config.objects import NetworkConfig, StaticRoute
from repro.netaddr import Prefix


@dataclass(frozen=True)
class StaticResolution:
    """Resolved static next hops for one destination prefix on one device.

    ``next_hop_nodes`` are directly usable FIB next hops.  ``unresolved_ips``
    are recursive next-hop addresses that must be resolved against the
    converged data plane of the PEC covering that address.
    ``drop`` marks a Null0-style discard route.
    """

    device: str
    prefix: Prefix
    next_hop_nodes: Tuple[str, ...] = ()
    unresolved_ips: Tuple[Prefix, ...] = ()
    drop: bool = False
    distance: int = 1


def static_routes_matching(
    network: NetworkConfig,
    device: str,
    prefix: Prefix,
) -> List[StaticRoute]:
    """Static routes on ``device`` that cover ``prefix``.

    Plankton executes the control plane per configured prefix (paper §3.3);
    a static route applies to an executed prefix when the route's destination
    covers it.
    """
    return [
        route
        for route in network.device(device).static_routes
        if route.prefix.contains_prefix(prefix)
    ]


def most_specific_static(routes: Sequence[StaticRoute]) -> List[StaticRoute]:
    """Among ``routes``, keep only those with the longest destination prefix."""
    if not routes:
        return []
    best_length = max(route.prefix.length for route in routes)
    return [route for route in routes if route.prefix.length == best_length]


def resolve_static_routes(
    network: NetworkConfig,
    device: str,
    prefix: Prefix,
    failed_links: Optional[Set[int]] = None,
) -> Optional[StaticResolution]:
    """Resolve the static routing contribution of ``device`` for ``prefix``.

    Returns None when no static route matches.  Directly connected next-hop
    nodes are validated against the (failure-adjusted) topology: a static
    route via a neighbour whose connecting links are all down contributes
    nothing, matching router behaviour where the route is withdrawn from the
    FIB when the interface goes down.
    """
    matching = most_specific_static(static_routes_matching(network, device, prefix))
    if not matching:
        return None
    topology = network.topology
    live_neighbors = set(topology.neighbors(device, failed_links))
    next_hops: List[str] = []
    unresolved: List[Prefix] = []
    drop = False
    distance = min(route.distance for route in matching)
    for route in matching:
        if route.drop:
            drop = True
        elif route.next_hop_node is not None:
            if route.next_hop_node in live_neighbors:
                next_hops.append(route.next_hop_node)
        elif route.next_hop_ip is not None:
            unresolved.append(route.next_hop_ip)
    if not next_hops and not unresolved and not drop:
        return None
    return StaticResolution(
        device=device,
        prefix=prefix,
        next_hop_nodes=tuple(sorted(set(next_hops))),
        unresolved_ips=tuple(sorted(set(unresolved), key=str)),
        drop=drop and not next_hops and not unresolved,
        distance=distance,
    )
