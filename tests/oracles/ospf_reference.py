"""Reference implementations the compiled OSPF / LEC fast paths are pinned to.

:func:`reference_compute` is the name-keyed Dijkstra that
``OspfComputation.compute`` ran before the compiled graph replaced it, moved
here unchanged: every relaxation walks ``Topology.edges`` and dereferences
the device configs, and every failure set is computed from scratch.
:func:`reference_device_classes` is the colour refinement
``DeviceEquivalence`` ran over ``Topology.edges`` before it moved to the
compiled adjacency.  Both are slow on purpose — they are what "the same
answer" means for the property tests and the ratio benchmark.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.config.objects import NetworkConfig
from repro.protocols.ospf import INFINITY, OspfRoutingTable
from repro.topology import Topology


def _runs_ospf(network: NetworkConfig, node: str) -> bool:
    return network.device(node).ospf is not None


def _link_cost(network: NetworkConfig, node: str, neighbor: str, link_weight: int) -> float:
    """The OSPF cost of the edge ``node -> neighbor``.

    Interface cost overrides in the device config win over the topology
    weight; a passive interface means no adjacency (infinite cost).
    """
    config = network.device(node).ospf
    if config is None:
        return INFINITY
    if config.is_passive(neighbor):
        return INFINITY
    return config.cost_to(neighbor, link_weight)


def reference_adjacency(
    network: NetworkConfig, failed_links: Optional[Set[int]] = None
) -> Tuple[Dict[str, Tuple[str, ...]], Dict[Tuple[str, str], float]]:
    """``(peers, edge cost)`` straight from the device configs and
    ``Topology.edges``: who hears whom over a live link, and the cheapest
    such link per direction — what ``OspfInstance.peers`` / ``_edge_cost``
    read off the compiled graph."""
    topology = network.topology
    cost: Dict[Tuple[str, str], float] = {}
    for node in topology.nodes:
        for link in topology.edges(node, failed_links):
            neighbor = link.other(node)
            if _link_cost(network, neighbor, node, 0) == INFINITY:
                continue  # the far end does not speak OSPF, or is passive towards us
            through = _link_cost(network, node, neighbor, link.weight_from(node))
            if through < cost.get((node, neighbor), INFINITY):
                cost[node, neighbor] = through
    peers = {
        node: tuple(sorted(neighbor for end, neighbor in cost if end == node))
        for node in topology.nodes
    }
    return peers, cost


def reference_compute(
    network: NetworkConfig,
    origins: Sequence[str],
    failed_links: Optional[Set[int]] = None,
) -> OspfRoutingTable:
    """Multi-source Dijkstra from ``origins`` over the OSPF-speaking subgraph."""
    topology = network.topology
    distances: Dict[str, float] = {}
    chosen_origin: Dict[str, str] = {}
    heap: List[Tuple[float, str, str]] = []
    for origin in origins:
        if not _runs_ospf(network, origin):
            continue
        distances[origin] = 0.0
        chosen_origin[origin] = origin
        heapq.heappush(heap, (0.0, origin, origin))

    settled: Set[str] = set()
    while heap:
        dist, node, origin = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for link in topology.edges(node, failed_links):
            neighbor = link.other(node)
            if not _runs_ospf(network, neighbor):
                continue
            # An adjacency requires neither side to be passive.
            if network.device(node).ospf.is_passive(neighbor):
                continue
            # Cost of neighbor -> node edge, as seen by the neighbour.
            cost = _link_cost(network, neighbor, node, link.weight_from(neighbor))
            if cost == INFINITY:
                continue
            candidate = dist + cost
            best = distances.get(neighbor, INFINITY)
            if candidate < best:
                distances[neighbor] = candidate
                chosen_origin[neighbor] = origin
                heapq.heappush(heap, (candidate, neighbor, origin))
            elif candidate == best and origin < chosen_origin.get(neighbor, origin):
                # Deterministic tie-break between equally distant origins.
                chosen_origin[neighbor] = origin
                heapq.heappush(heap, (candidate, neighbor, origin))

    next_hops: Dict[str, Tuple[str, ...]] = {}
    origin_set = {o for o in origins if _runs_ospf(network, o)}
    for node, dist in distances.items():
        if node in origin_set:
            next_hops[node] = ()
            continue
        hops = []
        for link in topology.edges(node, failed_links):
            neighbor = link.other(node)
            if neighbor not in distances or not _runs_ospf(network, neighbor):
                continue
            if network.device(neighbor).ospf.is_passive(node):
                continue
            cost = _link_cost(network, node, neighbor, link.weight_from(node))
            if cost == INFINITY:
                continue
            if distances[neighbor] + cost == dist:
                hops.append(neighbor)
        next_hops[node] = tuple(sorted(set(hops)))

    order = tuple(sorted(distances, key=lambda n: (distances[n], n)))
    return OspfRoutingTable(
        distances=distances,
        next_hops=next_hops,
        chosen_origin=chosen_origin,
        deterministic_order=order,
    )


def reference_device_classes(
    topology: Topology,
    colors: Optional[Dict[str, object]] = None,
    failed_links: Optional[Set[int]] = None,
) -> Dict[str, int]:
    """Device Equivalence Classes by colour refinement over ``Topology.edges``."""
    failed = set(failed_links or ())
    palette: Dict[object, int] = {}
    coloring: Dict[str, int] = {}
    for name in topology.nodes:
        key = ("init", colors.get(name) if colors else None)
        if key not in palette:
            palette[key] = len(palette)
        coloring[name] = palette[key]
    while True:
        signatures: Dict[str, Tuple] = {}
        for name in topology.nodes:
            neighbor_sig = []
            for link in topology.edges(name, failed):
                other = link.other(name)
                neighbor_sig.append(
                    (coloring[other], link.weight_from(name), link.weight_from(other))
                )
            signatures[name] = (coloring[name], tuple(sorted(neighbor_sig)))
        next_palette: Dict[Tuple, int] = {}
        next_coloring: Dict[str, int] = {}
        for name, signature in signatures.items():
            if signature not in next_palette:
                next_palette[signature] = len(next_palette)
            next_coloring[name] = next_palette[signature]
        if len(set(next_coloring.values())) == len(set(coloring.values())):
            return next_coloring
        coloring = next_coloring


def reference_reduced_failure_scenarios(
    topology: Topology,
    max_failures: int,
    colors: Optional[Dict[str, object]] = None,
    interesting_nodes: Optional[Sequence[str]] = None,
) -> List[Tuple[int, ...]]:
    """The §4.3 LEC reduction over :func:`reference_device_classes`.

    Returns the failed-link tuples in emission order: one representative
    (smallest id) per Link Equivalence Class, classes refined after each pick.
    """
    base_colors: Dict[str, object] = dict(colors or {})
    for index, name in enumerate(interesting_nodes or ()):
        base_colors[name] = ("interesting", index, name)

    results: List[Tuple[int, ...]] = [()]
    seen: Set[Tuple[int, ...]] = {()}

    def representatives(failed: Tuple[int, ...]) -> List[int]:
        classes = reference_device_classes(topology, base_colors, set(failed))
        by_key: Dict[Tuple, List[int]] = {}
        for link in topology.links:
            if link.link_id in failed:
                continue
            ca, cb = classes[link.a], classes[link.b]
            if ca <= cb:
                key = (ca, cb, link.weight_ab, link.weight_ba)
            else:
                key = (cb, ca, link.weight_ba, link.weight_ab)
            by_key.setdefault(key, []).append(link.link_id)
        return sorted(min(ids) for ids in by_key.values())

    def extend(prefix: Tuple[int, ...], remaining: int) -> None:
        if remaining == 0:
            return
        for link_id in representatives(prefix):
            scenario = tuple(sorted(prefix + (link_id,)))
            if scenario in seen:
                continue
            seen.add(scenario)
            results.append(scenario)
            extend(scenario, remaining - 1)

    extend((), max_failures)
    return results
