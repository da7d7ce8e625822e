"""OSPF as a path-vector protocol instance.

The paper uses a single abstract control plane (RPVP) for all protocols;
OSPF fits by taking the ranking function to be the accumulated IGP cost and
the filters to be "accept everything inside the OSPF domain".  OSPF's outcome
is deterministic (the paper notes "OSPF by its nature has deterministic
outcomes"), which the deterministic-node detection heuristic (§4.1.2) exploits
via the cached network-wide shortest-path computation in
:class:`repro.protocols.ospf.OspfComputation`.  Peers and edge costs are read
from that computation's compiled adjacency graph, so the instance and the SPF
kernel agree on who is adjacent to whom by construction.

OSPF is the one protocol where the implementation permits multipath: a node
may keep several equal-cost best paths (ECMP), matching the special-case
deviation described at the end of §3.4.2.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from repro.config.objects import NetworkConfig
from repro.exceptions import ProtocolError
from repro.netaddr import Prefix
from repro.protocols.base import EPSILON, Path, PathVectorInstance, Route, RouteSource
from repro.protocols.ospf import INFINITY, OspfComputation
from repro.protocols.rpvp import node_space_for

#: Distinct-from-None sentinel for memo lookups whose value may be None.
_MISSING = object()


class OspfInstance(PathVectorInstance):
    """The OSPF control plane for one prefix, as a :class:`PathVectorInstance`."""

    def __init__(
        self,
        network: NetworkConfig,
        prefix: Prefix,
        failed_links: Optional[Set[int]] = None,
        computation: Optional[OspfComputation] = None,
        extra_origins: Optional[Sequence[str]] = None,
        allow_multipath: bool = True,
    ) -> None:
        self.network = network
        self.prefix = prefix
        self.failed_links = set(failed_links or ())
        self.computation = computation or OspfComputation(network)
        self.allow_multipath = allow_multipath
        self.name = f"ospf:{prefix}"

        self._speakers = [
            name for name, cfg in network.devices.items() if cfg.ospf is not None
        ]
        self._speaker_set = set(self._speakers)
        origin_set = {
            name
            for name in self._speakers
            if any(p.contains_prefix(prefix) for p in network.device(name).ospf.networks)
        }
        # Redistributed static routes appear as OSPF external origins.
        for name in self._speakers:
            config = self.network.device(name)
            if config.ospf.redistribute_static and any(
                route.prefix.contains_prefix(prefix) for route in config.static_routes
            ):
                origin_set.add(name)
        for name in extra_origins or ():
            if name in self._speaker_set:
                origin_set.add(name)
        self._origins = sorted(origin_set)
        self._peers_cache: Dict[str, Tuple[str, ...]] = {}
        # OSPF filters and ranking are independent of the prefix (only the
        # origin set differs between per-prefix instances), so the filter
        # memos of PathVectorInstance can be shared across every instance
        # built over the same computation and failure scenario — the verifier
        # explores one instance per PEC and would otherwise re-evaluate the
        # identical export/import per edge for each of them.
        shared = self.computation.shared_filter_caches(frozenset(self.failed_links))
        self._export_cache = shared["export"]
        self._import_cache = shared["import"]
        self._advertisement_cache = shared["advertisement"]
        self._rank_cache = shared["rank"]
        self._edge_cost_cache = shared["edge_cost"]
        self._engine_host = shared["engine"]
        # The id-keyed memos are only meaningful against one intern table.
        # The node space is memoised weakly, so without a strong anchor it
        # would be collected between per-PEC explorations and rebuilt with
        # fresh (colliding) ids; pinning it on the shared cache dict keeps
        # one table alive for the lifetime of the computation.
        self._node_space = shared.setdefault("node_space", node_space_for(self))

    # ------------------------------------------------------------------ structure
    def nodes(self) -> Sequence[str]:
        return list(self._speakers)

    def origins(self) -> Sequence[str]:
        return list(self._origins)

    def peers(self, node: str) -> Sequence[str]:
        cached = self._peers_cache.get(node)
        if cached is not None:
            return cached
        adjacencies = self.computation.adjacencies(node, self.failed_links)
        peers = tuple(sorted({neighbor for neighbor, _ in adjacencies}))
        self._peers_cache[node] = peers
        return peers

    # ------------------------------------------------------------------ filters
    def export(self, exporter: str, importer: str, route: Optional[Route]) -> Optional[Route]:
        if route is None:
            return None
        if importer not in self.peers(exporter):
            return None
        return route.with_path(route.path.prepend(exporter))

    def import_(self, importer: str, exporter: str, route: Optional[Route]) -> Optional[Route]:
        if route is None:
            return None
        link_weight = self._edge_cost(importer, exporter)
        if link_weight == INFINITY:
            return None
        return Route(
            path=route.path,
            source=RouteSource.OSPF,
            local_pref=route.local_pref,
            as_path_length=route.as_path_length,
            med=route.med,
            igp_cost=route.igp_cost + int(link_weight),
            communities=route.communities,
            origin_node=route.origin_node,
        )

    def _edge_cost(self, node: str, neighbor: str) -> float:
        """Cost of the node -> neighbour edge (cheapest parallel live link)."""
        cached = self._edge_cost_cache.get((node, neighbor))
        if cached is not None:
            return cached
        best = min(
            (
                cost
                for peer, cost in self.computation.adjacencies(node, self.failed_links)
                if peer == neighbor
            ),
            default=INFINITY,
        )
        self._edge_cost_cache[(node, neighbor)] = best
        return best

    def advertisement(self, importer: str, exporter: str, route: Optional[Route]) -> Optional[Route]:
        """Memoised fused advertisement (see :meth:`advertisement_direct`)."""
        cache = self._advertisement_cache
        key = (importer, exporter, route)
        cached = cache.get(key, _MISSING)
        if cached is not _MISSING:
            return cached
        result = self.advertisement_direct(importer, exporter, route)
        cache[key] = result
        return result

    def advertisement_direct(
        self, importer: str, exporter: str, route: Optional[Route]
    ) -> Optional[Route]:
        """Fused ``import(export(route))`` for OSPF, uncached.

        Semantically identical to the base-class composition (export filter,
        loop rejection, import filter), collapsed into a single :class:`Route`
        construction: for OSPF the composition is just "prepend the exporter,
        add the edge cost".  The RPVP candidate engine calls this uncached
        variant — its per-edge id memos already guarantee one evaluation per
        (edge, route), so a second route-keyed memo would only add hashing.
        """
        result: Optional[Route] = None
        # The loop check on the exported path (exporter,)+path splits into
        # an exporter != importer guard plus a membership test on the
        # unprepended path.
        if (
            route is not None
            and importer != exporter
            and importer in self.peers(exporter)
            and importer not in route.path
        ):
            weight = self._edge_cost(importer, exporter)
            if weight != INFINITY:
                result = object.__new__(Route)
                object.__setattr__(
                    result,
                    "__dict__",
                    {
                        "path": route.path.prepend(exporter),
                        "source": RouteSource.OSPF,
                        "local_pref": route.local_pref,
                        "as_path_length": route.as_path_length,
                        "med": route.med,
                        "igp_cost": route.igp_cost + int(weight),
                        "communities": route.communities,
                        "origin_node": route.origin_node,
                    },
                )
        return result

    # ------------------------------------------------------------------ ranking
    def rank(self, node: str, route: Route) -> Tuple:
        """OSPF prefers the lowest accumulated cost; ECMP ties stay tied."""
        if route.path == EPSILON:
            return (-1,)
        return (route.igp_cost,)

    def multipath_allowed(self, node: str) -> bool:
        return self.allow_multipath

    # ------------------------------------------------------------------ helpers
    def origin_route(self, node: str) -> Route:
        """The route an origin injects for the prefix (cost 0).

        OSPF routes deliberately do not stamp ``origin_node``: the origin is
        already the last element of the path, and leaving the field unset
        keeps routes — and with them every filter/rank memo key and intern id
        — identical across the per-prefix instances of one failure scenario,
        so the shared caches actually hit across PECs.
        """
        if node not in self._origins:
            raise ProtocolError(f"{node} does not originate {self.prefix} into OSPF")
        return Route(path=EPSILON, source=RouteSource.OSPF, igp_cost=0)

    def routing_table(self):
        """The deterministic SPF result for this instance's origins/failures."""
        return self.computation.compute(self._origins, self.failed_links)

    def deterministic_order(self) -> Tuple[str, ...]:
        """Nodes ordered by increasing SPF distance (the §4.1.2 heuristic)."""
        return self.routing_table().deterministic_order


def build_ospf_instance(
    network: NetworkConfig,
    prefix: Prefix,
    failed_links: Optional[Set[int]] = None,
    computation: Optional[OspfComputation] = None,
) -> OspfInstance:
    """Convenience constructor mirroring :func:`build_bgp_instance`."""
    return OspfInstance(network, prefix, failed_links=failed_links, computation=computation)
