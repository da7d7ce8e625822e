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

A search state holds one best path per node; the ECMP sets of the paper's
special case (end of §3.4.2) come from the SPF table the data planes are
built from, and a model-checked search must agree with that table
(:meth:`repro.core.network_model.PecExplorer._spf_agreement`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Set, Tuple

from repro.config.objects import NetworkConfig
from repro.exceptions import ConfigError, ProtocolError
from repro.netaddr import Prefix
from repro.protocols.base import EPSILON, Path, PathVectorInstance, Route, RouteSource
from repro.protocols.interning import node_space_for
from repro.protocols.ospf import INFINITY, OspfComputation

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
    ) -> None:
        self.network = network
        self.prefix = prefix
        self.failed_links = set(failed_links or ())
        self.computation = computation or OspfComputation(network)
        self.name = f"ospf:{prefix}"

        self._speakers = [
            name for name, cfg in network.devices.items() if cfg.ospf is not None
        ]
        # The devices that advertise ``prefix`` itself: one originating a
        # covering prefix advertises that one, and longest-prefix match
        # prefers ``prefix`` wherever both are known (SPF's origins alike).
        origin_set = {
            name for name in self._speakers if prefix in network.device(name).ospf.networks
        }
        # Redistributed static routes appear as OSPF external origins.
        for name in self._speakers:
            config = self.network.device(name)
            if config.ospf.redistribute_static and any(
                route.prefix == prefix for route in config.static_routes
            ):
                origin_set.add(name)
        self._origins = sorted(origin_set)
        # OSPF adjacency, filters and ranking are independent of the prefix
        # (only the origin set differs between per-prefix instances), so what
        # is derived from them is shared by every instance built over the
        # same computation and failure scenario — the verifier explores one
        # instance per PEC and would otherwise compile the identical
        # adjacency and evaluate the identical export/import per edge for
        # each of them.
        shared = self.computation.shared_filter_caches(frozenset(self.failed_links))
        self._advertisement_cache = shared["advertisement"]
        self._rank_cache = shared["rank"]
        self._peers = shared["peers"]
        self._edge_costs = shared["edge_cost"]
        self._engine_host = shared["engine"]
        self._shared_routes = self._engine_host["adv_route"]
        # The id-keyed memos are only meaningful against one intern table.
        # The node space is memoised weakly, so without a strong anchor it
        # would be collected between per-PEC explorations and rebuilt with
        # fresh (colliding) ids; pinning it on the shared cache dict keeps
        # one table alive for the lifetime of the computation.
        space = shared.get("node_space")
        if space is None:
            space = shared["node_space"] = node_space_for(self)
        self._node_space = space
        self._route_of_id = space.table.route

    # ------------------------------------------------------------------ structure
    def nodes(self) -> Sequence[str]:
        return list(self._speakers)

    def origins(self) -> Sequence[str]:
        return list(self._origins)

    def peers(self, node: str) -> Sequence[str]:
        peers = self._peers.get(node)
        if peers is None:
            raise ConfigError(f"unknown device {node!r}")
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
        return self._edge_costs.get((node, neighbor), INFINITY)

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
        add the edge cost".
        """
        if route is None:
            return None
        cost = self._session_cost(importer, exporter, route)
        return None if cost is None else _advertised(exporter, route, cost)

    def advertisement_by_id(
        self, importer: str, exporter: str, route_id: int
    ) -> Optional[Route]:
        """:meth:`advertisement_direct` of the route interned as ``route_id``.

        What the RPVP candidate engine calls: its per-edge id memos already
        guarantee one evaluation per (edge, route id), so a route-keyed memo
        underneath would only add hashing.  An OSPF advertisement depends on
        its reader only through the edge cost and the two checks of
        :meth:`_session_cost`, so every reader at one cost is handed the same
        :class:`Route`, built once per (speaker, held route id, edge cost) —
        keyed on the id, never on the route — while each reader is checked on
        its own.
        """
        route = self._route_of_id(route_id)
        if route is None:
            return None
        cost = self._session_cost(importer, exporter, route)
        if cost is None:
            return None
        key = (exporter, route_id, cost)
        shared = self._shared_routes.get(key)
        if shared is None:
            shared = self._shared_routes[key] = _advertised(exporter, route, cost)
        return shared

    def _session_cost(self, importer: str, exporter: str, route: Route) -> Optional[float]:
        """The cost ``importer`` adds to ``route`` heard from ``exporter``, or
        None where it hears nothing: ``importer`` is not a live neighbour of
        ``exporter``, or the exported path would loop through it.

        The loop check on the exported path (exporter,)+path splits into an
        exporter != importer guard plus a membership test on the unprepended
        path.  Both directions of the edge are read off the compiled
        adjacency: the export filter asks ``importer in peers(exporter)``,
        the import filter adds the importer's own cost towards the exporter.
        """
        costs = self._edge_costs
        if importer == exporter or (exporter, importer) not in costs or importer in route.path:
            return None
        return costs.get((importer, exporter))

    # ------------------------------------------------------------------ ranking
    def rank(self, node: str, route: Route) -> Tuple:
        """OSPF prefers the lowest accumulated cost; ECMP ties stay tied."""
        if route.path == EPSILON:
            return (-1,)
        return (route.igp_cost,)

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


def _advertised(exporter: str, route: Route, cost: float) -> Route:
    """``route`` as heard from ``exporter`` over an edge of cost ``cost``."""
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
            "igp_cost": route.igp_cost + int(cost),
            "communities": route.communities,
            "origin_node": route.origin_node,
        },
    )
    return result
