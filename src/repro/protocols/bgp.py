"""BGP as a path-vector protocol instance.

:class:`BgpInstance` realises the paper's extended-SPVP abstraction for BGP
(§3.4.1): import/export filters and ranking functions are inferred from the
device configurations (route maps, prefix lists, session types), and the
ranking function follows the BGP decision process — local preference, AS-path
length, MED, eBGP-over-iBGP, IGP cost to the next hop — with remaining ties
left unordered so the model checker explores the age-based tie-breaking
non-determinism of real BGP (the Figure 7(c) workload).

iBGP specifics modelled here:

* iBGP sessions ride on the IGP: the session between two speakers is only up
  when the IGP provides a route to the peer's loopback.  The verifier feeds
  that information in via ``session_up`` (computed from the converged states
  of the loopback PECs, §3.2).
* Routes learned from an iBGP peer are not re-advertised to other iBGP peers
  (standard full-mesh loop prevention), unless the exporter is configured as
  a route reflector for the target.
* The IGP cost used by the decision process can change when topology changes
  alter OSPF distances — this is the "ranking function may change" extension;
  here the ranking is always evaluated against the latest IGP costs supplied.

What a failure cannot change can be shared between the instances of one
prefix under different failure scenarios (``memo_host``): the ranking memo,
and what an eBGP session advertises — two route maps, the prefix and the
route, none of which a failure touches.  An iBGP import reads the IGP cost,
which a failure does move, so iBGP advertisements are never shared.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.config.objects import (
    BgpNeighbor,
    NetworkConfig,
)
from repro.exceptions import ProtocolError
from repro.netaddr import Prefix
from repro.protocols.base import EPSILON, Path, PathVectorInstance, Route, RouteSource
from repro.protocols.filters import apply_route_map
from repro.protocols.interning import node_space_for

#: Type of the callable deciding whether an iBGP session is currently usable.
SessionPredicate = Callable[[str, str], bool]

#: Type of the callable giving the IGP cost from a node to a peer.
IgpCostFunction = Callable[[str, str], float]


def _always_up(_a: str, _b: str) -> bool:
    return True


def _zero_igp_cost(_a: str, _b: str) -> float:
    return 0.0


class BgpInstance(PathVectorInstance):
    """The BGP control plane for one prefix, as a :class:`PathVectorInstance`.

    ``memo_host`` (optional, a dict the caller keeps between the instances of
    this prefix under different failure scenarios) holds what they share: the
    :meth:`cached_rank` memo, the per-edge advertisement memos of the eBGP
    sessions (see :attr:`_engine_host`) and the node space whose route ids
    those memos are keyed by.  It starts empty and is filled on first use.
    """

    def __init__(
        self,
        network: NetworkConfig,
        prefix: Prefix,
        failed_links: Optional[Set[int]] = None,
        session_up: SessionPredicate = _always_up,
        igp_cost: IgpCostFunction = _zero_igp_cost,
        deterministic_tiebreak: bool = False,
        memo_host: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.network = network
        self.prefix = prefix
        self.failed_links = set(failed_links or ())
        self.session_up = session_up
        self.igp_cost = igp_cost
        self.deterministic_tiebreak = deterministic_tiebreak
        self.name = f"bgp:{prefix}"

        self._speakers: List[str] = [
            name for name, cfg in network.devices.items() if cfg.bgp is not None
        ]
        self._speaker_set = set(self._speakers)
        self._origins = [
            name
            for name in self._speakers
            if any(p.contains_prefix(prefix) for p in network.device(name).bgp.networks)
        ]
        self._peers_cache: Dict[str, Tuple[str, ...]] = {}
        self._memo_host = memo_host
        if memo_host is not None:
            # The memos are keyed by ids of one intern table: hold its node
            # space (memoised weakly) so the next instance resolves the same
            # ids, and start over should the speakers be another set.
            space = node_space_for(self)
            if memo_host.get("node_space") is not space:
                memo_host.update(node_space=space, adv_edge={}, rank={})
            # Ranking is pure in (node, route), whatever has failed.
            self._rank_cache = memo_host["rank"]

    # ------------------------------------------------------------------ structure
    def nodes(self) -> Sequence[str]:
        return list(self._speakers)

    def origins(self) -> Sequence[str]:
        return list(self._origins)

    def _session(self, node: str, peer: str) -> Optional[BgpNeighbor]:
        bgp = self.network.device(node).bgp
        if bgp is None:
            return None
        return bgp.neighbor(peer)

    def _session_usable(self, node: str, peer: str) -> bool:
        """Whether the node->peer session can currently exchange routes."""
        session = self._session(node, peer)
        reverse = self._session(peer, node)
        if session is None or reverse is None:
            return False
        local_asn = self.network.device(node).bgp.asn
        if session.is_ibgp(local_asn):
            # iBGP rides on the IGP; usability is decided by the caller-supplied
            # predicate (loopback reachability under the current failures).
            return self.session_up(node, peer)
        # eBGP: single-hop sessions need a live physical link.
        live = self.network.topology.links_between(node, peer)
        return any(link.link_id not in self.failed_links for link in live)

    def peers(self, node: str) -> Sequence[str]:
        cached = self._peers_cache.get(node)
        if cached is not None:
            return cached
        bgp = self.network.device(node).bgp
        if bgp is None:
            result: Tuple[str, ...] = ()
        else:
            result = tuple(
                sorted(
                    session.peer
                    for session in bgp.neighbors
                    if session.peer in self._speaker_set and self._session_usable(node, session.peer)
                )
            )
        self._peers_cache[node] = result
        return result

    @cached_property
    def _engine_host(self) -> Optional[Dict[str, Any]]:
        """The host of this instance's RPVP candidate engine
        (:class:`~repro.core.successors.CandidateEngine`), or None for a
        private one.  Its rows are this instance's own — which sessions are up
        is the failure's business — but behind every live session whose
        importer sees it as eBGP lies the memo host's per-edge memo, filled
        once for every failure scenario; iBGP memos stay this instance's."""
        if self._memo_host is None:
            return None
        shared = self._memo_host["adv_edge"]
        memos: Dict[Tuple[str, str], Dict] = {}
        for node in self._speakers:
            bgp = self.network.device(node).bgp
            for peer in self.peers(node):
                if not bgp.neighbor(peer).is_ibgp(bgp.asn):
                    memos[(node, peer)] = shared.setdefault((node, peer), {})
        return {"adv_edge": memos}

    # ------------------------------------------------------------------ filters
    def export(self, exporter: str, importer: str, route: Optional[Route]) -> Optional[Route]:
        if route is None:
            return None
        exporter_cfg = self.network.device(exporter)
        session = exporter_cfg.bgp.neighbor(importer) if exporter_cfg.bgp else None
        if session is None:
            return None
        local_asn = exporter_cfg.bgp.asn
        session_is_ibgp = session.is_ibgp(local_asn)
        # iBGP loop prevention: do not pass iBGP-learned routes to iBGP peers
        # unless acting as a route reflector for the client.
        if session_is_ibgp and route.source == RouteSource.IBGP and not session.route_reflector_client:
            return None
        result = apply_route_map(exporter_cfg, session.export_map, self.prefix, route)
        if not result.permitted or result.route is None:
            return None
        exported = result.route
        as_path_length = exported.as_path_length + (0 if session_is_ibgp else 1)
        return replace(
            exported,
            path=exported.path.prepend(exporter),
            as_path_length=as_path_length,
        )

    def import_(self, importer: str, exporter: str, route: Optional[Route]) -> Optional[Route]:
        if route is None:
            return None
        importer_cfg = self.network.device(importer)
        session = importer_cfg.bgp.neighbor(exporter) if importer_cfg.bgp else None
        if session is None:
            return None
        local_asn = importer_cfg.bgp.asn
        session_is_ibgp = session.is_ibgp(local_asn)
        if session_is_ibgp:
            source = RouteSource.IBGP
            local_pref = route.local_pref  # local-pref is carried across iBGP
            # The IGP cost to the next hop matters for iBGP-learned routes.
            igp_cost = int(self.igp_cost(importer, exporter))
        else:
            source = RouteSource.EBGP
            local_pref = importer_cfg.bgp.default_local_pref
            # eBGP peers are directly connected; no IGP recursion is involved.
            igp_cost = 0
        imported = replace(
            route,
            source=source,
            local_pref=local_pref,
            igp_cost=igp_cost,
        )
        result = apply_route_map(importer_cfg, session.import_map, self.prefix, imported)
        if not result.permitted or result.route is None:
            return None
        return result.route

    # ------------------------------------------------------------------ ranking
    def rank(self, node: str, route: Route) -> Tuple:
        """The BGP decision process as a sort key (lower is preferred).

        Steps: highest local preference, shortest AS path, lowest MED, eBGP
        over iBGP, lowest IGP cost to the next hop.  Remaining ties are left
        unordered (partial order) unless ``deterministic_tiebreak`` adds the
        next-hop name as a final tie-breaker (a stand-in for lowest router id).
        """
        if route.path == EPSILON:
            # A locally originated route is always preferred.
            return (-(10 ** 9), 0, 0, 0, 0) + (("",) if self.deterministic_tiebreak else ())
        key = (
            -route.local_pref,
            route.as_path_length,
            route.med,
            0 if route.source == RouteSource.EBGP else 1,
            route.igp_cost,
        )
        if self.deterministic_tiebreak:
            key = key + (route.next_hop or "",)
        return key

    def session_rank_bound(self, importer: str, exporter: str) -> Optional[Tuple]:
        """Static per-session rank bound from the §4.1.2 determinism analysis.

        Delegates to :meth:`repro.core.determinism.BgpDeterminism.
        session_rank_bound` (local-pref upper bound, 0/1 AS-hop distance, IGP
        cost), built lazily and cached — the analysis walks every route map
        once per instance, not per query.
        """
        determinism = getattr(self, "_determinism", None)
        if determinism is None:
            # Imported here to avoid a module cycle: repro.core.determinism
            # imports this module for the BgpInstance type.
            from repro.core.determinism import BgpDeterminism

            determinism = BgpDeterminism(self)
            self._determinism = determinism
        return determinism.session_rank_bound(importer, exporter)

    # ------------------------------------------------------------------ helpers
    def origin_route(self, node: str) -> Route:
        """The locally originated route of an origin node."""
        if node not in self._origins:
            raise ProtocolError(f"{node} does not originate {self.prefix} into BGP")
        return Route(
            path=EPSILON,
            source=RouteSource.EBGP,
            local_pref=self.network.device(node).bgp.default_local_pref,
            as_path_length=0,
            origin_node=node,
        )
