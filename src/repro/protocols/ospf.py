"""OSPF shortest-path computation on a compiled graph.

OSPF is deterministic: given a topology, link costs and the set of origins of
a prefix, the converged state is a shortest-path DAG toward the closest
origin, with ECMP when several neighbours lie on equal-cost shortest paths.

Three pieces live here, all behind :class:`OspfComputation`:

* the **compiled graph** — built once, on the first computation, from the
  topology's integer adjacency and the device configs: which ordered pairs of
  devices are OSPF-adjacent over which link at what cost
  (:func:`_adjacency_cost` is the only place that rule is written).  The SPF
  kernel, the failure-delta path and :class:`~repro.protocols.ospf_instance.
  OspfInstance` (``peers`` and edge costs) all read it;
* the **SPF kernel** — a multi-source Dijkstra over the compiled integer
  lists, converted to the name-keyed :class:`OspfRoutingTable` only on the
  way out.  Its next-hop tuples are interned per compiled graph, so an ECMP
  set is one tuple in every table of the computation;
* the **failure-delta path** — the table for a non-empty failure set is
  derived from the same origins' failure-free run: a failed link that is not
  on a shortest path changes nothing (the failure-free table itself is
  returned); one whose tail keeps another equal-cost next hop changes only
  that node's ``next_hops``; where a node loses its last shortest-path next
  hop, only the region cut off with it is settled again from its
  neighbours.  The derived table stores only what the failure moved: each
  field is the failure-free table's dict where the failure left it alone,
  else a read-only view of that dict plus the moved entries minus the nodes
  left unreachable (:class:`_Patched`).  Nothing is copied.  The whole
  kernel runs under failures only for what that reasoning does not cover:
  anycast origin sets whose lowest-name tie-break would have to be
  propagated again, and graphs with a non-positive cost.

Two consumers use the results: the OSPF path-vector model, whose
deterministic-node detection heuristic (paper §4.1.2: "picks each node only
after all nodes with shorter paths have executed") needs the network-wide
distances, and the FIB builder, which needs per-node next hops — and, to
derive a failure's data plane from the failure-free one, the nodes whose entry
the failure moved (:meth:`OspfComputation.moved`).
"""

from __future__ import annotations

import heapq
from collections.abc import ItemsView, Mapping
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.config.objects import NetworkConfig, OspfConfig
from repro.exceptions import ConfigError
from repro.topology import Topology
from repro.topology.graph import CompiledTopology

INFINITY = float("inf")

#: One directed OSPF adjacency as seen from a node: (neighbour index, cost,
#: link id).
_Edge = Tuple[int, float, int]
_NO_FAILURES: FrozenSet[int] = frozenset()
_NOTHING: Tuple[str, ...] = ()
_NO_NAMES: FrozenSet[str] = frozenset()


class _Patched(Mapping):
    """A read-only view of the dict ``base`` with ``patch``'s entries over it
    and the keys in ``removed`` taken out, in ``base``'s order.

    How a table under failures holds a field that the failure moved: its
    failure-free table's dict, plus what moved.  A failure only removes
    links, so ``patch`` and ``removed`` name keys of ``base`` (and never the
    same key); nothing of ``base`` is copied or written.
    """

    __slots__ = ("base", "patch", "removed")

    def __init__(self, base: Dict, patch: Dict, removed: FrozenSet[str]) -> None:
        self.base, self.patch, self.removed = base, patch, removed

    def __getitem__(self, key):
        patch = self.patch
        if key in patch:
            return patch[key]
        if key in self.removed:
            raise KeyError(key)
        return self.base[key]

    def get(self, key, default=None):
        patch = self.patch
        if key in patch:
            return patch[key]
        if key in self.removed:
            return default
        return self.base.get(key, default)

    def __contains__(self, key) -> bool:
        return key in self.base and key not in self.removed

    def __iter__(self) -> Iterator:
        removed = self.removed
        if not removed:
            return iter(self.base)
        return (key for key in self.base if key not in removed)

    def __len__(self) -> int:
        return len(self.base) - len(self.removed)

    def items(self) -> ItemsView:
        return _PatchedItems(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class _PatchedItems(ItemsView):
    """``items()`` of a :class:`_Patched` view, walking its base's items
    rather than looking every key up again."""

    __slots__ = ()

    def __iter__(self) -> Iterator:
        view = self._mapping
        patch, removed = view.patch, view.removed
        for key, value in view.base.items():
            if key not in removed:
                yield key, patch.get(key, value)


def _patched(base: Dict, patch: Dict, removed: FrozenSet[str]) -> Mapping:
    """``base`` itself where nothing moved, else the :class:`_Patched` view."""
    return _Patched(base, patch, removed) if patch or removed else base


class OspfRoutingTable:
    """Result of an OSPF computation for one prefix.

    Attributes:
        distances: Cost of the best path from each node to its closest origin
            (absent when unreachable).
        next_hops: For each node, the sorted tuple of ECMP next hops on
            shortest paths (empty for origins and unreachable nodes).
        chosen_origin: The origin each node routes towards.
        deterministic_order: Nodes sorted by increasing distance, ties by
            name — the order in which the deterministic-node POR heuristic
            lets them execute.  Worked out of ``distances`` on first read.

    The three mappings are read-only.  Tables of one :class:`OspfComputation`
    share them: a table under failures holds its failure-free table's dict
    where the failure moved nothing in a field, and a read-only view over it
    (:class:`_Patched`) where it did (see the module docstring); equal
    next-hop tuples are one object.  Read them with ``[]``, ``get``, ``in``
    and iteration; ``dict(...)`` makes a copy of one's own.
    """

    __slots__ = ("distances", "next_hops", "chosen_origin", "_order", "_order_of")

    def __init__(
        self,
        distances: Mapping[str, float],
        next_hops: Mapping[str, Tuple[str, ...]],
        chosen_origin: Mapping[str, str],
        deterministic_order: Optional[Tuple[str, ...]] = None,
        order_of: Optional["OspfRoutingTable"] = None,
    ) -> None:
        """``order_of``: a table with these very ``distances``, whose order
        this one hands over instead of sorting again."""
        self.distances = distances
        self.next_hops = next_hops
        self.chosen_origin = chosen_origin
        self._order = deterministic_order
        self._order_of = order_of

    @property
    def deterministic_order(self) -> Tuple[str, ...]:
        order = self._order
        if order is None:
            if self._order_of is not None:
                order = self._order_of.deterministic_order
            else:
                by_distance = sorted([(cost, name) for name, cost in self.distances.items()])
                order = tuple([name for _, name in by_distance])
            self._order = order
        return order

    def is_reachable(self, node: str) -> bool:
        """True if ``node`` has a finite-cost route to some origin."""
        return self.distances.get(node, INFINITY) < INFINITY

    def __eq__(self, other) -> bool:
        if not isinstance(other, OspfRoutingTable):
            return NotImplemented
        return (
            self.distances == other.distances
            and self.next_hops == other.next_hops
            and self.chosen_origin == other.chosen_origin
            and self.deterministic_order == other.deterministic_order
        )

    def __repr__(self) -> str:
        return (
            f"OspfRoutingTable(distances={dict(self.distances)!r}, "
            f"next_hops={dict(self.next_hops)!r}, "
            f"chosen_origin={dict(self.chosen_origin)!r})"
        )


def _adjacency_cost(
    config: Optional[OspfConfig],
    peer_config: Optional[OspfConfig],
    node: str,
    peer: str,
    link_weight: int,
) -> float:
    """The OSPF cost of the edge ``node -> peer``; infinite when not adjacent.

    An adjacency needs both ends to speak OSPF and neither interface to be
    passive.  The interface cost override of ``node`` wins over the topology
    weight of the link in that direction.
    """
    if config is None or peer_config is None:
        return INFINITY
    if config.is_passive(peer) or peer_config.is_passive(node):
        return INFINITY
    return config.cost_to(peer, link_weight)


class _CompiledGraph:
    """Who is OSPF-adjacent to whom, over which link, at what cost — as ints.

    Dense indexes follow *name order*, so comparing two indexes compares the
    names: the kernel's heap and the origin tie-break order exactly as the
    name-keyed formulation does.

    Attributes:
        topology: The :class:`CompiledTopology` this was built from.
        names / index: Dense index <-> device name.
        speaks: Whether the device runs OSPF.
        out: Per node, its adjacencies ``(neighbour, cost node -> neighbour,
            link id)`` — the candidates for the node's next hops.
        into: Per node, ``(neighbour, cost neighbour -> node, link id)`` —
            what settling the node relaxes.  Both in ``Topology.edges`` order.
        links: Link id -> ``(a, b, cost a -> b, cost b -> a)`` for every link
            carrying an adjacency in at least one direction.
        positive_costs: Every cost is > 0 (what the delta path relies on).
        hop_tuples: Every next-hop name tuple a table of this graph holds,
            keyed by itself (:meth:`hop_names`).
    """

    def __init__(self, network: NetworkConfig, topology: CompiledTopology) -> None:
        self.topology = topology
        self.names: List[str] = sorted(topology.names)
        self.index: Dict[str, int] = {name: i for i, name in enumerate(self.names)}
        dense = [self.index[name] for name in topology.names]
        configs = [network.device(name).ospf for name in self.names]
        self.speaks: List[bool] = [config is not None for config in configs]
        self.out: List[List[_Edge]] = [[] for _ in self.names]
        self.into: List[List[_Edge]] = [[] for _ in self.names]
        self.links: Dict[int, Tuple[int, int, float, float]] = {}
        names = self.names
        for link_id, a, b, weight_ab, weight_ba in topology.links:
            a, b = dense[a], dense[b]
            cost_ab = _adjacency_cost(configs[a], configs[b], names[a], names[b], weight_ab)
            cost_ba = _adjacency_cost(configs[b], configs[a], names[b], names[a], weight_ba)
            if cost_ab != INFINITY or cost_ba != INFINITY:
                self.links[link_id] = (a, b, cost_ab, cost_ba)
        for position, row in enumerate(topology.edges):
            node = dense[position]
            out, into = self.out[node], self.into[node]
            for neighbor, _, _, link_id in row:
                link = self.links.get(link_id)
                if link is None:
                    continue
                leaving, entering = link[2:] if link[0] == node else (link[3], link[2])
                if leaving != INFINITY:
                    out.append((dense[neighbor], leaving, link_id))
                if entering != INFINITY:
                    into.append((dense[neighbor], entering, link_id))
        self.positive_costs = all(
            cost > 0 for link in self.links.values() for cost in link[2:]
        )
        self.hop_tuples: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    def hop_names(self, hops: Set[int]) -> Tuple[str, ...]:
        """``hops`` as the sorted name tuple a table carries (index order is
        name order), interned: equal ECMP sets are one tuple across every
        table of the computation.  The memo lives with ``names``, which the
        indexes refer to."""
        names = self.names
        hop_names = tuple([names[hop] for hop in sorted(hops)])
        return self.hop_tuples.setdefault(hop_names, hop_names)

    def node(self, name: str) -> int:
        """The dense index of device ``name``."""
        try:
            return self.index[name]
        except KeyError:
            raise ConfigError(f"unknown device {name!r}") from None

    def without(self, failed: FrozenSet[int]) -> Tuple[List[List[_Edge]], List[List[_Edge]]]:
        """``(out, into)`` with the failed links' entries removed.

        Only the rows of the failed links' endpoints are rebuilt; every other
        row is the compiled one.
        """
        out, into = self.out, self.into
        touched: Set[int] = set()
        for link_id in failed:
            if link_id in self.links:
                touched.update(self.links[link_id][:2])
        if touched:
            out, into = list(out), list(into)
            for node in touched:
                out[node] = [edge for edge in out[node] if edge[2] not in failed]
                into[node] = [edge for edge in into[node] if edge[2] not in failed]
        return out, into

    def adjacency(
        self, failed: FrozenSet[int]
    ) -> Tuple[Dict[str, Tuple[str, ...]], Dict[Tuple[str, str], float]]:
        """The live adjacency by name: ``(peers, edge_cost)``.

        ``peers[node]`` is the sorted tuple of the node's live neighbours and
        ``edge_cost[node, neighbour]`` the cost of its cheapest live link in
        that direction (parallel links collapse; absent when not adjacent).
        """
        names = self.names
        peers: Dict[str, Tuple[str, ...]] = {}
        edge_cost: Dict[Tuple[str, str], float] = {}
        for name, row in zip(names, self.without(failed)[0]):
            for neighbor, cost, _link_id in row:
                edge = (name, names[neighbor])
                if cost < edge_cost.get(edge, INFINITY):
                    edge_cost[edge] = cost
            peers[name] = tuple(sorted({names[neighbor] for neighbor, _cost, _link in row}))
        return peers, edge_cost


class _ShortestPaths(NamedTuple):
    """One kernel run: the public table plus the arrays the delta path reads."""

    table: OspfRoutingTable
    dist: List[float]
    origin_of: List[int]
    sources: Set[int]


def _shortest_paths(
    graph: _CompiledGraph, origins: Iterable[str], failed: FrozenSet[int]
) -> _ShortestPaths:
    """Multi-source Dijkstra from ``origins`` over the live OSPF adjacencies.

    The computation follows reverse link costs (cost of the edge leaving the
    node towards the origin side), so ``dist[n]`` is the cost of the best
    n -> origin path, exactly what each router's SPF run yields.  Between
    equally distant origins the lowest name wins.
    """
    out, into = graph.without(failed)
    size = len(graph.names)
    dist = [INFINITY] * size
    origin_of = [-1] * size
    reached: List[int] = []  # in order of first discovery
    heap: List[Tuple[float, int, int]] = []
    sources: Set[int] = set()
    for name in origins:
        origin = graph.node(name)
        if not graph.speaks[origin]:
            continue
        if origin not in sources:
            sources.add(origin)
            reached.append(origin)
        dist[origin] = 0.0
        origin_of[origin] = origin
        heap.append((0.0, origin, origin))
    heapq.heapify(heap)

    push, pop = heapq.heappush, heapq.heappop
    settled = [False] * size
    while heap:
        distance, node, origin = pop(heap)
        if settled[node]:
            continue
        settled[node] = True
        for neighbor, cost, _ in into[node]:
            candidate = distance + cost
            best = dist[neighbor]
            if candidate < best:
                if best == INFINITY:
                    reached.append(neighbor)
                dist[neighbor] = candidate
                origin_of[neighbor] = origin
                push(heap, (candidate, neighbor, origin))
            elif candidate == best and origin < origin_of[neighbor]:
                origin_of[neighbor] = origin
                push(heap, (candidate, neighbor, origin))

    names = graph.names
    distances: Dict[str, float] = {}
    next_hops: Dict[str, Tuple[str, ...]] = {}
    chosen_origin: Dict[str, str] = {}
    for node in reached:
        name = names[node]
        distance = distances[name] = dist[node]
        chosen_origin[name] = names[origin_of[node]]
        if node in sources:
            next_hops[name] = ()
        else:
            next_hops[name] = graph.hop_names(_tight_next_hops(out[node], dist, distance))
    return _ShortestPaths(
        OspfRoutingTable(distances, next_hops, chosen_origin), dist, origin_of, sources
    )


def _failure_key(failed_links: Optional[Set[int]]) -> FrozenSet[int]:
    return frozenset(failed_links) if failed_links else _NO_FAILURES


def _tight_next_hops(edges: List[_Edge], dist: List[float], distance: float) -> Set[int]:
    """The neighbours among ``edges`` lying on a shortest path of a node at ``distance``."""
    return {neighbor for neighbor, cost, _ in edges if dist[neighbor] + cost == distance}


def _derive(
    graph: _CompiledGraph, base: _ShortestPaths, failed: FrozenSet[int]
) -> Optional[Tuple[OspfRoutingTable, Tuple[str, ...]]]:
    """The table under ``failed``, worked out of the failure-free ``base``,
    and the nodes whose distance or next hops it changed.

    Relies on positive integer costs: distances survive a failure wherever a
    node keeps one of its shortest-path next hops (and are the same float
    whichever path they were summed along), and a node's chosen origin is the
    lowest among its next hops'.  So only the tails of failed shortest-path
    edges are looked at; where one of them is left without a shortest path,
    the nodes cut off with it are settled again from their neighbours.
    Returns None where the chosen origins of an anycast origin set would have
    to be propagated again: the caller re-runs the kernel.
    """
    dist, table, names = base.dist, base.table, graph.names
    out, into = graph.without(failed)
    recheck: Set[int] = set()  # nodes whose next hops may have changed
    for link_id in failed:
        if link_id not in graph.links:
            continue
        a, b, cost_ab, cost_ba = graph.links[link_id]
        for tail, head, cost in ((a, b, cost_ab), (b, a, cost_ba)):
            if dist[tail] != INFINITY and dist[head] + cost == dist[tail]:
                recheck.add(tail)
    if not recheck:
        return table, _NOTHING

    cut_off = _cut_off(out, into, dist, recheck)
    if cut_off:
        if len(base.sources) > 1:
            return None
        # Besides the cut-off nodes, only those that had one as a next hop
        # change (they lose it): nobody gains a next hop from a failure.
        recheck |= cut_off
        recheck.update(
            child
            for node in cut_off
            for child, cost, _ in into[node]
            if dist[node] + cost == dist[child]
        )
        dist = _resettle(out, into, dist, cut_off)
    patched: Dict[str, Tuple[str, ...]] = {}
    for node in recheck:
        distance = dist[node]
        if distance == INFINITY:
            continue
        hops = _tight_next_hops(out[node], dist, distance)
        if not cut_off and min(base.origin_of[hop] for hop in hops) != base.origin_of[node]:
            return None
        hop_names = graph.hop_names(hops)
        if hop_names != table.next_hops[names[node]]:
            patched[names[node]] = hop_names
    if not cut_off and not patched:
        return table, _NOTHING
    moved = tuple({*patched, *(names[node] for node in cut_off)})
    # Every cut-off node has a longer path now, or none; the chosen origin of
    # one that has is the one origin there is.
    unreachable = (
        frozenset([names[node] for node in cut_off if dist[node] == INFINITY]) or _NO_NAMES
    )
    distances = _patched(
        table.distances,
        {names[node]: dist[node] for node in cut_off if dist[node] != INFINITY},
        unreachable,
    )
    derived = OspfRoutingTable(
        distances,
        _patched(table.next_hops, patched, unreachable),
        _patched(table.chosen_origin, {}, unreachable),
        order_of=table if distances is table.distances else None,
    )
    return derived, moved


def _moved_between(before: OspfRoutingTable, after: OspfRoutingTable) -> Tuple[str, ...]:
    """The nodes whose distance or next hops differ between two tables."""
    return tuple(
        node
        for node in {*before.distances, *after.distances}
        if before.distances.get(node) != after.distances.get(node)
        or before.next_hops.get(node) != after.next_hops.get(node)
    )


def _cut_off(
    out: List[List[_Edge]], into: List[List[_Edge]], dist: List[float], tails: Iterable[int]
) -> Set[int]:
    """The nodes no shortest path of the old length is left for.

    Starting from the tails of failed shortest-path edges: a node is cut off
    when every live next hop it had is, and then its shortest-path children
    are asked the same question.
    """
    cut_off: Set[int] = set()
    pending = list(tails)
    while pending:
        node = pending.pop()
        distance = dist[node]
        if node in cut_off or _tight_next_hops(out[node], dist, distance) - cut_off:
            continue
        cut_off.add(node)
        pending.extend(child for child, cost, _ in into[node] if distance + cost == dist[child])
    return cut_off


def _resettle(
    out: List[List[_Edge]], into: List[List[_Edge]], dist: List[float], cut_off: Set[int]
) -> List[float]:
    """``dist`` with the ``cut_off`` nodes settled again (infinite: unreachable).

    A Dijkstra over the cut-off region only, seeded from its neighbours
    outside: those already sit at their shortest distance, so no relaxation
    can move them.
    """
    dist = list(dist)
    for node in cut_off:
        dist[node] = INFINITY
    heap = []
    for node in cut_off:
        nearest = min([dist[hop] + cost for hop, cost, _ in out[node]], default=INFINITY)
        if nearest != INFINITY:
            dist[node] = nearest
            heap.append((nearest, node))
    heapq.heapify(heap)
    while heap:
        distance, node = heapq.heappop(heap)
        if distance > dist[node]:
            continue
        for child, cost, _ in into[node]:
            if distance + cost < dist[child]:
                dist[child] = distance + cost
                heapq.heappush(heap, (distance + cost, child))
    return dist


class OspfComputation:
    """The per-network OSPF precompute every task of one verifier shares.

    Everything here is derived from the network's configuration and dropped
    together by :meth:`clear_cache`:

    * the compiled graph, built on first use (constructing an
      :class:`OspfComputation` costs nothing) and rebuilt when the topology
      has gained a node or link since;
    * SPF tables keyed by (origins, failed links), matching the paper: "We
      cache this computation so it is only run once for a given topology, set
      of failures, and set of sources" — plus the failure-free kernel run per
      origin set, from which tables under failures are derived and with which
      they share their unchanged fields;
    * per (origins, failed links), the nodes whose entry the failure moved
      (:meth:`moved`);
    * per failure set, what the per-prefix OSPF instances share
      (:meth:`shared_filter_caches`): the live adjacency by name, the
      filter/rank memos and the host of their RPVP candidate engines;
    * the list of devices with static routes the FIB builder walks;
    * what the tasks of one PEC share (:meth:`pec_memos`): its failure-free
      data plane, from which the FIB builder derives its failure planes, and
      its per-prefix memos of what its eBGP sessions advertise and how
      routes rank, read by the BGP instances of all its failure scenarios.
    """

    def __init__(self, network: NetworkConfig) -> None:
        self.network = network
        self.topology: Topology = network.topology
        self._graph: Optional[_CompiledGraph] = None
        self._cache: Dict[Tuple[FrozenSet[str], FrozenSet[int]], OspfRoutingTable] = {}
        #: Tuples, not frozensets: one per failure table, and a frozenset of
        #: a few dozen names costs eight times the bytes.
        self._moved: Dict[Tuple[FrozenSet[str], FrozenSet[int]], Tuple[str, ...]] = {}
        self._failure_free: Dict[FrozenSet[str], _ShortestPaths] = {}
        self._filter_caches: Dict[FrozenSet[int], Dict[str, Dict]] = {}
        self._static_route_devices: Optional[Tuple[str, ...]] = None
        #: ``(PEC, its memos)`` for the last PEC that asked (:meth:`pec_memos`).
        self._pec_memos: Optional[Tuple[object, Dict[str, object]]] = None

    def pec_memos(self, pec) -> Dict[str, object]:
        """What the tasks of ``pec`` share, for one PEC at a time.

        The failure tasks of one PEC run back to back in the independent
        expansion, so the dict is kept for the last PEC that asked and a new
        one is started when another PEC asks (the dependency-aware unrolling
        is failure-major: there the PECs of each failure interleave, and
        every other PEC's ask starts over).  The PEC object itself is held,
        so the memos cannot answer for another PEC.  Keys (see
        ``PecExplorer``): ``"reference_plane"``, an all-shared snapshot of
        the failure-free data plane of a PEC without BGP, from which the
        planes of its failure scenarios are derived (``build_data_plane``);
        ``"bgp"``, BGP prefix -> the memo host of its instances
        (``bgp_instance`` and ``BgpInstance``): what is filtered and ranked
        alike under every failure scenario, filled once for all of them.
        """
        kept = self._pec_memos
        if kept is None or kept[0] is not pec:
            kept = self._pec_memos = (pec, {})
        return kept[1]

    def shared_filter_caches(self, failure_key: FrozenSet[int]) -> Dict[str, Dict]:
        """Filter/rank memo dicts shared by all instances of one failure set.

        OSPF export, import and ranking depend on the topology, the link
        costs and the failed links — never on the prefix — so the per-prefix
        :class:`~repro.protocols.ospf_instance.OspfInstance` objects built
        over this computation can share one set of
        :class:`~repro.protocols.base.PathVectorInstance` memo dicts instead
        of re-evaluating the identical filters per PEC.  Who is adjacent to
        whom is as prefix-independent as the filters, so the live adjacency
        of the failure set is compiled here once: ``peers`` (node -> its
        neighbours, sorted) and ``edge_cost`` ((node, neighbour) -> the
        cheapest live link in that direction; absent when not adjacent).
        """
        caches = self._filter_caches.get(failure_key)
        if caches is None:
            # Compiled before the entry is stored: a topology that has grown
            # since makes ``_compiled_graph`` drop every entry there is.
            peers, edge_cost = self._compiled_graph().adjacency(failure_key)
            caches = {
                "rank": {},
                "peers": peers,
                "edge_cost": edge_cost,
                # The host of the RPVP CandidateEngines (one engine per
                # prefix, all over the shared intern table).  It outlives them
                # with what is prefix-independent: the adjacency rows the
                # first engine compiles and, per edge, what a routeless peer
                # advertises.  What a search fills in — the id-keyed per-edge
                # memos, and ``adv_entry``, the one (advertisement, rank)
                # entry per (speaker, held route id, edge cost) that
                # OspfInstance hands all its readers — is emptied when a
                # search over another origin set attaches (see
                # CandidateEngine).
                "engine": {"adv_entry": {}},
            }
            self._filter_caches[failure_key] = caches
        return caches

    # ------------------------------------------------------------------ graph
    def _compiled_graph(self) -> _CompiledGraph:
        topology = self.topology.compiled()
        if self._graph is not None and self._graph.topology is not topology:
            self.clear_cache()  # the topology gained a node or link since
        if self._graph is None:
            self._graph = _CompiledGraph(self.network, topology)
        return self._graph

    def static_route_devices(self) -> Tuple[str, ...]:
        """Devices configured with at least one static route, in topology order."""
        devices = self._static_route_devices
        if devices is None:
            devices = self._static_route_devices = tuple(
                name for name in self.topology.nodes if self.network.device(name).static_routes
            )
        return devices

    # ------------------------------------------------------------------ SPF
    def compute(
        self,
        origins: Sequence[str],
        failed_links: Optional[Set[int]] = None,
    ) -> OspfRoutingTable:
        """The routing table toward ``origins`` with ``failed_links`` down.

        Origins that do not speak OSPF are ignored.  Results are cached per
        (origins, failed links); a table under failures comes out of the
        failure-free run of the same origins wherever the failure leaves
        every node a shortest-path next hop (see the module docstring).
        """
        return self._table(origins, _failure_key(failed_links))

    def moved(self, origins: Sequence[str], failed_links: Optional[Set[int]]) -> Tuple[str, ...]:
        """The nodes whose distance or next hops toward ``origins`` differ
        between the failure-free table and the one under ``failed_links``.

        The delta path records them as it derives the table (what it patched
        and what it cut off; nothing where it returned the failure-free table
        itself); where the kernel re-ran, they are the two tables' difference,
        worked out on first ask.
        """
        failed = _failure_key(failed_links)
        if not failed:
            return _NOTHING
        table = self._table(origins, failed)
        key = (frozenset(origins), failed)
        moved = self._moved.get(key)
        if moved is None:
            moved = self._moved[key] = _moved_between(self._table(origins, _NO_FAILURES), table)
        return moved

    def _table(self, origins: Sequence[str], failed: FrozenSet[int]) -> OspfRoutingTable:
        graph = self._compiled_graph()
        origin_key = frozenset(origins)
        key = (origin_key, failed)
        table = self._cache.get(key)
        if table is None:
            if not failed or graph.positive_costs:
                base = self._failure_free.get(origin_key)
                if base is None:
                    base = self._failure_free[origin_key] = _shortest_paths(
                        graph, origins, _NO_FAILURES
                    )
                if not failed:
                    table = base.table
                else:
                    derived = _derive(graph, base, failed)
                    if derived is not None:
                        table, self._moved[key] = derived
            if table is None:
                table = _shortest_paths(graph, origins, failed).table
            self._cache[key] = table
        return table

    def igp_cost_between(
        self,
        source: str,
        target: str,
        failed_links: Optional[Set[int]] = None,
    ) -> float:
        """The IGP cost from ``source`` to ``target`` (used by BGP ranking)."""
        table = self.compute([target], failed_links)
        return table.distances.get(source, INFINITY)

    def clear_cache(self) -> None:
        """Drop everything derived from the configuration.

        Call it after mutating device configs: the compiled graph, every SPF
        table and what moved in it, the filter memos handed to OSPF
        instances, the static-route device list and the PEC memos are
        rebuilt on next use.
        """
        self._graph = None
        self._cache.clear()
        self._moved.clear()
        self._failure_free.clear()
        self._filter_caches.clear()
        self._static_route_devices = None
        self._pec_memos = None
