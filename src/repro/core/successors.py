"""Incremental successor-candidate maintenance for the RPVP hot path.

Expanding a state means knowing, for every node, whether it could still
improve its best path and by which peer updates.  Recomputing that from
scratch — the paper's ``can-update`` predicate over all nodes — costs one
import/export/rank evaluation per (node, peer) edge *per state*, which makes
the per-state step quadratic in network size.

An RPVP transition changes a single node's entry, and ``updating_peers(v)``
depends only on ``best(v)`` and ``best(p)`` for ``p`` in ``peers(v)``.  So a
child state's candidate sets differ from its parent's only at the
transitioned node ``n`` and at the nodes that read ``n`` — and at a reader
``v`` only *one* of the advertisements it sees changed, the one on the edge
``v <- n``.  :class:`CandidateEngine` exploits both: each state carries a
cached :class:`CandidateSets`, and a state derived via ``with_best`` builds
its cache as an **edge delta** off the parent's.  ``n`` itself is re-evaluated
over its own sessions; for each reader only the ``v <- n`` memo is looked up.
When ``n``'s old advertisement on that edge was silent (no route — every move
of a consistent execution, where ``n`` goes from ⊥ to a route) the new one is
merged into what the parent already knew about ``v``: a decided ``v`` becomes
pending iff the new rank beats the rank it holds; an undecided ``v``'s
best-update set is replaced, joined in peer order, or left alone, judged
against the best rank the cache carries beside it.  When the old
advertisement was not silent, ``v`` is re-evaluated over all its sessions.
During a depth-first search the parent's cache is always present when a child
is expanded (the parent was expanded first), so a step costs
deg(n) + readers(n) memo look-ups instead of the sum of the degrees of the
affected nodes, let alone O(E).

Advertisements are ranked when an edge memo is filled and interned only when
a move adopts one (``RpvpState.with_best``): most candidates never enter a
state, and hashing a route is the expensive part of interning it.

Which advertisements improve a node is stated once, in ``_evaluate`` (the raw
``updating_peers``/``best_updates`` primitives over intern-table ids); the
merge is its single-edge case.  A root state, a state whose parent carries
another engine's cache and every not-silent edge take ``_evaluate`` itself,
so the successor relation — and with it every exploration statistic — is
that of the full rescan.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.protocols.base import PathVectorInstance, Route
from repro.protocols.interning import node_space_for
from repro.protocols.rpvp import RpvpState

#: One advertisement memo entry: (advertisement, its rank at the importer),
#: both None when the peer has nothing to say on that edge.
_Entry = Tuple[Optional[Route], Optional[Tuple]]
_SILENT: _Entry = (None, None)


class CandidateSets:
    """Per-state successor-candidate summary.

    Attributes:
        decided_pending: Decided nodes that still have an improving peer —
            in a consistent execution a non-empty set means the state can
            never lead to a converged state (paper §4.1.1).
        updates: For every *undecided* node with at least one improving peer,
            its best-ranked updates (the paper's set ``U``), in ``peers()``
            order.  Each node's candidate list is exactly what a full rescan
            produces; the dict's key insertion order is unspecified.
        best_rank: The rank shared by the candidates of each node in
            ``updates`` (same keys).
        enabled_count: The number of enabled updates, i.e. the summed length
            of the candidate lists.

    A derived state's sets share candidate lists with its parent's: nothing
    here is mutated once built.
    """

    __slots__ = ("decided_pending", "updates", "best_rank", "enabled_count")

    def __init__(
        self,
        decided_pending: FrozenSet[str],
        updates: Dict[str, List[Tuple[str, Route]]],
        best_rank: Dict[str, Tuple],
        enabled_count: int,
    ) -> None:
        self.decided_pending = decided_pending
        self.updates = updates
        self.best_rank = best_rank
        self.enabled_count = enabled_count


class _Rows:
    """The adjacency of one instance compiled over its node space's slots.

    ``sessions[slot]`` lists the sessions the node reads, in ``peers()``
    order: (peer, peer slot, the node <- peer memo).  ``readers[slot]`` is
    the reverse view: (reader, reader slot, the reader <- node memo, the
    node's position in ``peers(reader)``), one per session that reads the
    node; ``peers()`` is not assumed symmetric.  Each memo maps the peer's
    best-route id to the :data:`_Entry` it advertises there — small ints into
    per-edge dicts keep the hot loop free of tuple construction and
    :class:`Route` hashing — and starts out with the entry of id 0, what the
    peer advertises while it holds no route.  ``quiet[slot]`` says that this
    is nothing on every session that reads the node.

    Nothing here depends on the origins: the rows, the id-0 entries and
    ``quiet`` are what a shared host keeps from one search to the next.
    """

    __slots__ = ("sessions", "readers", "positions", "quiet")

    def __init__(
        self,
        instance: PathVectorInstance,
        names: Tuple[str, ...],
        slot_of: Dict[str, int],
        memos: Dict[Tuple[str, str], Dict[int, _Entry]],
        fill: Callable[[str, str, int, Dict[int, _Entry]], _Entry],
    ) -> None:
        self.sessions: List[List[Tuple[str, int, Dict[int, _Entry]]]] = []
        self.readers: List[List[Tuple[str, int, Dict[int, _Entry], int]]] = [[] for _ in names]
        #: positions[slot][peer] = index of the peer's first session in
        #: ``sessions[slot]`` (where a joining candidate of that peer sorts).
        self.positions: List[Dict[str, int]] = []
        for slot, node in enumerate(names):
            row = []
            positions: Dict[str, int] = {}
            for position, peer in enumerate(instance.peers(node)):
                memo = memos.setdefault((node, peer), {})
                if 0 not in memo:
                    fill(node, peer, 0, memo)
                row.append((peer, slot_of[peer], memo))
                positions.setdefault(peer, position)
                self.readers[slot_of[peer]].append((node, slot, memo, position))
            self.sessions.append(row)
            self.positions.append(positions)
        self.quiet: List[bool] = [
            all(memo[0][1] is None for _reader, _slot, memo, _position in readers)
            for readers in self.readers
        ]


def _forget_fill(host: Dict[str, Any]) -> None:
    """Empty what a search filled into a shared host: every per-edge memo
    down to its id-0 entry, and the instance's own id-keyed by-products
    (``adv_route``, where it publishes one).

    In place and never while a memo is being read, so an engine that is
    still alive only misses and evaluates again.
    """
    for memo in host["adv_edge"].values():
        silent = memo[0]
        memo.clear()
        memo[0] = silent
    by_products = host.get("adv_route")
    if by_products:
        by_products.clear()


class CandidateEngine:
    """Computes and incrementally maintains :class:`CandidateSets`.

    One engine serves one protocol instance (one prefix under one failure
    scenario); caches are stamped with the engine identity so a state object
    can never be served a cache computed against a different instance.

    The per-edge memos live as long as a search can read them.  An instance
    without a shared host gets private ones, gone with the engine.  A shared
    host (OSPF: every prefix of one failure scenario) keeps the compiled rows
    for good, and what searches fill in until an engine over *another origin
    set* attaches: routes carry their path, so a search over other origins
    meets none of the ids a finished one left behind — keeping them only
    grows the heap — whereas a search over the same origins (one device
    originating several prefixes) meets exactly the same ids and finds every
    entry filled.
    """

    def __init__(self, instance: PathVectorInstance) -> None:
        self.instance = instance
        # The engine's memos are id-keyed against the instance's intern
        # table, so the node space (memoised weakly) must outlive the memos:
        # hold it strongly for the engine's lifetime.
        self._space = node_space_for(instance)
        self._table = self._space.table
        self._names = self._space.names
        # The memos already guarantee one evaluation per (edge, route id), so
        # prefer an instance hook that takes the id — the route-keyed memo
        # underneath ``advertisement`` would only hash routes.
        self._advertise_id = getattr(instance, "advertisement_by_id", None)
        self._advertise = instance.advertisement
        self._rank_fn = instance.rank
        # Prefix-independent instances (OSPF) publish a shared host, so the
        # per-PEC engines of one failure scenario compile the adjacency once;
        # anyone else gets a private one.
        host = getattr(instance, "_engine_host", None)
        if host is None:
            host = {}
        rows = host.get("rows")
        if rows is None:
            rows = host["rows"] = _Rows(
                instance,
                self._names,
                self._space.slot_of,
                host.setdefault("adv_edge", {}),
                self._miss,
            )
        origins = frozenset(instance.origins())
        if host.setdefault("origins", origins) != origins:
            _forget_fill(host)
            host["origins"] = origins
        self._sessions = rows.sessions
        self._readers = rows.readers
        self._positions = rows.positions
        self._quiet = rows.quiet
        # Per node: the rank of each route it has held, by route id.
        self._held_ranks: List[Dict[int, Tuple]] = [{} for _ in self._names]

    # ------------------------------------------------------------------ node eval
    def _evaluate(
        self,
        state: RpvpState,
        slot: int,
        decided_pending: List[str],
        updates: Dict[str, List[Tuple[str, Route]]],
        best_rank: Dict[str, Tuple],
    ) -> int:
        """Compute one node's contribution into the output collections and
        return how many enabled updates it added.

        Semantically this is ``updating_peers`` + ``best_updates`` (the raw
        Algorithm 1 primitives), evaluated over intern-table ids so the memo
        lookups on the per-state hot path hash small integers instead of
        routes.
        """
        ids = state._ids
        node = self._names[slot]
        incumbent_id = ids[slot]
        if incumbent_id:
            # A decided node: any improving peer marks it pending.
            incumbent_rank = self._held_rank(slot, incumbent_id)
            for peer, peer_slot, memo in self._sessions[slot]:
                peer_best_id = ids[peer_slot]
                entry = memo.get(peer_best_id)
                if entry is None:
                    entry = self._miss(node, peer, peer_best_id, memo)
                rank = entry[1]
                if rank is not None and rank < incumbent_rank:
                    decided_pending.append(node)
                    break
            return 0
        best: List[Tuple[str, Route]] = []
        lowest = None
        for peer, peer_slot, memo in self._sessions[slot]:
            peer_best_id = ids[peer_slot]
            entry = memo.get(peer_best_id)
            if entry is None:
                entry = self._miss(node, peer, peer_best_id, memo)
            rank = entry[1]
            if rank is None:
                continue
            if lowest is None or rank < lowest:
                best = [(peer, entry[0])]
                lowest = rank
            elif rank == lowest:
                best.append((peer, entry[0]))
        if best:
            updates[node] = best
            best_rank[node] = lowest
        return len(best)

    def _miss(self, node: str, peer: str, peer_best_id: int, memo: Dict[int, _Entry]) -> _Entry:
        """Fill one per-edge memo entry (the only cold path of the engine):
        what ``peer`` advertises to ``node`` while its best route is the one
        interned as ``peer_best_id``, and its rank there."""
        if self._advertise_id is not None:
            advertisement = self._advertise_id(node, peer, peer_best_id)
        else:
            advertisement = self._advertise(node, peer, self._table.route(peer_best_id))
        if advertisement is None:
            entry = _SILENT
        else:
            entry = (advertisement, self._rank_fn(node, advertisement))
        memo[peer_best_id] = entry
        return entry

    def _held_rank(self, slot: int, route_id: int) -> Tuple:
        """The rank of the route ``route_id`` at the node that holds it."""
        ranks = self._held_ranks[slot]
        rank = ranks.get(route_id)
        if rank is None:
            rank = ranks[route_id] = self._rank_fn(self._names[slot], self._table.route(route_id))
        return rank

    # ------------------------------------------------------------------ cache
    def candidates(self, state: RpvpState) -> CandidateSets:
        """The candidate sets of ``state``, cached on the state itself."""
        if state._engine_token is self:
            return state._engine_cache
        parent = state.parent
        delta = state.delta
        if parent is not None and parent._engine_token is self:
            cache = self._derive(state, parent._engine_cache, delta)
        else:
            cache = self._full_scan(state)
        state._engine_token = self
        state._engine_cache = cache
        return cache

    def _full_scan(self, state: RpvpState) -> CandidateSets:
        decided_pending: List[str] = []
        updates: Dict[str, List[Tuple[str, Route]]] = {}
        best_rank: Dict[str, Tuple] = {}
        enabled_count = 0
        for slot in range(len(self._names)):
            enabled_count += self._evaluate(state, slot, decided_pending, updates, best_rank)
        return CandidateSets(frozenset(decided_pending), updates, best_rank, enabled_count)

    def _derive(
        self,
        state: RpvpState,
        parent_cache: CandidateSets,
        delta: Tuple[Tuple[int, int, int], ...],
    ) -> CandidateSets:
        """The candidate sets of a state one ``with_best`` away from a state
        whose sets are ``parent_cache`` (see the module docstring)."""
        ((slot, old_id, new_id),) = delta
        ids = state._ids
        node = self._names[slot]
        pending = parent_cache.decided_pending
        updates = dict(parent_cache.updates)
        best_rank = dict(parent_cache.best_rank)
        enabled_count = parent_cache.enabled_count
        newly_pending: List[str] = []
        # Slots whose contribution is recomputed over all their sessions: the
        # moved node, and the readers the merge below does not cover.
        rescan = [slot]
        # A node that held no route, and whose readers hear nothing from a
        # routeless peer, has no old advertisement anywhere.
        unheard = not old_id and self._quiet[slot]
        for reader, reader_slot, memo, position in self._readers[slot]:
            if not unheard:
                entry = memo.get(old_id)
                if entry is None:
                    entry = self._miss(reader, node, old_id, memo)
                if entry[1] is not None:
                    # The node's old advertisement was among what the parent's
                    # sets were built from; they do not say what replaces it.
                    rescan.append(reader_slot)
                    continue
            entry = memo.get(new_id)
            if entry is None:
                entry = self._miss(reader, node, new_id, memo)
            rank = entry[1]
            if rank is None:
                continue
            held_id = ids[reader_slot]
            if held_id:
                if reader not in pending and rank < self._held_rank(reader_slot, held_id):
                    newly_pending.append(reader)
                continue
            lowest = best_rank.get(reader)
            if lowest is None or rank < lowest:
                if lowest is not None:
                    enabled_count -= len(updates[reader])
                updates[reader] = [(node, entry[0])]
                best_rank[reader] = rank
                enabled_count += 1
            elif rank == lowest:
                # Joins the tie where a rescan would have met it.
                positions = self._positions[reader_slot]
                joined = list(updates[reader])
                index = len(joined)
                while index and positions[joined[index - 1][0]] > position:
                    index -= 1
                joined.insert(index, (node, entry[0]))
                updates[reader] = joined
                enabled_count += 1
        no_longer_pending: List[str] = []
        for rescanned in rescan:
            name = self._names[rescanned]
            previous = updates.pop(name, None)
            if previous is not None:
                del best_rank[name]
                enabled_count -= len(previous)
            elif name in pending:
                no_longer_pending.append(name)
            enabled_count += self._evaluate(state, rescanned, newly_pending, updates, best_rank)
        if newly_pending or no_longer_pending:
            pending = pending.difference(no_longer_pending).union(newly_pending)
        return CandidateSets(pending, updates, best_rank, enabled_count)
