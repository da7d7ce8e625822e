"""Dense-id interning and the id-array state kernel (the array-native core).

Plankton's scaling argument (NSDI '20, §4.4 and §5) is that explicit-state
search over control planes is only tractable when a state is cheap to copy,
compare and hash: every routing entry is stored once in a table and a state
refers to its entries by small ids.  This module is that design, once for
both path-vector models:

* :class:`RouteInternTable` assigns every distinct route (and every distinct
  channel queue) a small dense integer id.
* :class:`_NodeSpace` is the backbone of one sorted node set: the names, the
  name -> slot index and *the* intern table of that node set.  There is one
  live space per node set (:func:`node_space_for`), so every RPVP state and
  every SPVP state over the same nodes resolve ids through one table.
* :class:`IdArrayState` is the state kernel: a flat ``array('i')`` of intern
  ids over a slot layout, a parent, and the ``((slot, old_id, new_id), ...)``
  delta that derived it.  A derived state may leave its array unbuilt until
  something reads the whole state (:meth:`IdArrayState.ids`); the delta and
  the nearest ancestor that holds one rebuild it.  Equality is "same layout,
  equal arrays", the hash is over the raw bytes, and the Zobrist fingerprint
  is folded incrementally off the parent's.
  :class:`~repro.protocols.rpvp.RpvpState` (layout: the node space) and
  :class:`~repro.protocols.spvp.SpvpState` (layout: the node block of the
  node space, then rib and channel blocks) are thin subclasses.

Id spaces:

* **route ids** — ``0`` is reserved for ``None`` (no route).  Ids are handed
  out in first-seen order and never recycled.
* **queue ids** — ``0`` is reserved for the empty queue.  A queue is interned
  as the tuple of the route ids of its messages, so two buffers with equal
  message sequences always share an id.

The two id spaces overlap numerically; callers disambiguate by slot kind
(best/rib slots hold route ids, channel slots hold queue ids), which is also
why Zobrist components are keyed on ``(slot, id)`` pairs.

Alongside each route id the table precomputes the id of the route's *path*:
SPVP's re-advertisement rule fires on path changes only (route attributes are
a function of the path for a fixed instance), so "did the best path change?"
becomes an integer comparison.
"""

from __future__ import annotations

import weakref
from array import array
from typing import Dict, List, Optional, Tuple

from repro.protocols.base import Path, PathVectorInstance, Route

__all__ = ["IdArrayState", "RouteInternTable", "node_space", "node_space_for"]


class RouteInternTable:
    """Bidirectional ``Optional[Route] <-> int`` (and queue) intern table."""

    __slots__ = (
        "_route_ids",
        "_routes",
        "_route_path_ids",
        "_path_ids",
        "_queue_ids",
        "_queues",
        "__weakref__",
    )

    def __init__(self) -> None:
        # Route id 0 is always "no route".
        self._route_ids: Dict[Optional[Route], int] = {None: 0}
        self._routes: List[Optional[Route]] = [None]
        # _route_path_ids[rid] is the id of _routes[rid].path (0 for None).
        self._route_path_ids: List[int] = [0]
        self._path_ids: Dict[Optional[Path], int] = {None: 0}
        # Queue id 0 is always the empty queue.
        self._queue_ids: Dict[Tuple[int, ...], int] = {(): 0}
        self._queues: List[Tuple[int, ...]] = [()]

    # -- route ids ---------------------------------------------------------

    def route_id(self, route: Optional[Route]) -> int:
        """Intern ``route`` (or ``None``) and return its dense id."""
        ids = self._route_ids
        rid = ids.get(route)
        if rid is None:
            rid = len(self._routes)
            ids[route] = rid
            self._routes.append(route)
            path_ids = self._path_ids
            path = route.path
            pid = path_ids.get(path)
            if pid is None:
                pid = len(path_ids)
                path_ids[path] = pid
            self._route_path_ids.append(pid)
        return rid

    def route(self, rid: int) -> Optional[Route]:
        """The route behind ``rid`` (``None`` for id 0)."""
        return self._routes[rid]

    def path_id(self, rid: int) -> int:
        """The id of ``route(rid).path`` — equal ids iff equal paths."""
        return self._route_path_ids[rid]

    # -- queue ids ---------------------------------------------------------

    def queue_id(self, route_ids: Tuple[int, ...]) -> int:
        """Intern a channel queue given as a tuple of route ids."""
        ids = self._queue_ids
        qid = ids.get(route_ids)
        if qid is None:
            qid = len(self._queues)
            ids[route_ids] = qid
            self._queues.append(route_ids)
        return qid

    def queue(self, qid: int) -> Tuple[int, ...]:
        """The interned queue behind ``qid`` as a tuple of route ids."""
        return self._queues[qid]

    # -- accounting --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._routes)


class _NodeSpace:
    """The shared backbone of all states over one sorted node set.

    Every state over the same nodes assigns routes to the same nodes, so the
    node names, the name -> slot index and the route intern table live here
    exactly once and each state stores only a flat vector of ids.
    """

    __slots__ = ("names", "slot_of", "table", "__weakref__")

    def __init__(self, names: Tuple[str, ...]) -> None:
        self.names = names
        self.slot_of = {name: slot for slot, name in enumerate(names)}
        self.table = RouteInternTable()


#: Node spaces interned per sorted node set: explorations over the same nodes,
#: both protocol models and states rebuilt from pickles share one backbone.
#: Every state holds its space, so while any state over a node set is alive
#: its space is the only one.  Weak values so a long-lived process (the
#: engine's persistent pool workers) does not accumulate backbones of
#: networks it no longer holds states for.
_NODE_SPACES: "weakref.WeakValueDictionary[Tuple[str, ...], _NodeSpace]" = (
    weakref.WeakValueDictionary()
)


def node_space(names: Tuple[str, ...]) -> _NodeSpace:
    """The one live space over the node set ``names`` (already sorted)."""
    space = _NODE_SPACES.get(names)
    if space is None:
        space = _NODE_SPACES[names] = _NodeSpace(names)
    return space


def node_space_for(instance: PathVectorInstance) -> _NodeSpace:
    """The shared node space (and intern table) of ``instance``'s states."""
    return node_space(tuple(sorted(instance.nodes())))


class IdArrayState:
    """A persistent protocol state: one flat ``array('i')`` of intern ids.

    ``_space`` is the slot layout the ids are laid out in; it exposes the
    intern table as ``table``.  A state derived from another remembers its
    ``parent`` and the ``((slot, old_id, new_id), ...)`` triples of the slots
    it changed, which is what makes the visited-set fingerprint an
    O(changed slots) XOR off the parent's (paper §4.4).  Ids are only
    comparable within one layout, so two states are equal exactly when they
    share the layout object and their arrays are equal.

    The array itself may be built late: a derived state can be created with
    ``_ids`` None, and :meth:`ids` builds it on the first read from the
    nearest ancestor that holds one plus the deltas below it.  A search
    that admits many states and expands few of them (a depth bound, a
    duplicate successor) then pays an array only for the states it reads.
    RPVP states always hold theirs; SPVP states build theirs when stepped.
    """

    __slots__ = ("_space", "_ids", "parent", "delta", "_fp_token", "_fp", "_hash")

    #: The per-search slots :meth:`detach` clears (subclasses add theirs).
    _SEARCH_SLOTS: Tuple[str, ...] = ("_fp_token",)

    def _init_ids(self, space, ids: "Optional[array[int]]", parent, delta) -> None:
        self._space = space
        #: The id array, or None until :meth:`ids` builds it (derived
        #: states only: a root always holds its array).
        self._ids = ids
        #: The state this one was derived from (None for roots).
        self.parent = parent
        #: ``(slot, old_id, new_id)`` triples of the changed slots.
        self.delta = delta
        self._fp_token = None
        self._fp = 0
        self._hash = None

    def _unbuilt_chain(self) -> "Tuple[IdArrayState, List[IdArrayState]]":
        """The nearest ancestor-or-self holding an array, and the states
        between it and this one, nearest first (iterative: a drain chain is
        hundreds of states long)."""
        chain: List[IdArrayState] = []
        state = self
        while state._ids is None:
            chain.append(state)
            state = state.parent
        return state, chain

    def ids(self) -> "array[int]":
        """The id array, built on first use and kept from then on."""
        ids = self._ids
        if ids is None:
            base, chain = self._unbuilt_chain()
            ids = array("i", base._ids)
            for derived in reversed(chain):
                for slot, _old, new in derived.delta:
                    ids[slot] = new
            self._ids = ids
        return ids

    def head_ids(self, count: int) -> "array[int]":
        """A copy of the first ``count`` ids, read without building the array."""
        if self._ids is not None:
            return self._ids[:count]
        base, chain = self._unbuilt_chain()
        head = base._ids[:count]
        for derived in reversed(chain):
            for slot, _old, new in derived.delta:
                if slot < count:
                    head[slot] = new
        return head

    @property
    def intern_table(self) -> RouteInternTable:
        """The shared intern table this state resolves ids through."""
        return self._space.table

    def detach(self):
        """Drop the search-time caches once the search is done with this state.

        States handed out of a search — converged states kept in results —
        would otherwise pin their whole ancestor chain in memory, plus the
        search's fingerprinter and whatever else it cached on the state.  The
        id vector stays resolvable through the shared layout, so lookups and
        equality are unaffected; a later fingerprint is a full fold.
        Returns self for chaining.
        """
        self.ids()
        self.parent = None
        self.delta = ()
        for name in self._SEARCH_SLOTS:
            setattr(self, name, None)
        return self

    def fingerprint(self, hasher) -> int:
        """This state's Zobrist fingerprint under ``hasher``.

        ``hasher`` is a :class:`~repro.modelcheck.hashing.ZobristFingerprinter`
        bound to this state's :attr:`intern_table`: slots already hold table
        ids, so every component is keyed directly on ``(slot, id)`` — no
        decode, no path hashing.  Computed incrementally from the nearest
        ancestor ``hasher`` already fingerprinted via the recorded deltas —
        O(changed slots) during a search, where parents are fingerprinted
        before their children — and by a full fold over all slots for roots
        and detached states.
        """
        if self._fp_token is hasher:
            return self._fp
        component_id = hasher.component_id
        chain: List[IdArrayState] = []
        state = self
        while state._fp_token is not hasher and state.parent is not None:
            chain.append(state)
            state = state.parent
        if state._fp_token is hasher:
            value = state._fp
        else:
            value = 0
            for slot, eid in enumerate(state.ids()):
                value ^= component_id(slot, eid)
            state._fp_token = hasher
            state._fp = value
        for derived in reversed(chain):
            for slot, old, new in derived.delta:
                value ^= component_id(slot, old) ^ component_id(slot, new)
            derived._fp_token = hasher
            derived._fp = value
        return value

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, IdArrayState):
            return NotImplemented
        return self._space is other._space and self.ids() == other.ids()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.ids().tobytes())
        return self._hash
