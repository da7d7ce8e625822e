"""Dense-id interning of routes and channel queues (the array-native core).

Plankton's scaling argument (NSDI '20, §5) is that explicit-state search over
control planes is only tractable when a state is cheap to copy, compare and
hash.  The persistent chunked vectors from earlier PRs made copies cheap;
equality and hashing, however, still walked boxed :class:`Route` objects slot
by slot.  This module removes the boxes: a :class:`RouteInternTable` assigns
every distinct route (and every distinct channel queue) a small dense integer
id, so protocol states can store flat ``array('i')`` blocks whose equality is
a memcmp and whose hash is ``hash(bytes)``.

One table is shared per state space (per PEC instance family): every
:class:`~repro.protocols.rpvp.RpvpState` over the same node set, and every
:class:`~repro.protocols.spvp.SpvpState` over the same instance, resolve ids
through the same table, which is what makes cross-state id comparison sound.

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

from typing import Dict, List, Optional, Tuple

from repro.protocols.base import Path, Route

__all__ = ["RouteInternTable"]


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

    def unique_entries(self) -> int:
        return len(self._routes) + len(self._queues)

    def approximate_bytes(self) -> int:
        # Dict slot + list slot + id box per interned entry.
        return (len(self._routes) + len(self._queues) + len(self._path_ids)) * 24
