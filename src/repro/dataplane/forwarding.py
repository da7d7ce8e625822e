"""Forwarding analysis over a converged data plane.

Policies are arbitrary functions of the data plane (paper §3.5); in practice
they all need the same primitives: follow the next hops of a packet from a
source device and classify what happens — delivered, dropped, black-holed,
caught in a loop.  This module provides those primitives, handling ECMP by
exploring every next-hop branch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.dataplane.fib import DataPlane, Fib


class PathStatus(enum.Enum):
    """Terminal classification of one forwarding branch."""

    DELIVERED = "delivered"
    DROPPED = "dropped"          # explicit drop (Null0 style)
    BLACKHOLE = "blackhole"      # no matching FIB entry / unresolved entry
    LOOP = "loop"
    TRUNCATED = "truncated"      # exceeded the hop budget


@dataclass(frozen=True)
class PathResult:
    """One forwarding branch: the node sequence and how it ended."""

    nodes: Tuple[str, ...]
    status: PathStatus

    @property
    def length(self) -> int:
        """Number of hops (edges) traversed."""
        return max(0, len(self.nodes) - 1)

    def visits_any(self, nodes: Sequence[str]) -> bool:
        """True if the branch passes through at least one of ``nodes``."""
        return any(node in self.nodes for node in nodes)

    def describe(self) -> str:
        return " -> ".join(self.nodes) + f" [{self.status.value}]"


def trace_paths(
    data_plane: DataPlane,
    source: str,
    address: int,
    max_hops: int = 64,
) -> List[PathResult]:
    """All forwarding branches a packet to ``address`` can take from ``source``.

    ECMP fans out into multiple branches.  A node revisited within a branch is
    a loop.  ``max_hops`` bounds pathological cases (and implements the
    Bounded Path Length policy's hop budget).
    """
    results: List[PathResult] = []

    def walk(node: str, visited: Tuple[str, ...]) -> None:
        path = visited + (node,)
        if node in visited:
            results.append(PathResult(nodes=path, status=PathStatus.LOOP))
            return
        if len(path) - 1 > max_hops:
            results.append(PathResult(nodes=path, status=PathStatus.TRUNCATED))
            return
        entry = data_plane.lookup(node, address)
        if entry is None:
            results.append(PathResult(nodes=path, status=PathStatus.BLACKHOLE))
            return
        if entry.delivers_locally:
            results.append(PathResult(nodes=path, status=PathStatus.DELIVERED))
            return
        if entry.drop:
            results.append(PathResult(nodes=path, status=PathStatus.DROPPED))
            return
        if not entry.next_hops:
            results.append(PathResult(nodes=path, status=PathStatus.BLACKHOLE))
            return
        for next_hop in entry.next_hops:
            walk(next_hop, path)

    walk(source, ())
    return results


class ForwardingGraph:
    """The next-hop graph of a data plane for one address.

    Useful for whole-network analyses (loop detection over all sources at
    once) without repeating per-source traversals.
    """

    def __init__(self, data_plane: DataPlane, address: int) -> None:
        self.data_plane = data_plane
        self.address = address
        self.successors: Dict[str, Tuple[str, ...]] = {}
        self.delivering: Set[str] = set()
        self.dropping: Set[str] = set()
        for device, fib in data_plane.fibs.items():
            entry = fib.lookup(address)
            if entry is None:
                self.successors[device] = ()
            elif entry.delivers_locally:
                self.successors[device] = ()
                self.delivering.add(device)
            elif entry.drop:
                self.successors[device] = ()
                self.dropping.add(device)
            else:
                self.successors[device] = entry.next_hops

    def has_cycle(self) -> Optional[List[str]]:
        """A forwarding cycle (as a node list) if one exists, else None.

        A depth-first search in ``successors`` order, on an explicit stack:
        a forwarding chain can be as long as the network is large.
        """
        WHITE, GREY, BLACK = 0, 1, 2
        successors = self.successors
        color: Dict[str, int] = {node: WHITE for node in successors}
        for root in successors:
            if color[root] != WHITE:
                continue
            color[root] = GREY
            path: List[str] = [root]
            pending = [iter(successors[root])]
            while pending:
                for successor in pending[-1]:
                    seen = color.get(successor)  # None: not a device of the plane
                    if seen == GREY:
                        return path[path.index(successor):] + [successor]
                    if seen == WHITE:
                        color[successor] = GREY
                        path.append(successor)
                        pending.append(iter(successors[successor]))
                        break
                else:
                    pending.pop()
                    color[path.pop()] = BLACK
        return None

    def black_holes(self) -> List[str]:
        """Nodes that neither deliver, drop, nor have next hops for the address."""
        return sorted(
            node
            for node, succs in self.successors.items()
            if not succs and node not in self.delivering and node not in self.dropping
        )


class _ForwardingOrder(NamedTuple):
    """A loop-free plane's forwarding order for one address."""

    #: device -> the longest forwarding distance from it to a sink (a device
    #: with no next hop that is a device); every edge of the plane descends.
    rank: Dict[str, int]
    #: Whether every next hop of a changed device ranks lower than the
    #: device, per FIB of a plane derived from this one, or per ``(slot,
    #: route ids)`` key of a view laid against it (FIBs and keys alike recur
    #: across the planes of a task: derived FIBs are interned under the keys).
    descends: Dict[Hashable, bool]


def _forwarding_order(graph: ForwardingGraph) -> Optional[_ForwardingOrder]:
    """The rank of every device of ``graph``, or None if it has a cycle.

    A post-order depth-first search on an explicit stack; a next hop that is
    not a device of the plane ranks -1.
    """
    successors = graph.successors
    rank: Dict[str, int] = {}
    for root in successors:
        if root in rank:
            continue
        path: List[str] = [root]
        on_path = {root}
        pending = [iter(successors[root])]
        while pending:
            for successor in pending[-1]:
                if successor in on_path:
                    return None
                if successor in successors and successor not in rank:
                    on_path.add(successor)
                    path.append(successor)
                    pending.append(iter(successors[successor]))
                    break
            else:
                pending.pop()
                node = path.pop()
                on_path.discard(node)
                rank[node] = 1 + max((rank.get(hop, -1) for hop in successors[node]), default=-1)
    return _ForwardingOrder(rank, {})


def find_cycle(data_plane, address: int) -> Optional[List[str]]:
    """A forwarding cycle for ``address`` (as a node list) if one exists, else None.

    ``data_plane`` is a :class:`DataPlane`, or a view of one that builds it
    on demand: a converged state's outcome
    (:class:`~repro.core.network_model.ConvergedOutcome`), whose ``base`` is
    its task's reference plane, whose ``changed_keys()`` name the devices
    that hold other routes and whose ``fib_of(key)`` is their FIB, when one
    was built before.

    A plane derived from a loop-free base (``data_plane.base``) is first
    tried against the base's forwarding order: every device it did not
    change keeps the base's edges, which all descend in that order, so if
    every next hop of every changed device descends too, no cycle can close.
    Otherwise — the certificate fails, the base loops, or the plane has no
    base — the answer is :meth:`ForwardingGraph.has_cycle` on the plane; a
    view that cannot pass (it fails, or meets a FIB not built yet) builds
    its plane and checks that.
    """
    base = data_plane.base
    if base is not None:
        orders = base.forwarding_orders
        if address not in orders:
            orders[address] = _forwarding_order(ForwardingGraph(base, address))
        order = orders[address]
        if order is not None and _certified(order, data_plane, address):
            return None
    if not isinstance(data_plane, DataPlane):
        return find_cycle(data_plane.data_plane, address)
    return ForwardingGraph(data_plane, address).has_cycle()


def _certified(order: _ForwardingOrder, data_plane, address: int) -> bool:
    """Whether every changed device of ``data_plane`` forwards ``address``
    down ``order`` (False too when a view's FIB is not built yet)."""
    rank, descends = order
    if isinstance(data_plane, DataPlane):
        keys, fib_of = map(data_plane.fibs.__getitem__, data_plane.changed), None
    else:
        keys, fib_of = data_plane.changed_keys(), data_plane.fib_of
    for key in keys:
        known = descends.get(key)
        if known is None:
            fib = key if fib_of is None else fib_of(key)
            if fib is None:
                return False
            known = descends[key] = _descends(rank, fib, address)
        if not known:
            return False
    return True


def _descends(rank: Dict[str, int], fib: Fib, address: int) -> bool:
    """Whether every next hop ``fib``'s device uses for ``address`` ranks
    lower than the device."""
    entry = fib.lookup(address)
    hops = () if entry is None or entry.delivers_locally or entry.drop else entry.next_hops
    ceiling = rank[fib.device]
    return all(rank.get(hop, -1) < ceiling for hop in hops)
