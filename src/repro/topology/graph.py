"""Topology graph model.

A :class:`Topology` is an undirected multigraph of named :class:`Node` devices
connected by :class:`Link` objects.  Links carry per-direction OSPF weights so
asymmetric metrics can be expressed, and every link has a stable identifier so
failure scenarios and Link Equivalence Classes (paper §4.3) can refer to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple, TypeVar

from repro.exceptions import TopologyError
from repro.netaddr import Prefix

T = TypeVar("T")


@dataclass
class Node:
    """A network device.

    Attributes:
        name: Unique device name within the topology.
        role: Free-form role tag used by generators (``edge``, ``aggregation``,
            ``core``, ``backbone`` ...), consumed by benchmark workloads.
        loopback: Optional loopback /32 prefix (used by iBGP workloads).
        attributes: Arbitrary extra metadata (AS number, pod index, ...).
    """

    name: str
    role: str = "router"
    loopback: Optional[Prefix] = None
    attributes: Dict[str, object] = field(default_factory=dict)

    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Node):
            return self.name == other.name
        if isinstance(other, str):
            return self.name == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"Node({self.name!r}, role={self.role!r})"


@dataclass(frozen=True)
class Link:
    """An undirected link between two devices.

    The pair ``(a, b)`` is stored in the order given at creation; ``endpoints``
    exposes the unordered pair.  ``weight_ab`` / ``weight_ba`` are the IGP
    costs in each direction.
    """

    link_id: int
    a: str
    b: str
    weight_ab: int = 1
    weight_ba: int = 1

    def other(self, name: str) -> str:
        """The endpoint opposite ``name``."""
        if name == self.a:
            return self.b
        if name == self.b:
            return self.a
        raise TopologyError(f"{name!r} is not an endpoint of link {self.link_id}")

    def weight_from(self, name: str) -> int:
        """The IGP cost of the link in the direction leaving ``name``."""
        if name == self.a:
            return self.weight_ab
        if name == self.b:
            return self.weight_ba
        raise TopologyError(f"{name!r} is not an endpoint of link {self.link_id}")

    def __repr__(self) -> str:
        return f"Link({self.link_id}: {self.a}--{self.b})"


class CompiledTopology(NamedTuple):
    """The integer form of a :class:`Topology`, for the loops that walk all of it.

    Attributes:
        names: Node names; a node's position is its dense index (insertion
            order, the order of :attr:`Topology.nodes`).
        index: Node name -> dense index.
        edges: Per node index, one ``(neighbour index, weight leaving the
            node, weight leaving the neighbour, link id)`` per incident link,
            in the order of :meth:`Topology.edges`.
        links: One ``(link id, a index, b index, weight_ab, weight_ba)`` per
            link, in creation order.
    """

    names: Tuple[str, ...]
    index: Dict[str, int]
    edges: Tuple[Tuple[Tuple[int, int, int, int], ...], ...]
    links: Tuple[Tuple[int, int, int, int, int], ...]


class Topology:
    """An undirected network topology.

    The class intentionally keeps adjacency structures precomputed so the
    protocol engines and the model checker can query neighbours in O(1).
    """

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[int, Link] = {}
        self._adjacency: Dict[str, Dict[str, List[int]]] = {}
        self._next_link_id = 0
        self._compiled: Optional[CompiledTopology] = None
        self._derived: Dict[str, object] = {}

    # ------------------------------------------------------------------ nodes
    def add_node(
        self,
        name: str,
        role: str = "router",
        loopback: Optional[Prefix] = None,
        **attributes: object,
    ) -> Node:
        """Add a device; returns the created :class:`Node`.

        Adding a node twice with the same name raises :class:`TopologyError`.
        """
        if name in self._nodes:
            raise TopologyError(f"duplicate node {name!r}")
        node = Node(name=name, role=role, loopback=loopback, attributes=dict(attributes))
        self._nodes[name] = node
        self._adjacency[name] = {}
        self._drop_compiled()
        return node

    def node(self, name: str) -> Node:
        """Look up a node by name; raises :class:`TopologyError` if missing."""
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    @property
    def nodes(self) -> List[str]:
        """All node names, in insertion order."""
        return list(self._nodes)

    def nodes_by_role(self, role: str) -> List[str]:
        """All node names tagged with ``role``."""
        return [n.name for n in self._nodes.values() if n.role == role]

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: object) -> bool:
        return name in self._nodes

    def __iter__(self) -> Iterator[str]:
        return iter(self._nodes)

    # ------------------------------------------------------------------ links
    def add_link(
        self,
        a: str,
        b: str,
        weight: int = 1,
        weight_ba: Optional[int] = None,
    ) -> Link:
        """Add an undirected link between ``a`` and ``b``.

        ``weight`` is used for both directions unless ``weight_ba`` overrides
        the reverse direction.  Self-loops are rejected.
        """
        if a not in self._nodes:
            raise TopologyError(f"unknown node {a!r}")
        if b not in self._nodes:
            raise TopologyError(f"unknown node {b!r}")
        if a == b:
            raise TopologyError(f"self-loop on {a!r} is not allowed")
        link = Link(
            link_id=self._next_link_id,
            a=a,
            b=b,
            weight_ab=weight,
            weight_ba=weight if weight_ba is None else weight_ba,
        )
        self._next_link_id += 1
        self._links[link.link_id] = link
        self._adjacency[a].setdefault(b, []).append(link.link_id)
        self._adjacency[b].setdefault(a, []).append(link.link_id)
        self._drop_compiled()
        return link

    def link(self, link_id: int) -> Link:
        """Look up a link by identifier."""
        try:
            return self._links[link_id]
        except KeyError:
            raise TopologyError(f"unknown link id {link_id}") from None

    @property
    def links(self) -> List[Link]:
        """All links, in creation order."""
        return [self._links[i] for i in sorted(self._links)]

    def links_between(self, a: str, b: str) -> List[Link]:
        """All (parallel) links between ``a`` and ``b``."""
        ids = self._adjacency.get(a, {}).get(b, [])
        return [self._links[i] for i in ids]

    def find_link(self, a: str, b: str) -> Link:
        """The first link between ``a`` and ``b``; raises if none exists."""
        links = self.links_between(a, b)
        if not links:
            raise TopologyError(f"no link between {a!r} and {b!r}")
        return links[0]

    def neighbors(self, name: str, failed_links: Optional[Set[int]] = None) -> List[str]:
        """Neighbouring node names, optionally excluding failed links."""
        if name not in self._adjacency:
            raise TopologyError(f"unknown node {name!r}")
        result = []
        for neighbor, link_ids in self._adjacency[name].items():
            if failed_links is None or any(i not in failed_links for i in link_ids):
                result.append(neighbor)
        return result

    def edges(self, name: str, failed_links: Optional[Set[int]] = None) -> List[Link]:
        """Live links incident to ``name``."""
        result = []
        for link_ids in self._adjacency[name].values():
            for link_id in link_ids:
                if failed_links is None or link_id not in failed_links:
                    result.append(self._links[link_id])
        return result

    def compiled(self) -> CompiledTopology:
        """The integer form of the graph, built on first use.

        Shared by every caller until the next :meth:`add_node` /
        :meth:`add_link`, which drop it — a holder that keeps the returned
        object can tell a mutated topology by ``compiled() is not`` its copy.
        """
        compiled = self._compiled
        if compiled is None:
            index = {name: position for position, name in enumerate(self._nodes)}
            edges = []
            for name in self._nodes:
                row = []
                for link in self.edges(name):
                    neighbor = link.other(name)
                    row.append(
                        (
                            index[neighbor],
                            link.weight_from(name),
                            link.weight_from(neighbor),
                            link.link_id,
                        )
                    )
                edges.append(tuple(row))
            compiled = self._compiled = CompiledTopology(
                names=tuple(self._nodes),
                index=index,
                edges=tuple(edges),
                links=tuple(
                    (link.link_id, index[link.a], index[link.b], link.weight_ab, link.weight_ba)
                    for link in self.links
                ),
            )
        return compiled

    def derived(self, key: str, build: Callable[[CompiledTopology], T]) -> T:
        """``build(self.compiled())``, memoised under ``key``.

        For structures computed from the compiled form (the failure
        reduction's rows and equitable partition): they live and are
        dropped with it.
        """
        try:
            return self._derived[key]  # type: ignore[return-value]
        except KeyError:
            value = self._derived[key] = build(self.compiled())
            return value

    def _drop_compiled(self) -> None:
        self._compiled = None
        self._derived = {}

    def degree(self, name: str) -> int:
        """Number of live links incident to ``name``."""
        return len(self.edges(name))

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, nodes={len(self._nodes)}, "
            f"links={len(self._links)})"
        )
