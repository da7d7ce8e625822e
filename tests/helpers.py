"""Builders and readers that only the tests use.

The package keeps what a workload runs; these build the small topologies
the unit tests reason about, read a whole SPVP state as plain maps (and
build one back), and compare transient results across reduction modes.
Imported as ``tests.helpers`` from the repository root.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.config.objects import NetworkConfig, PrefixList, PrefixListEntry, StaticRoute
from repro.dataplane.fib import Fib, FibEntry
from repro.exceptions import ProtocolError, TopologyError
from repro.netaddr import Prefix
from repro.protocols.base import EPSILON, Route
from repro.protocols.rpvp import RpvpState
from repro.protocols.spvp import DELIVERING, NO_ROUTE, Channel, SpvpState, SpvpStepper
from repro.topology.graph import Topology
from repro.transient.properties import TransientForwarding, TransientProperty


# --------------------------------------------------------------------------- topologies
def linear_chain(n: int, link_weight: int = 1, name: Optional[str] = None) -> Topology:
    """A simple chain ``r0 - r1 - ... - r{n-1}``."""
    if n < 2:
        raise TopologyError(f"chain needs at least 2 nodes, got {n}")
    topo = Topology(name or f"chain-{n}")
    for i in range(n):
        topo.add_node(f"r{i}", role="router", index=i)
    for i in range(n - 1):
        topo.add_link(f"r{i}", f"r{i + 1}", weight=link_weight)
    return topo


def full_mesh(n: int, link_weight: int = 1, name: Optional[str] = None) -> Topology:
    """A full mesh of ``n`` routers."""
    if n < 2:
        raise TopologyError(f"mesh needs at least 2 nodes, got {n}")
    topo = Topology(name or f"mesh-{n}")
    for i in range(n):
        topo.add_node(f"r{i}", role="router", index=i)
    for i in range(n):
        for j in range(i + 1, n):
            topo.add_link(f"r{i}", f"r{j}", weight=link_weight)
    return topo


def grid(rows: int, cols: int, link_weight: int = 1, name: Optional[str] = None) -> Topology:
    """A ``rows`` x ``cols`` grid; handy for medium-sized deterministic tests."""
    if rows < 1 or cols < 1:
        raise TopologyError("grid dimensions must be positive")
    topo = Topology(name or f"grid-{rows}x{cols}")
    for r in range(rows):
        for c in range(cols):
            topo.add_node(f"g{r}_{c}", role="router", row=r, col=c)
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                topo.add_link(f"g{r}_{c}", f"g{r}_{c + 1}", weight=link_weight)
            if r + 1 < rows:
                topo.add_link(f"g{r}_{c}", f"g{r + 1}_{c}", weight=link_weight)
    return topo


def is_connected(topology: Topology, failed_links: Optional[Set[int]] = None) -> bool:
    """True if every node is reachable from the first node."""
    nodes = topology.nodes
    if not nodes:
        return True
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        current = stack.pop()
        for neighbor in topology.neighbors(current, failed_links):
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return len(seen) == len(nodes)


def copy_topology(topology: Topology) -> Topology:
    """A deep-enough copy: nodes and links are recreated, attributes shared."""
    return induced_subgraph(topology, topology.nodes, name=topology.name)


def induced_subgraph(topology: Topology, names: Iterable[str], name: Optional[str] = None) -> Topology:
    """The subgraph induced by ``names`` (links with both endpoints kept)."""
    keep = set(names)
    sub = Topology(name or f"{topology.name}-sub")
    for node_name in topology.nodes:
        if node_name in keep:
            node = topology.node(node_name)
            sub.add_node(node_name, role=node.role, loopback=node.loopback, **node.attributes)
    for link in topology.links:
        if link.a in keep and link.b in keep:
            sub.add_link(link.a, link.b, weight=link.weight_ab, weight_ba=link.weight_ba)
    return sub


def shortest_path_lengths(
    topology: Topology, source: str, failed_links: Optional[Set[int]] = None
) -> Dict[str, int]:
    """Dijkstra distances (by IGP weight) from ``source`` to every node."""
    distances: Dict[str, int] = {source: 0}
    heap: List[Tuple[int, str]] = [(0, source)]
    settled: Set[str] = set()
    while heap:
        dist, current = heapq.heappop(heap)
        if current in settled:
            continue
        settled.add(current)
        for link in topology.edges(current, failed_links):
            neighbor = link.other(current)
            candidate = dist + link.weight_from(current)
            if neighbor not in distances or candidate < distances[neighbor]:
                distances[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    return distances


# --------------------------------------------------------------------------- configs and planes
def add_static_route(
    network: NetworkConfig,
    device: str,
    prefix: Prefix,
    next_hop_node: Optional[str] = None,
    next_hop_ip: Optional[Prefix] = None,
    drop: bool = False,
) -> NetworkConfig:
    """Add one static route to ``device`` (mutates and returns ``network``)."""
    network.device(device).static_routes.append(
        StaticRoute(prefix=prefix, next_hop_node=next_hop_node, next_hop_ip=next_hop_ip, drop=drop)
    )
    return network


def add_entry(
    plist: PrefixList,
    prefix: Prefix,
    permit: bool = True,
    ge: Optional[int] = None,
    le: Optional[int] = None,
) -> PrefixList:
    """Append an entry to ``plist``; returns it for chaining."""
    plist.entries.append(PrefixListEntry(prefix, permit, ge, le))
    return plist


def entry_for(fib: Fib, prefix: Prefix) -> Optional[FibEntry]:
    """The entry ``fib`` holds for exactly ``prefix`` (no longest-prefix match)."""
    return fib._entries.get(prefix)


# --------------------------------------------------------------------------- task graphs
def dependents(graph) -> Dict[int, List[int]]:
    """Reverse adjacency of a task graph: task id -> ids of its dependents."""
    reverse: Dict[int, List[int]] = {task.task_id: [] for task in graph.tasks}
    for task in graph.tasks:
        for dependency in task.depends_on:
            reverse[dependency].append(task.task_id)
    return reverse


def validate_task_graph(graph) -> None:
    """Check that ids are positions and edges point backwards (the
    invariants the ledger and the backends index by)."""
    for position, task in enumerate(graph.tasks):
        if task.task_id != position:
            raise ValueError(f"task at position {position} has id {task.task_id}")
        for dependency in task.depends_on:
            if dependency >= task.task_id:
                raise ValueError(f"task {task.task_id} depends on non-earlier task {dependency}")


# --------------------------------------------------------------------------- RPVP / SPVP states
def forwarding_next_hops(state: RpvpState) -> Dict[str, Optional[str]]:
    """The next hop each node forwards to in ``state`` (None = no route)."""
    result: Dict[str, Optional[str]] = {}
    for node, route in state.items():
        if route is None:
            result[node] = None
        elif route.path == EPSILON:
            result[node] = node  # the origin delivers locally
        else:
            result[node] = route.path.head
    return result


def buffer_of(state: SpvpState, channel: Channel) -> Tuple[Optional[Route], ...]:
    """The queued advertisements of ``channel``, oldest first."""
    space = state._space
    try:
        slot = space.channel_slot[channel]
    except KeyError:
        raise ProtocolError(f"channel {channel!r} not part of this SPVP state") from None
    return tuple(space.table.route(rid) for rid in space.table.queue(state.ids()[slot]))


def best_map(state: SpvpState) -> Dict[str, Optional[Route]]:
    """The node -> best route assignment as a mutable dict, in
    ``instance.nodes()`` order (read off the best block: no array is built)."""
    space = state._space
    ids = state.head_ids(len(space.nodes))
    return {node: space.table.route(ids[slot]) for node, slot in space.best_slot.items()}


def rib_in_map(state: SpvpState) -> Dict[Tuple[str, str], Optional[Route]]:
    """The (node, peer) -> rib-in assignment as a mutable dict."""
    table = state._space.table
    ids = state.ids()
    return {key: table.route(ids[slot]) for key, slot in state._space.rib_slot.items()}


def buffer_map(state: SpvpState) -> Dict[Channel, Tuple[Optional[Route], ...]]:
    """The channel -> queued advertisements map (tuples, oldest first)."""
    return {channel: buffer_of(state, channel) for channel in state._space.channels}


def state_from_maps(
    stepper: SpvpStepper,
    best: Dict[str, Optional[Route]],
    rib_in: Dict[Tuple[str, str], Optional[Route]],
    buffers: Dict[Channel, Iterable[Optional[Route]]],
) -> SpvpState:
    """Build a state of ``stepper``'s instance from explicit maps."""
    space = stepper.space
    table = stepper.table
    ids = array("i", bytes(4 * space.total_slots))
    for node, slot in space.best_slot.items():
        ids[slot] = table.route_id(best[node])
    for key, slot in space.rib_slot.items():
        ids[slot] = table.route_id(rib_in[key])
    pending = 0
    for channel in space.channels:
        queue = tuple(buffers[channel])
        ids[space.channel_slot[channel]] = table.queue_id(
            tuple(table.route_id(route) for route in queue)
        )
        if queue:
            pending |= space.channel_bit[channel]
    return SpvpState.__new__(SpvpState)._init(space, ids, pending)


# --------------------------------------------------------------------------- transient results
def verdict_signature(result) -> Tuple:
    """What every sound reduction must preserve: the per-property verdict
    and the set of converged best-path assignments.

    Unlike ``stats_signature`` this is comparable across POR modes: reduced
    runs explore fewer states and may reach a violating state through a
    different (shorter or permuted) witness, but they must agree on *which
    properties* are violated and on the converged states (the SPVP
    deadlocks, which ample sets provably preserve).
    """
    return (
        tuple(sorted({v.property_name for v in result.violations})),
        frozenset(
            tuple(
                sorted(
                    (node, route.path if route is not None else None)
                    for node, route in state.as_dict().items()
                )
            )
            for state in result.converged_rpvp_states
        ),
    )


def forwarding_of(state: SpvpState) -> TransientForwarding:
    """The slot relation of an SPVP state's current best paths."""
    space = state._space
    return TransientForwarding.of_best(space, state.head_ids(len(space.nodes)))


def forwarding_from(
    next_hop: Dict[str, Optional[str]], delivering: Iterable[str] = ()
) -> TransientForwarding:
    """The slot relation of a name-keyed one: ``next_hop`` in its key order
    (None = no route, or an origin), ``delivering`` the origins among its
    keys.  A next hop that is no key becomes a head outside the nodes."""
    delivering = frozenset(delivering)
    if not delivering <= next_hop.keys() or any(next_hop[node] for node in delivering):
        raise ValueError("an origin is a node that forwards nowhere")
    names = list(next_hop)
    position = {name: index for index, name in enumerate(names)}
    hops = []
    for node, successor in next_hop.items():
        if successor is None:
            hops.append(DELIVERING if node in delivering else NO_ROUTE)
            continue
        if successor not in position:
            position[successor] = len(names)
            names.append(successor)
        hops.append(position[successor])
    return TransientForwarding(tuple(names), hops)


class AlwaysReaches(TransientProperty):
    """The given sources always have a path leading to a delivering node.

    A strong continuity property (no interruption of service during
    convergence) that most networks violate transiently: a probe that makes
    the searches record many violations.
    """

    name = "always-reaches"

    def __init__(self, sources: Sequence[str]) -> None:
        self.sources = list(sources)

    def check(self, forwarding: TransientForwarding, converged: bool) -> Optional[str]:
        for source in self.sources:
            node: Optional[str] = source
            hops = 0
            limit = len(forwarding.next_hop) + 1
            while node is not None and node not in forwarding.delivering and hops <= limit:
                node = forwarding.next_hop.get(node)
                hops += 1
            if node is None or node not in forwarding.delivering:
                return f"{source} cannot reach an origin in this state"
        return None
