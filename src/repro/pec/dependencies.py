"""PEC dependency graph, SCC condensation and scheduling order (paper §3.2).

A PEC *depends on* another when the forwarding behaviour of the first can only
be determined once the second has converged.  The two sources of dependencies
modelled here (matching the paper) are:

* **recursive static routes** — a static route for destination prefix ``D``
  whose next hop is IP address ``A`` makes the PECs covering ``D`` depend on
  the PEC covering ``A`` (including the self-loop case the paper observed in
  real configurations, where ``A`` falls inside ``D``);
* **iBGP sessions** — the PECs of prefixes advertised over iBGP depend on the
  PECs of the loopback addresses of the BGP speakers, because session
  liveness and IGP costs are determined by the underlying IGP routing for
  those addresses.

The dependency-aware scheduler condenses the graph into strongly connected
components (Tarjan) and schedules SCCs so that every SCC runs only after the
SCCs it depends on have produced their converged states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.config.objects import NetworkConfig
from repro.exceptions import SchedulingError
from repro.netaddr import Prefix
from repro.pec.classes import PacketEquivalenceClass, pec_covering_prefix


@dataclass
class PecDependencyGraph:
    """Directed dependency graph over PECs.

    An edge ``a -> b`` means "PEC ``a`` depends on PEC ``b``" (``b`` must be
    analysed first).  ``sccs`` lists the strongly connected components;
    ``schedule_order`` lists SCC indices in a valid execution order
    (dependencies first).
    """

    classes: List[PacketEquivalenceClass]
    edges: Dict[int, Set[int]] = field(default_factory=dict)

    def add_edge(self, dependent: int, dependency: int) -> None:
        """Record that PEC ``dependent`` depends on PEC ``dependency``."""
        self.edges.setdefault(dependent, set()).add(dependency)

    def dependencies_of(self, index: int) -> Set[int]:
        """Direct dependencies of PEC ``index``."""
        return set(self.edges.get(index, set()))

    def dependents_of(self, index: int) -> Set[int]:
        """PECs that directly depend on PEC ``index``."""
        return {a for a, deps in self.edges.items() if index in deps}

    # ------------------------------------------------------------------ SCCs
    def strongly_connected_components(self) -> List[List[int]]:
        """Tarjan SCCs over all PEC indices (singletons included)."""
        indices = [pec.index for pec in self.classes]
        return strongly_connected_components(indices, self.edges)

    def schedule(self) -> List[List[int]]:
        """SCCs in execution order: every SCC after all SCCs it depends on.

        The order is deterministic (ties broken by smallest member index).
        """
        sccs = self.strongly_connected_components()
        component_of: Dict[int, int] = {}
        for component_index, members in enumerate(sccs):
            for member in members:
                component_of[member] = component_index
        # Build the condensed DAG: component -> components it depends on.
        condensed: Dict[int, Set[int]] = {i: set() for i in range(len(sccs))}
        for dependent, dependencies in self.edges.items():
            for dependency in dependencies:
                a = component_of[dependent]
                b = component_of[dependency]
                if a != b:
                    condensed[a].add(b)
        # Kahn's algorithm over the condensed DAG, dependencies first.
        in_order: List[int] = []
        remaining = dict(condensed)
        done: Set[int] = set()
        while remaining:
            ready = sorted(
                (index for index, deps in remaining.items() if deps <= done),
                key=lambda i: min(sccs[i]),
            )
            if not ready:
                raise SchedulingError("cyclic dependencies between SCCs (internal error)")
            for index in ready:
                in_order.append(index)
                done.add(index)
                del remaining[index]
        return [sorted(sccs[i]) for i in in_order]


def strongly_connected_components(
    nodes: Sequence[int], edges: Dict[int, Set[int]]
) -> List[List[int]]:
    """Iterative Tarjan SCC over integer node ids."""
    index_counter = 0
    stack: List[int] = []
    on_stack: Set[int] = set()
    indices: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    result: List[List[int]] = []

    for root in nodes:
        if root in indices:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, child_position = work[-1]
            if child_position == 0:
                indices[node] = index_counter
                lowlink[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            successors = sorted(edges.get(node, set()))
            for position in range(child_position, len(successors)):
                successor = successors[position]
                if successor not in indices:
                    work[-1] = (node, position + 1)
                    work.append((successor, 0))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], indices[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == indices[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(sorted(component))
    return result


def build_dependency_graph(
    network: NetworkConfig,
    classes: Sequence[PacketEquivalenceClass],
) -> PecDependencyGraph:
    """Build the PEC dependency graph of ``network`` (paper §3.2, Figure 5)."""
    graph = PecDependencyGraph(classes=list(classes))
    by_prefix_cache: Dict[Prefix, List[PacketEquivalenceClass]] = {}

    def pecs_for(prefix: Prefix) -> List[PacketEquivalenceClass]:
        if prefix not in by_prefix_cache:
            by_prefix_cache[prefix] = pec_covering_prefix(classes, prefix)
        return by_prefix_cache[prefix]

    # Recursive static routes: destination PECs depend on next-hop-IP PECs.
    for device in network.devices.values():
        for route in device.static_routes:
            if route.next_hop_ip is None:
                continue
            for dependent in pecs_for(route.prefix):
                for dependency in pecs_for(route.next_hop_ip):
                    graph.add_edge(dependent.index, dependency.index)

    # iBGP: PECs of BGP prefixes advertised over iBGP sessions depend on the
    # PECs covering the loopbacks of the session endpoints.
    topology = network.topology
    for name, config in network.devices.items():
        if config.bgp is None:
            continue
        ibgp_peers = config.bgp.ibgp_peers()
        if not ibgp_peers:
            continue
        loopback_prefixes: List[Prefix] = []
        for endpoint in [name] + list(ibgp_peers):
            loopback = topology.node(endpoint).loopback if endpoint in topology else None
            if loopback is not None:
                loopback_prefixes.append(loopback)
        if not loopback_prefixes:
            continue
        for advertised in config.bgp.networks:
            for dependent in pecs_for(advertised):
                for loopback in loopback_prefixes:
                    for dependency in pecs_for(loopback):
                        if dependency.index != dependent.index:
                            graph.add_edge(dependent.index, dependency.index)
    return graph
