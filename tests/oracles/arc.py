"""An ARC-style graph-based verifier for shortest-path routing under failures.

ARC [Gember-Jacobson et al., SIGCOMM'16] abstracts the control plane into
weighted digraphs — one per traffic class — and answers questions like
"is destination D reachable from source S under any k link failures?" with
polynomial graph algorithms (max-flow / min-cut) instead of enumerating
failure scenarios.  It only supports configurations whose converged behaviour
is shortest-path routing (no LocalPref, no recursive routing).

This reproduction keeps ARC's defining trait that the paper's Figure 7(g)
experiment exposes: it builds a separate model per (source, destination)
pair, so all-to-all reachability does quadratically many graph computations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.config.objects import NetworkConfig
from repro.exceptions import VerificationError
from repro.netaddr import Prefix


@dataclass
class ArcResult:
    """Result of an ARC-style query."""

    holds: bool
    elapsed_seconds: float
    pair_models_built: int
    min_cut_found: Optional[int] = None
    violating_pair: Optional[Tuple[str, str]] = None


class ArcVerifier:
    """Reachability-under-failures verification via min-cut computations."""

    def __init__(self, network: NetworkConfig) -> None:
        self.network = network
        self.topology = network.topology
        self._check_supported()

    def _check_supported(self) -> None:
        """ARC cannot model BGP LocalPref or recursive routing; reject such configs."""
        for name, config in self.network.devices.items():
            if config.bgp is not None:
                for route_map in config.route_maps.values():
                    for clause in route_map.clauses:
                        if clause.actions.local_preference is not None:
                            raise VerificationError(
                                f"ARC baseline cannot model LocalPref (device {name})"
                            )
            for route in config.static_routes:
                if route.next_hop_ip is not None:
                    raise VerificationError(
                        f"ARC baseline cannot model recursive static routes (device {name})"
                    )

    # ------------------------------------------------------------------ graph machinery
    def _ospf_subgraph_nodes(self) -> Set[str]:
        return {name for name, cfg in self.network.devices.items() if cfg.ospf is not None}

    def _edge_capacity_graph(self) -> Dict[str, Dict[str, int]]:
        """Unit-capacity adjacency over the OSPF-speaking subgraph."""
        speakers = self._ospf_subgraph_nodes()
        graph: Dict[str, Dict[str, int]] = {n: {} for n in speakers}
        for link in self.topology.links:
            if link.a in speakers and link.b in speakers:
                graph[link.a][link.b] = graph[link.a].get(link.b, 0) + 1
                graph[link.b][link.a] = graph[link.b].get(link.a, 0) + 1
        return graph

    @staticmethod
    def _min_cut(graph: Dict[str, Dict[str, int]], source: str, sink: str) -> int:
        """Edmonds-Karp max-flow = min-cut between ``source`` and ``sink``."""
        if source == sink:
            return 1 << 30
        residual = {u: dict(neighbors) for u, neighbors in graph.items()}
        flow = 0
        while True:
            # BFS for an augmenting path.
            parents: Dict[str, str] = {source: source}
            queue = [source]
            while queue and sink not in parents:
                current = queue.pop(0)
                for neighbor, capacity in residual.get(current, {}).items():
                    if capacity > 0 and neighbor not in parents:
                        parents[neighbor] = current
                        queue.append(neighbor)
            if sink not in parents:
                return flow
            # Find bottleneck.
            bottleneck = 1 << 30
            node = sink
            while node != source:
                parent = parents[node]
                bottleneck = min(bottleneck, residual[parent][node])
                node = parent
            # Apply.
            node = sink
            while node != source:
                parent = parents[node]
                residual[parent][node] -= bottleneck
                residual.setdefault(node, {})
                residual[node][parent] = residual[node].get(parent, 0) + bottleneck
                node = parent
            flow += bottleneck

    # ------------------------------------------------------------------ queries
    def _destination_devices(self, prefix: Prefix) -> List[str]:
        devices = []
        for name, config in self.network.devices.items():
            if config.ospf is not None and any(
                p.contains_prefix(prefix) for p in config.ospf.networks
            ):
                devices.append(name)
        return devices

    def check_reachability_under_failures(
        self,
        prefix: Prefix,
        sources: Sequence[str],
        max_failures: int,
    ) -> ArcResult:
        """Sources stay connected to some origin of ``prefix`` under any
        ``max_failures`` link failures iff every (source, origin-set) min cut
        exceeds ``max_failures``."""
        started = time.perf_counter()
        destinations = self._destination_devices(prefix)
        if not destinations:
            return ArcResult(
                holds=False,
                elapsed_seconds=time.perf_counter() - started,
                pair_models_built=0,
                violating_pair=None,
            )
        models = 0
        worst_cut: Optional[int] = None
        graph_template = self._edge_capacity_graph()
        # Multi-origin destinations are handled with a super-sink.
        for source in sources:
            # ARC builds one model per source-destination pair; reproduce that
            # by copying the graph for each pair.
            graph = {u: dict(vs) for u, vs in graph_template.items()}
            sink = "__destination__"
            graph[sink] = {}
            for destination in destinations:
                graph[destination][sink] = 1 << 20
            models += 1
            cut = self._min_cut(graph, source, sink)
            if worst_cut is None or cut < worst_cut:
                worst_cut = cut
            if cut <= max_failures:
                return ArcResult(
                    holds=False,
                    elapsed_seconds=time.perf_counter() - started,
                    pair_models_built=models,
                    min_cut_found=cut,
                    violating_pair=(source, destinations[0]),
                )
        return ArcResult(
            holds=True,
            elapsed_seconds=time.perf_counter() - started,
            pair_models_built=models,
            min_cut_found=worst_cut,
        )

    def check_all_to_all_reachability(
        self,
        prefixes: Dict[Prefix, Sequence[str]],
        max_failures: int,
    ) -> ArcResult:
        """All-to-all reachability: every device must reach every destination
        prefix under any ``max_failures`` failures (the Figure 7(g) workload)."""
        started = time.perf_counter()
        total_models = 0
        speakers = sorted(self._ospf_subgraph_nodes())
        for prefix, _origins in prefixes.items():
            result = self.check_reachability_under_failures(prefix, speakers, max_failures)
            total_models += result.pair_models_built
            if not result.holds:
                return ArcResult(
                    holds=False,
                    elapsed_seconds=time.perf_counter() - started,
                    pair_models_built=total_models,
                    min_cut_found=result.min_cut_found,
                    violating_pair=result.violating_pair,
                )
        return ArcResult(
            holds=True,
            elapsed_seconds=time.perf_counter() - started,
            pair_models_built=total_models,
        )
