"""A Minesweeper-style constraint-based configuration verifier.

Minesweeper [Beckett et al., SIGCOMM'17] encodes the network's converged
states — over all failure scenarios up to a bound — as one big SMT formula
and asks the solver for a satisfying assignment that violates the policy.
This reproduction builds the analogous encoding over the from-scratch SAT
solver in :mod:`tests.oracles.sat`:

* one Boolean per potentially failed link, with an at-most-k constraint;
* the IGP's converged state as an order-encoded (unary) distance per node,
  constrained to be the min-plus fixed point of the link weights under the
  chosen failures;
* forwarding edges derived from the distances (ECMP) and overridden by
  static routes;
* the policy's *negation* (a forwarding loop exists / a source cannot reach
  an origin) so that SAT means "violation found" and UNSAT means the policy
  holds.

For iBGP-over-IGP reachability the verifier mirrors Minesweeper's behaviour
of instantiating an extra copy of the network per loopback address (the n+1
copies discussed in paper §3.2), which is what makes the problem blow up
quadratically.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config.objects import NetworkConfig
from repro.netaddr import Prefix
from repro.topology import Topology
from tests.oracles.sat import CnfFormula, SatResult, SatSolver


@dataclass
class MinesweeperResult:
    """Outcome of one constraint-based verification query."""

    holds: bool
    elapsed_seconds: float
    variables: int
    clauses: int
    decisions: int
    counterexample_failed_links: Tuple[int, ...] = ()
    network_copies: int = 1


class _IgpEncoding:
    """Order-encoded IGP distances for one destination (one network copy)."""

    def __init__(
        self,
        formula: CnfFormula,
        topology: Topology,
        origins: Sequence[str],
        fail_vars: Dict[int, int],
        tag: str,
        max_distance: int,
        scale: int,
    ) -> None:
        self.formula = formula
        self.topology = topology
        self.origins = set(origins)
        self.fail_vars = fail_vars
        self.tag = tag
        self.max_distance = max_distance
        self.scale = scale
        # ge[node][k] is true when dist(node) >= k, for k in 1..max_distance.
        self.ge: Dict[str, List[int]] = {}
        self.fwd: Dict[Tuple[str, str], int] = {}
        self._encode()

    # ------------------------------------------------------------------ helpers
    def _ge(self, node: str, k: int) -> Optional[int]:
        """The literal for dist(node) >= k; None means the bound is trivial."""
        if k <= 0:
            return None  # always true
        if k > self.max_distance:
            # Distances are capped at max_distance ("unreachable"); >= k for
            # k beyond the cap is represented by the cap level itself.
            k = self.max_distance
        return self.ge[node][k - 1]

    def _weight(self, node: str, neighbor: str) -> int:
        link = self.topology.find_link(node, neighbor)
        return max(1, link.weight_from(node) // self.scale)

    def _encode(self) -> None:
        nodes = self.topology.nodes
        for node in nodes:
            self.ge[node] = [
                self.formula.new_variable(f"{self.tag}:ge:{node}:{k}")
                for k in range(1, self.max_distance + 1)
            ]
            # Monotonicity: dist >= k+1 implies dist >= k.
            for k in range(1, self.max_distance):
                self.formula.add_implication(self.ge[node][k], self.ge[node][k - 1])
        # Origins have distance 0.
        for origin in self.origins:
            if origin in self.ge:
                self.formula.add_clause((-self.ge[origin][0],))
        # Non-origins: dist(u) >= k  <->  every live neighbour v has
        # dist(v) >= k - w(u,v).  Both directions are encoded.
        for node in nodes:
            if node in self.origins:
                continue
            neighbors = [
                (link.other(node), link.link_id)
                for link in self.topology.edges(node)
            ]
            if not neighbors:
                # Isolated node: unreachable.
                self.formula.add_clause((self.ge[node][self.max_distance - 1],))
                continue
            for k in range(1, self.max_distance + 1):
                ge_uk = self._ge(node, k)
                assert ge_uk is not None
                # Direction 1: dist(u) >= k -> (failed(uv) or dist(v) >= k - w).
                for neighbor, link_id in neighbors:
                    weight = self._weight(node, neighbor)
                    ge_v = self._ge(neighbor, k - weight)
                    clause = [-ge_uk, self.fail_vars[link_id]]
                    if ge_v is not None:
                        clause.append(ge_v)
                        self.formula.add_clause(clause)
                    else:
                        # k - w <= 0: the neighbour bound is trivially true, so
                        # the implication holds without further constraint.
                        pass
                # Direction 2: dist(u) < k -> some live neighbour has
                # dist(v) <= k - w - 1 (i.e. not(dist(v) >= k - w)).
                support_literals: List[int] = []
                for neighbor, link_id in neighbors:
                    weight = self._weight(node, neighbor)
                    ge_v = self._ge(neighbor, k - weight)
                    aux = self.formula.new_variable(
                        f"{self.tag}:sup:{node}:{neighbor}:{k}"
                    )
                    # aux -> not failed and dist(v) < k - w
                    self.formula.add_clause((-aux, -self.fail_vars[link_id]))
                    if ge_v is not None:
                        self.formula.add_clause((-aux, -ge_v))
                    else:
                        # k - w <= 0 means dist(v) < k - w is impossible unless
                        # k - w >= 1; with k - w <= 0 the support cannot exist.
                        if k - weight <= 0:
                            self.formula.add_clause((-aux,))
                    support_literals.append(aux)
                self.formula.add_clause([ge_uk] + support_literals)

        # Forwarding: fwd(u, v) <-> not failed(uv) and dist(u) = dist(v) + w.
        for node in nodes:
            if node in self.origins:
                continue
            node_fwd_vars: List[int] = []
            for link in self.topology.edges(node):
                neighbor = link.other(node)
                weight = self._weight(node, neighbor)
                fwd_var = self.formula.new_variable(f"{self.tag}:fwd:{node}:{neighbor}")
                self.fwd[(node, neighbor)] = fwd_var
                node_fwd_vars.append(fwd_var)
                # fwd -> not failed
                self.formula.add_clause((-fwd_var, -self.fail_vars[link.link_id]))
                # fwd -> dist(u) reachable (dist(u) < max)
                self.formula.add_clause((-fwd_var, -self.ge[node][self.max_distance - 1]))
                # fwd -> dist(u) = dist(v) + w, split into the two inequalities.
                for k in range(1, self.max_distance + 1):
                    ge_uk = self._ge(node, k)
                    ge_v_low = self._ge(neighbor, k - weight)
                    # Upper bound: dist(u) >= k -> dist(v) >= k - w.
                    if ge_uk is not None and ge_v_low is not None:
                        self.formula.add_clause((-fwd_var, -ge_uk, ge_v_low))
                    # Lower bound: dist(v) >= k - w -> dist(u) >= k.
                    if ge_uk is not None:
                        if ge_v_low is not None:
                            self.formula.add_clause((-fwd_var, ge_uk, -ge_v_low))
                        elif k - weight <= 0:
                            # dist(v) >= k - w holds trivially, so forwarding
                            # over this link costs at least w: dist(u) >= k.
                            self.formula.add_clause((-fwd_var, ge_uk))
            # A reachable node installs at least one forwarding entry: the min
            # in the fixed point is achieved by some live neighbour, so the
            # ECMP set is non-empty whenever dist(u) < max.
            if node_fwd_vars:
                self.formula.add_clause(
                    [self.ge[node][self.max_distance - 1]] + node_fwd_vars
                )


class MinesweeperVerifier:
    """Constraint-based verification of OSPF/static networks under failures."""

    def __init__(
        self,
        network: NetworkConfig,
        max_failures: int = 0,
        max_distance: Optional[int] = None,
    ) -> None:
        self.network = network
        self.topology = network.topology
        self.max_failures = max_failures
        self.max_distance = max_distance

    # ------------------------------------------------------------------ encoding
    def _distance_bound(self) -> Tuple[int, int]:
        """(max unary distance levels, weight scale) for the encoding."""
        weights = [
            link.weight_ab for link in self.topology.links
        ] + [link.weight_ba for link in self.topology.links]
        scale = 0
        for weight in weights:
            scale = math.gcd(scale, weight)
        scale = max(1, scale)
        if self.max_distance is not None:
            return self.max_distance, scale
        # A safe bound: (number of nodes) * max scaled weight, capped to keep
        # the unary encoding manageable; workloads in the benchmarks stay well
        # under the cap.
        max_weight = max(1, max(weights) // scale) if weights else 1
        bound = min(len(self.topology) * max_weight, 64)
        return max(4, bound), scale

    def _base_formula(self) -> Tuple[CnfFormula, Dict[int, int]]:
        formula = CnfFormula()
        fail_vars: Dict[int, int] = {}
        for link in self.topology.links:
            fail_vars[link.link_id] = formula.new_variable(f"fail:{link.link_id}")
        if self.max_failures <= 0:
            for variable in fail_vars.values():
                formula.add_clause((-variable,))
        else:
            formula.add_at_most_k(list(fail_vars.values()), self.max_failures)
        return formula, fail_vars

    def _ospf_origins(self, prefix: Prefix) -> List[str]:
        origins = []
        for name, config in self.network.devices.items():
            if config.ospf is None:
                continue
            if any(p.contains_prefix(prefix) for p in config.ospf.networks):
                origins.append(name)
            elif config.ospf.redistribute_static and any(
                route.prefix.contains_prefix(prefix) for route in config.static_routes
            ):
                origins.append(name)
        return origins

    def _static_next_hops(self, prefix: Prefix) -> Dict[str, List[str]]:
        """Static next hops per device for the prefix (non-recursive only)."""
        result: Dict[str, List[str]] = {}
        for name, config in self.network.devices.items():
            hops = [
                route.next_hop_node
                for route in config.static_routes
                if route.prefix.contains_prefix(prefix) and route.next_hop_node is not None
            ]
            if hops:
                result[name] = hops
        return result

    def _forwarding_successors(
        self,
        formula: CnfFormula,
        encoding: _IgpEncoding,
        prefix: Prefix,
        fail_vars: Dict[int, int],
    ) -> Dict[str, List[Tuple[str, Optional[int]]]]:
        """Per-node forwarding successors: (neighbour, guard literal).

        A static route replaces the OSPF decision on its device (lower
        administrative distance); its guard is the negation of the link
        failure variable.  OSPF successors are guarded by the fwd variables
        of the encoding.
        """
        statics = self._static_next_hops(prefix)
        successors: Dict[str, List[Tuple[str, Optional[int]]]] = {}
        for node in self.topology.nodes:
            if node in statics:
                entries: List[Tuple[str, Optional[int]]] = []
                for neighbor in statics[node]:
                    links = self.topology.links_between(node, neighbor)
                    if not links:
                        continue
                    entries.append((neighbor, -fail_vars[links[0].link_id]))
                successors[node] = entries
            else:
                entries = []
                for (u, v), fwd_var in encoding.fwd.items():
                    if u == node:
                        entries.append((v, fwd_var))
                successors[node] = entries
        return successors

    # ------------------------------------------------------------------ queries
    def check_loop_freedom(self, prefix: Prefix) -> MinesweeperResult:
        """SAT iff some failure scenario yields a forwarding loop for ``prefix``."""
        started = time.perf_counter()
        formula, fail_vars = self._base_formula()
        bound, scale = self._distance_bound()
        origins = self._ospf_origins(prefix)
        encoding = _IgpEncoding(
            formula, self.topology, origins, fail_vars, f"igp:{prefix}", bound, scale
        )
        successors = self._forwarding_successors(formula, encoding, prefix, fail_vars)

        # trapped(u): u forwards and all of its used successors are trapped.
        trapped: Dict[str, int] = {
            node: formula.new_variable(f"trapped:{node}") for node in self.topology.nodes
        }
        origin_set = set(origins)
        for node, entries in successors.items():
            if node in origin_set:
                formula.add_clause((-trapped[node],))
                continue
            if not entries:
                formula.add_clause((-trapped[node],))
                continue
            # trapped(u) -> at least one active successor, and every active
            # successor is trapped.
            active_aux: List[int] = []
            for neighbor, guard in entries:
                aux = formula.new_variable(f"trapvia:{node}:{neighbor}")
                # aux -> guard and trapped(neighbor)
                if guard is not None:
                    formula.add_clause((-aux, guard))
                formula.add_clause((-aux, trapped[neighbor]))
                active_aux.append(aux)
                # trapped(u) and guard -> trapped(neighbor): every path out of
                # a trapped node stays trapped.
                if guard is not None:
                    formula.add_clause((-trapped[node], -guard, trapped[neighbor]))
                else:
                    formula.add_clause((-trapped[node], trapped[neighbor]))
            formula.add_clause([-trapped[node]] + active_aux)
        # A loop exists when some node is trapped.
        formula.add_clause([trapped[node] for node in self.topology.nodes])

        return self._solve(formula, fail_vars, started, network_copies=1)

    def check_reachability(self, prefix: Prefix, sources: Sequence[str]) -> MinesweeperResult:
        """SAT iff some failure scenario leaves a source unable to reach an origin."""
        started = time.perf_counter()
        formula, fail_vars = self.encode_reachability(prefix, sources)
        return self._solve(formula, fail_vars, started, network_copies=1)

    def encode_reachability(
        self, prefix: Prefix, sources: Sequence[str]
    ) -> Tuple[CnfFormula, Dict[int, int]]:
        """The formula :meth:`check_reachability` solves, and its failure variables."""
        formula, fail_vars = self._base_formula()
        bound, scale = self._distance_bound()
        origins = self._ospf_origins(prefix)
        encoding = _IgpEncoding(
            formula, self.topology, origins, fail_vars, f"igp:{prefix}", bound, scale
        )
        successors = self._forwarding_successors(formula, encoding, prefix, fail_vars)
        self._add_reachability_violation(formula, successors, origins, sources)
        return formula, fail_vars

    def check_ibgp_reachability(
        self, prefix: Prefix, sources: Sequence[str]
    ) -> MinesweeperResult:
        """Reachability for an iBGP-announced prefix, Minesweeper style."""
        started = time.perf_counter()
        formula, fail_vars, copies = self.encode_ibgp_reachability(prefix, sources)
        return self._solve(formula, fail_vars, started, network_copies=copies)

    def encode_ibgp_reachability(
        self, prefix: Prefix, sources: Sequence[str]
    ) -> Tuple[CnfFormula, Dict[int, int], int]:
        """The formula :meth:`check_ibgp_reachability` solves, its failure
        variables and its number of network copies.

        Mirrors Minesweeper's handling of recursive routing: one extra copy of
        the IGP encoding per BGP speaker loopback (the n+1 network copies of
        paper §3.2), plus the reachability query for the destination routed
        via the egress speaker.
        """
        formula, fail_vars = self._base_formula()
        bound, scale = self._distance_bound()

        speakers = [
            name
            for name, config in self.network.devices.items()
            if config.bgp is not None
        ]
        copies = 0
        for speaker in speakers:
            loopback = self.topology.node(speaker).loopback
            if loopback is None:
                continue
            _IgpEncoding(
                formula,
                self.topology,
                [speaker],
                fail_vars,
                f"loopback:{speaker}",
                bound,
                scale,
            )
            copies += 1

        egresses = [
            name
            for name, config in self.network.devices.items()
            if config.bgp is not None
            and any(p.contains_prefix(prefix) for p in config.bgp.networks)
        ]
        encoding = _IgpEncoding(
            formula, self.topology, egresses, fail_vars, f"dest:{prefix}", bound, scale
        )
        successors = self._forwarding_successors(formula, encoding, prefix, fail_vars)
        self._add_reachability_violation(formula, successors, egresses, sources)
        return formula, fail_vars, copies + 1

    # ------------------------------------------------------------------ internals
    def _add_reachability_violation(
        self,
        formula: CnfFormula,
        successors: Dict[str, List[Tuple[str, Optional[int]]]],
        origins: Sequence[str],
        sources: Sequence[str],
    ) -> None:
        reach: Dict[str, int] = {
            node: formula.new_variable(f"reach:{node}") for node in self.topology.nodes
        }
        for origin in origins:
            formula.add_clause((reach[origin],))
        for node, entries in successors.items():
            for neighbor, guard in entries:
                # forwarding to a reaching neighbour makes the node reaching.
                clause = [reach[node], -reach[neighbor]]
                if guard is not None:
                    clause.append(-guard)
                formula.add_clause(clause)
        for source in sources:
            formula.add_clause((-reach[source],))

    def _solve(
        self,
        formula: CnfFormula,
        fail_vars: Dict[int, int],
        started: float,
        network_copies: int,
    ) -> MinesweeperResult:
        solver = SatSolver(formula)
        result, model = solver.solve()
        elapsed = time.perf_counter() - started
        failed: Tuple[int, ...] = ()
        if result == SatResult.SAT and model is not None:
            failed = tuple(
                sorted(link_id for link_id, var in fail_vars.items() if model.get(var, False))
            )
        return MinesweeperResult(
            holds=result != SatResult.SAT,
            elapsed_seconds=elapsed,
            variables=formula.variable_count,
            clauses=formula.clause_count(),
            decisions=solver.statistics.decisions,
            counterexample_failed_links=failed,
            network_copies=network_copies,
        )
