"""Failure scenarios and equivalence-based failure reduction.

The environment specification of a verification task bounds the number of
link failures (paper §2).  The verifier must then cover every converged state
reachable under any allowed combination of failures.  Two pieces live here:

* :func:`enumerate_failure_scenarios` — exhaustive enumeration of failure
  sets up to a bound, with the strict total ordering of failures the paper
  imposes (§4.1.4) baked in by construction (each scenario is a sorted tuple
  of link ids, so no two orderings of the same set are ever produced).

* :class:`DeviceEquivalence` and :func:`reduced_failure_scenarios` — the
  Bonsai-inspired Device / Link Equivalence Class reduction of §4.3: only one
  representative link per Link Equivalence Class is failed, and the classes
  are refined after each selection.  The classes are the coarsest equitable
  partition refining a PEC's colours (the fixed point of colour refinement,
  1-WL).  They are computed by individualised splitter refinement: the
  colours split the topology's own equitable partition, cached beside
  :meth:`Topology.compiled`, and only the cells next to a split are refined
  again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import TopologyError
from repro.modelcheck.trail import document
from repro.topology.graph import CompiledTopology, Topology


@document(failed_links=(list, tuple))
@dataclass(frozen=True)
class FailureScenario:
    """A set of failed links, stored as a sorted tuple of link ids."""

    failed_links: Tuple[int, ...] = ()

    @staticmethod
    def of(link_ids: Iterable[int]) -> "FailureScenario":
        """Build a canonical scenario from any iterable of link ids."""
        return FailureScenario(tuple(sorted(set(link_ids))))

    def as_set(self) -> Set[int]:
        """The failed links as a set (for adjacency queries)."""
        return set(self.failed_links)

    def describe(self, topology: Topology) -> str:
        """Human-readable description naming the failed link endpoints."""
        if not self.failed_links:
            return "no failures"
        parts = []
        for link_id in self.failed_links:
            link = topology.link(link_id)
            parts.append(f"{link.a}--{link.b}")
        return "failed: " + ", ".join(parts)

    def __len__(self) -> int:
        return len(self.failed_links)


def enumerate_failure_scenarios(
    topology: Topology,
    max_failures: int,
    protected_links: Optional[Set[int]] = None,
) -> List[FailureScenario]:
    """All failure scenarios with at most ``max_failures`` failed links.

    The empty scenario is always included first.  ``protected_links`` are
    never failed (used e.g. to keep stub links to policy sources alive).
    """
    if max_failures < 0:
        raise TopologyError(f"max_failures must be non-negative, got {max_failures}")
    candidates = [
        link.link_id
        for link in topology.links
        if protected_links is None or link.link_id not in protected_links
    ]
    scenarios: List[FailureScenario] = [FailureScenario()]
    for count in range(1, max_failures + 1):
        for combo in itertools.combinations(candidates, count):
            scenarios.append(FailureScenario(tuple(combo)))
    return scenarios


#: Per node, one ``(neighbour, weight-pair code)`` per incident link.
Rows = Sequence[Tuple[Tuple[int, int], ...]]


def _rows(compiled: CompiledTopology) -> Rows:
    """The unfailed rows of ``compiled``, in the order of its ``edges``.

    A weight-pair code is ``radix ** pair id``, where the pair is (weight
    leaving the node, weight back) and ``radix`` exceeds every degree, so the
    sum of codes over any set of a node's links spells out how many of them
    carry each pair.
    """
    pairs = dict.fromkeys((out, back) for row in compiled.edges for _, out, back, _ in row)
    radix = 1 + max((len(row) for row in compiled.edges), default=0)
    codes = {pair: radix**pair_id for pair_id, pair in enumerate(pairs)}
    return tuple(
        tuple((neighbor, codes[out, back]) for neighbor, out, back, _ in row)
        for row in compiled.edges
    )


def _split(cells: List[List[int]], cell_of: List[int], cell: int, parts, queue: List[int]) -> None:
    """Replace ``cell`` by ``parts``: the largest part keeps the id (and its
    place in ``queue``, if any), every other part gets a new id and is queued."""
    largest = max(parts, key=len)
    for part in parts:
        if part is largest:
            cells[cell] = part
            continue
        new = len(cells)
        cells.append(part)
        for node in part:
            cell_of[node] = new
        queue.append(new)


def _equitable(rows: Rows, cells: List[List[int]], cell_of: List[int], queue: List[int]) -> None:
    """Split ``cells`` until the partition is equitable (splitter-queue refinement).

    The partition must already be equitable towards every cell not in
    ``queue``.  Each queued cell in turn splits every cell next to it by the
    sum of the codes of the links joining each node to the splitter (nauty's
    ``refine``; Cardon and Crochemore's counting refinement).  The codes are
    read from the splitter's side, where every pair is mirrored, which tells
    the same multisets apart; a node with no such link sums to 0.  A split
    cell queues all its parts but the largest, whose counts follow from the
    whole cell's and the other parts'.
    """
    while queue:
        splitter = queue.pop()
        weight: Dict[int, int] = {}
        for member in cells[splitter]:
            for node, code in rows[member]:
                weight[node] = weight.get(node, 0) + code
        hit: Dict[int, List[int]] = {}
        for node in weight:
            hit.setdefault(cell_of[node], []).append(node)
        for cell, touched in hit.items():
            groups: Dict[int, List[int]] = {}
            for node in touched:
                groups.setdefault(weight[node], []).append(node)
            members = cells[cell]
            if len(touched) < len(members):
                groups[0] = [node for node in members if node not in weight]
            if len(groups) > 1:
                _split(cells, cell_of, cell, list(groups.values()), queue)


def _base_partition(rows: Rows) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]:
    """The topology's own coarsest equitable partition (no colours, no
    failed links), as (cell per node, members per cell)."""
    cells = [list(range(len(rows)))]
    cell_of = [0] * len(rows)
    _equitable(rows, cells, cell_of, [0])
    return tuple(cell_of), tuple(tuple(members) for members in cells)


class DeviceEquivalence:
    """Device Equivalence Classes (DECs) and Link Equivalence Classes (LECs).

    Following Bonsai's abstraction (and the use Plankton makes of it in §4.3),
    two devices are equivalent when they originate the same set of prefixes
    for the PEC under analysis (captured by the ``colors`` argument; a device
    missing from it, or coloured ``None``, shares the colour ``None``) and
    their multisets of (neighbour class, link weight) pairs are identical.
    The classes are the coarsest equitable partition that refines the
    colours: the classes colour refinement (1-dimensional Weisfeiler-Leman)
    reaches at its fixed point, numbered as it numbers them, by first
    appearance in node order.

    They are computed by individualised splitter refinement over the
    topology's cached rows.  Without failed links the refinement starts from
    the topology's own (uncoloured) equitable partition, cached beside
    :meth:`Topology.compiled`: the colours split its cells, and only the
    cells next to a split are ever touched again.  With failed links it
    starts from the colours alone, over rows re-filtered at the failed
    links' endpoints.

    A Link Equivalence Class is the set of links joining a given ordered pair
    of DECs with a given weight pair.
    """

    def __init__(
        self,
        topology: Topology,
        colors: Optional[Dict[str, object]] = None,
        failed_links: Optional[Set[int]] = None,
    ) -> None:
        self.topology = topology
        self.failed_links = set(failed_links or ())
        self._compiled = topology.compiled()
        names = self._compiled.names
        rows = topology.derived("failure_rows", _rows)
        queue: List[int] = []
        if self.failed_links:
            rows = self._live_rows(rows)
            cells = [list(range(len(names)))]
            cell_of = [0] * len(names)
        else:
            base_cell_of, base_cells = topology.derived(
                "failure_partition", lambda _compiled: _base_partition(rows)
            )
            cells = [list(members) for members in base_cells]
            cell_of = list(base_cell_of)
        self._paint(cells, cell_of, colors or {}, queue)
        if self.failed_links:
            queue = list(range(len(cells)))  # nothing is equitable yet
        _equitable(rows, cells, cell_of, queue)
        numbers: Dict[int, int] = {}
        #: DEC index per dense node index (``device_classes`` by position).
        self._coloring = [numbers.setdefault(cell, len(numbers)) for cell in cell_of]
        self.device_classes: Dict[str, int] = dict(zip(names, self._coloring))

    def _live_rows(self, rows: Rows) -> Rows:
        """``rows`` without the failed links, re-filtered at their endpoints only."""
        failed = self.failed_links
        edges = self._compiled.edges
        index = self._compiled.index
        live = list(rows)
        for link_id in failed:
            link = self.topology.link(link_id)
            for node in (index[link.a], index[link.b]):
                live[node] = tuple(
                    entry for entry, edge in zip(rows[node], edges[node]) if edge[3] not in failed
                )
        return live

    def _paint(
        self, cells: List[List[int]], cell_of: List[int], colors: Dict[str, object], queue: List[int]
    ) -> None:
        """Split the cells by ``colors`` (a missing or ``None`` colour is one
        colour), queueing the new parts."""
        index = self._compiled.index
        painted: Dict[int, Dict[object, List[int]]] = {}
        for name, color in colors.items():
            node = index.get(name)
            if color is not None and node is not None:
                painted.setdefault(cell_of[node], {}).setdefault(color, []).append(node)
        for cell, groups in painted.items():
            parts = list(groups.values())
            members = cells[cell]
            if sum(len(part) for part in parts) < len(members):
                coloured = {node for part in parts for node in part}
                parts.append([node for node in members if node not in coloured])
            if len(parts) > 1:
                _split(cells, cell_of, cell, parts, queue)

    def class_members(self) -> Dict[int, List[str]]:
        """Mapping DEC index -> sorted member device names."""
        members: Dict[int, List[str]] = {}
        for name, cls in self.device_classes.items():
            members.setdefault(cls, []).append(name)
        for cls in members:
            members[cls].sort()
        return members

    def link_classes(self) -> Dict[Tuple, List[int]]:
        """Mapping LEC key -> link ids in that class (live links only)."""
        classes: Dict[Tuple, List[int]] = {}
        coloring = self._coloring
        failed = self.failed_links
        for link_id, a, b, weight_ab, weight_ba in self._compiled.links:
            if link_id in failed:
                continue
            ca = coloring[a]
            cb = coloring[b]
            if ca <= cb:
                key = (ca, cb, weight_ab, weight_ba)
            else:
                key = (cb, ca, weight_ba, weight_ab)
            classes.setdefault(key, []).append(link_id)
        return classes

    def representative_links(self) -> List[int]:
        """One representative (smallest id) link per LEC, in one pass over
        the links (id order) keyed as :meth:`link_classes` keys them."""
        first: Dict[Tuple, int] = {}
        coloring = self._coloring
        failed = self.failed_links
        for link_id, a, b, weight_ab, weight_ba in self._compiled.links:
            ca = coloring[a]
            cb = coloring[b]
            key = (ca, cb, weight_ab, weight_ba) if ca <= cb else (cb, ca, weight_ba, weight_ab)
            if key not in first and link_id not in failed:
                first[key] = link_id
        return sorted(first.values())


def reduced_failure_scenarios(
    topology: Topology,
    max_failures: int,
    colors: Optional[Dict[str, object]] = None,
    interesting_nodes: Optional[Iterable[str]] = None,
) -> List[FailureScenario]:
    """Failure scenarios reduced via Link Equivalence Classes (paper §4.3).

    For each failure to be chosen, only one representative link per LEC is
    considered; after a link is selected the DECs/LECs are recomputed
    ("refined") with that link marked failed before selecting the next one.
    Interesting nodes (from the policy) are forced into singleton DECs so the
    reduction never collapses a device the policy cares about.
    """
    if max_failures < 0:
        raise TopologyError(f"max_failures must be non-negative, got {max_failures}")
    base_colors: Dict[str, object] = dict(colors or {})
    for index, name in enumerate(interesting_nodes or ()):
        # Unique colour per interesting node keeps it in its own class.
        base_colors[name] = ("interesting", index, name)

    results: List[FailureScenario] = [FailureScenario()]
    seen: Set[Tuple[int, ...]] = {()}

    def extend(prefix: Tuple[int, ...], remaining: int) -> None:
        if remaining == 0:
            return
        equivalence = DeviceEquivalence(topology, base_colors, failed_links=set(prefix))
        for link_id in equivalence.representative_links():
            if link_id in prefix:
                continue
            scenario = tuple(sorted(prefix + (link_id,)))
            if scenario in seen:
                continue
            seen.add(scenario)
            results.append(FailureScenario(scenario))
            extend(scenario, remaining - 1)

    extend((), max_failures)
    return results
