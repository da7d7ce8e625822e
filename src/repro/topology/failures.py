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
  are refined after each selection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import TopologyError
from repro.modelcheck.trail import document
from repro.topology.graph import Topology


@document(failed_links=(list, tuple))
@dataclass(frozen=True)
class FailureScenario:
    """A set of failed links, stored as a sorted tuple of link ids."""

    failed_links: Tuple[int, ...] = ()

    @staticmethod
    def of(link_ids: Iterable[int]) -> "FailureScenario":
        """Build a canonical scenario from any iterable of link ids."""
        return FailureScenario(tuple(sorted(set(link_ids))))

    @property
    def count(self) -> int:
        """Number of failed links."""
        return len(self.failed_links)

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


class DeviceEquivalence:
    """Device Equivalence Classes (DECs) and Link Equivalence Classes (LECs).

    Following Bonsai's abstraction (and the use Plankton makes of it in §4.3),
    two devices are equivalent when they originate the same set of prefixes
    for the PEC under analysis (captured by the ``colors`` argument) and their
    multisets of (neighbour class, link weight) pairs are identical.  The
    classes are computed by colour refinement (1-dimensional Weisfeiler-Leman)
    to a fixed point.

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
        #: DEC index per dense node index (``device_classes`` by position).
        self._coloring = self._refine([colors.get(name) if colors else None for name in names])
        self.device_classes: Dict[str, int] = dict(zip(names, self._coloring))

    def _refine(self, initial: List[object]) -> List[int]:
        """Colour refinement over the compiled adjacency, to a fixed point.

        Colours are numbered by first appearance in node order, every round.
        A neighbour contributes one integer, ``colour * pairs + weight-pair
        id``; the sorted tuple of those is a canonical form of the multiset
        of (neighbour class, weight out, weight back) triples.
        """
        failed = self.failed_links
        pair_ids: Dict[Tuple[int, int], int] = {}
        live = [
            [
                (neighbor, pair_ids.setdefault((out, back), len(pair_ids)))
                for neighbor, out, back, link_id in row
                if link_id not in failed
            ]
            for row in self._compiled.edges
        ]
        pairs = max(len(pair_ids), 1)
        palette: Dict[object, int] = {}
        coloring = [palette.setdefault(color, len(palette)) for color in initial]
        while True:
            classes = len(palette)
            palette = {}
            scaled = [color * pairs for color in coloring]
            refined = [
                palette.setdefault(
                    (coloring[node], tuple(sorted([scaled[n] + pair for n, pair in row]))),
                    len(palette),
                )
                for node, row in enumerate(live)
            ]
            if len(palette) == classes:
                return refined
            coloring = refined

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
        """One representative (smallest id) link per LEC."""
        return sorted(min(ids) for ids in self.link_classes().values())


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
