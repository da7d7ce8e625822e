"""The unreduced scenario enumeration ``enumerate_event_scenarios`` is pinned to.

:func:`brute_event_scenarios` emits every ordered sequence of distinct
lifecycle events up to ``max_events`` long over the full event universe — no
DEC/LEC symmetry, no commuting-order canonicalisation.  It is what "every
scenario" means for the verdict-preservation tests in
``tests/test_scenarios.py``.  Exponential: test-sized topologies only.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.exceptions import TopologyError
from repro.scenarios.enumerator import (
    DEFAULT_EVENT_KINDS,
    Descriptor,
    Peers,
    event_universe,
    scenario_from_descriptor,
)
from repro.scenarios.events import Scenario
from repro.topology.graph import Topology


def brute_event_scenarios(
    topology: Topology,
    peers: Peers,
    max_events: int,
    kinds: Sequence[str] = DEFAULT_EVENT_KINDS,
) -> List[Scenario]:
    """Every ordered sequence of distinct events up to ``max_events`` long."""
    if max_events < 0:
        raise TopologyError(f"max_events must be non-negative, got {max_events}")
    universe = event_universe(topology, peers, kinds)
    results: List[Tuple[Descriptor, ...]] = [()]

    def extend(prefix: Tuple[Descriptor, ...], remaining: int) -> None:
        if remaining == 0:
            return
        for descriptor in universe:
            if descriptor in prefix:
                continue
            sequence = prefix + (descriptor,)
            results.append(sequence)
            extend(sequence, remaining - 1)

    extend((), max_events)
    return [scenario_from_descriptor(seq) for seq in results]
