"""The unreduced transient exploration ``TransientAnalyzer`` is pinned to.

:class:`NaiveTransientAnalyzer` is a second, independent breadth-first
search over SPVP interleavings: it explores over the mutable
:class:`~tests.oracles.spvp_reference.ReferenceSpvpSimulator`, forks one
simulator per successor (:meth:`ReferenceSpvpSimulator.clone` — best,
rib-ins, buffers *and* event history), keys the visited set on a full
(best, rib-in, buffers) signature tuple, and checks each state on the
name-keyed relation of ``tests/oracles/transient_relation.py``.  It never
reduces; budget accounting matches the product's, so ``TransientAnalyzer(por="full")`` runs
must produce bit-identical ``stats_signature()``s.  It is exhaustive and
slow on purpose — test-sized budgets only.

:func:`successor_sleep` and :func:`merged_sleep_for_requeue` are the
sleep-set rules of :mod:`repro.modelcheck.por.sleep` in their set form:
frozensets of ``(sender, receiver)`` channels filtered by the pairwise
:func:`independent` predicate.  The package computes them as masks over the
instance's channel index; ``tests/property/test_sleep_masks.py`` pins the
decoded masks to these.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, FrozenSet, Optional, Sequence, Set, Tuple

from repro.modelcheck.explorer import TRUNCATED
from repro.protocols.base import PathVectorInstance
from repro.protocols.spvp import Channel
from repro.transient.explorer import TransientAnalysisResult, TransientViolation
from repro.transient.properties import TransientProperty

from tests.oracles.spvp_reference import ReferenceSpvpSimulator, apply_reference
from tests.oracles.transient_relation import ReferenceForwarding


class NaiveTransientAnalyzer:
    """Breadth-first exploration forking a reference simulator per successor."""

    def __init__(
        self,
        instance: PathVectorInstance,
        max_states: int = 20_000,
        max_depth: int = 64,
        stop_at_first_violation: bool = True,
        collect_converged: bool = False,
    ) -> None:
        self.instance = instance
        self.max_states = max_states
        self.max_depth = max_depth
        self.stop_at_first_violation = stop_at_first_violation
        self.collect_converged = collect_converged

    def analyze(
        self,
        properties: Sequence[TransientProperty],
        initial_events: Sequence[object] = (),
    ) -> TransientAnalysisResult:
        if not properties:
            raise ValueError("at least one transient property is required")
        started = time.perf_counter()
        result = TransientAnalysisResult()

        root = ReferenceSpvpSimulator(self.instance, seed=0)
        for event in initial_events:
            apply_reference(root, event)
        root_witness = tuple(event.describe() for event in root.history)
        visited: Set[Tuple] = {self._signature(root)}
        frontier: Deque[Tuple[ReferenceSpvpSimulator, int]] = deque([(root, 0)])

        while frontier:
            simulator, depth = frontier.popleft()
            result.states_explored += 1
            result.max_depth_reached = max(result.max_depth_reached, depth)
            converged = simulator.is_converged()
            if converged:
                result.converged_states += 1
                if self.collect_converged:
                    result.converged_rpvp_states.append(simulator.converged_state())

            stop = self._check_simulator(simulator, converged, depth, properties, result)
            if stop:
                break

            if converged:
                continue
            if depth >= self.max_depth:
                result.completeness = TRUNCATED
                continue

            for channel in simulator.pending_messages():
                successor = simulator.clone()
                successor.step(channel)
                signature = self._signature(successor)
                if signature in visited:
                    continue
                if len(visited) >= self.max_states:
                    result.truncated = True
                    result.completeness = TRUNCATED
                    break
                visited.add(signature)
                frontier.append((successor, depth + 1))

        if result.violations:
            result.witness_prefix = root_witness
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def _check_simulator(
        self,
        simulator: ReferenceSpvpSimulator,
        converged: bool,
        depth: int,
        properties: Sequence[TransientProperty],
        result: TransientAnalysisResult,
    ) -> bool:
        forwarding = ReferenceForwarding.from_best_paths(simulator.best)
        for prop in properties:
            message = prop.check(forwarding, converged)
            if message is None:
                continue
            result.violations.append(
                TransientViolation(
                    property_name=prop.name,
                    message=message,
                    depth=depth,
                    converged=converged,
                    witness=tuple(event.describe() for event in simulator.history),
                )
            )
            if self.stop_at_first_violation:
                return True
        return False

    @staticmethod
    def _signature(simulator: ReferenceSpvpSimulator) -> Tuple:
        """A hashable signature of the SPVP state (best, rib-in, buffers)."""
        best = tuple(sorted(
            (node, route.path if route is not None else None)
            for node, route in simulator.best.items()
        ))
        rib_in = tuple(sorted(
            (key, route.path if route is not None else None)
            for key, route in simulator.rib_in.items()
        ))
        buffers = tuple(sorted(
            (
                key,
                tuple(route.path if route is not None else None for route in queue),
            )
            for key, queue in simulator.buffers.items()
        ))
        return (best, rib_in, buffers)


def independent(first: Channel, second: Channel) -> bool:
    """Whether two deliveries commute: distinct receivers."""
    return first[1] != second[1]


def successor_sleep(
    sleep: FrozenSet[Channel],
    executed_before: Sequence[Channel],
    transition: Channel,
) -> FrozenSet[Channel]:
    """The sleep set of the successor reached via ``transition``: the
    inherited sleepers and earlier siblings independent of it."""
    keep = [channel for channel in sleep if independent(channel, transition)]
    keep.extend(
        channel for channel in executed_before if independent(channel, transition)
    )
    return frozenset(keep)


def merged_sleep_for_requeue(
    stored: FrozenSet[Channel], reached_with: FrozenSet[Channel]
) -> Optional[FrozenSet[Channel]]:
    """The sleep set to re-expand a revisited state with, or None to skip."""
    if reached_with >= stored:
        return None
    return stored & reached_with
