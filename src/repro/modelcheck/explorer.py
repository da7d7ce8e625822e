"""Explicit-state depth-first search engine.

This is the reproduction's SPIN: a depth-first search over the states of a
transition system, with a visited set (exact or bitstate-hashed), optional
state canonicalization/interning, bounded budgets, and trail recording for
violating terminal states.

The engine knows nothing about networks.  The verifier core supplies:

* the initial state,
* a ``successors`` function (which is where all of Plankton's partial-order
  reduction and pruning optimizations live — they simply shrink the returned
  successor list),
* a ``check_terminal`` callback invoked at every state with no successors
  (i.e. every converged state), which returns a violation message when the
  policy fails there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Generic, Hashable, List, Optional, Sequence, Tuple, TypeVar

from repro.exceptions import SearchBudgetExceeded
from repro.modelcheck.hashing import BitstateFilter, VisitedSet, ZobristFingerprinter
from repro.modelcheck.trail import Trail, TrailStep, document

State = TypeVar("State")
Label = TypeVar("Label")

#: successors(state) -> list of (label, next_state)
SuccessorFunction = Callable[[State], List[Tuple[object, State]]]
#: check_terminal(state, path_labels) -> violation message or None
TerminalCheck = Callable[[State, List[object]], Optional[str]]


@dataclass
class ExplorerOptions:
    """Tuning knobs for one search."""

    max_states: int = 5_000_000
    max_depth: int = 100_000
    max_seconds: Optional[float] = None
    stop_at_first_violation: bool = True
    use_bitstate: bool = False
    bitstate_bits: int = 1 << 22


def _reduction_class() -> type:
    # Late-bound: the ledger lives with the reductions, whose package imports
    # the protocol models this generic explorer knows nothing about.
    from repro.modelcheck.por.stats import ReductionStatistics

    return ReductionStatistics


@document(reduction=_reduction_class)
@dataclass
class ExplorationStatistics:
    """Counters reported after a search (rendered by the benchmark harness)."""

    states_expanded: int = 0
    unique_states: int = 0
    transitions: int = 0
    terminal_states: int = 0
    unique_terminal_states: int = 0
    violations: int = 0
    max_depth_reached: int = 0
    elapsed_seconds: float = 0.0
    visited_bytes: int = 0
    interner_entries: int = 0
    interner_bytes: int = 0
    #: Flat-array bytes of the live states (the DFS stack; the visited set
    #: stores fingerprints only, so stacked states are the resident copies).
    state_bytes: int = 0
    truncated: bool = False
    #: The partial-order-reduction ledger of the search, when the successor
    #: pipeline recorded one (a :class:`repro.modelcheck.por.ReductionStatistics`).
    reduction: Optional[object] = None

    @property
    def approximate_memory_bytes(self) -> int:
        """Visited-structure plus intern-table plus live flat-array footprint."""
        return self.visited_bytes + self.interner_bytes + self.state_bytes


@dataclass
class SearchOutcome(Generic[State]):
    """Result of :meth:`Explorer.run`."""

    statistics: ExplorationStatistics
    violations: List[Trail] = field(default_factory=list)
    converged_states: List[State] = field(default_factory=list)
    #: For every entry of ``converged_states``, the labels of the path that
    #: reached it (used by the verifier to build violation trails).
    converged_paths: List[List[object]] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        """True when no violation was found."""
        return not self.violations


class Explorer(Generic[State]):
    """Depth-first explicit-state search with visited-state reduction."""

    def __init__(
        self,
        successors: SuccessorFunction,
        check_terminal: Optional[TerminalCheck] = None,
        canonicalize: Optional[Callable[[State], Hashable]] = None,
        options: Optional[ExplorerOptions] = None,
        trail_factory: Optional[Callable[[], Trail]] = None,
        reduction: Optional[object] = None,
    ) -> None:
        self.successors = successors
        self.check_terminal = check_terminal
        self.canonicalize = canonicalize or (lambda state: state)
        self.options = options or ExplorerOptions()
        self.trail_factory = trail_factory or (lambda: Trail(policy="", pec_description=""))
        #: The fingerprinter ``canonicalize`` folds states through, set by
        #: whoever supplies one; its table statistics are reported on the
        #: search (zeros when the search hashes states some other way).
        self.interner: Optional[ZobristFingerprinter] = None
        #: Shared reduction ledger: the engine itself only ever sees the
        #: already-reduced successor lists, so the successor function owns
        #: the enabled-vs-expanded accounting; the explorer's job is to
        #: surface the ledger on the statistics it reports.
        self.reduction = reduction

    # ------------------------------------------------------------------ search
    def run(self, initial_state: State, collect_converged: bool = False) -> SearchOutcome[State]:
        """Explore the state space depth-first from ``initial_state``.

        Args:
            initial_state: Root of the search.
            collect_converged: Also return every (deduplicated) converged
                state reached — used when a downstream PEC needs all converged
                outcomes of this one (paper §3.2), and by tests.
        """
        options = self.options
        stats = ExplorationStatistics(reduction=self.reduction)
        bitstate = BitstateFilter(bits=options.bitstate_bits) if options.use_bitstate else None
        visited = VisitedSet(bitstate=bitstate)
        outcome: SearchOutcome[State] = SearchOutcome(statistics=stats)
        started = time.perf_counter()

        root_key = self._fingerprint(initial_state)
        visited.add(root_key)
        stats.unique_states += 1

        # Each stack frame: (state, label-that-led-here, successors, position).
        # The label path to any state on the stack is reconstructed from the
        # frames on demand (terminals only), instead of copying an O(depth)
        # label list on every transition.
        stack: List[Tuple[State, object, List[Tuple[object, State]], int]] = []
        root_successors = self.successors(initial_state)
        stack.append((initial_state, None, root_successors, 0))
        stats.states_expanded += 1
        stats.transitions += len(root_successors)

        if not root_successors:
            self._handle_terminal(initial_state, [], stats, outcome, collect_converged)

        while stack:
            if stats.states_expanded >= options.max_states:
                stats.truncated = True
                break
            if options.max_seconds is not None and time.perf_counter() - started > options.max_seconds:
                stats.truncated = True
                break
            state, came_by, successors, position = stack[-1]
            if position >= len(successors):
                stack.pop()
                continue
            stack[-1] = (state, came_by, successors, position + 1)
            label, next_state = successors[position]
            key = self._fingerprint(next_state)
            if visited.add(key):
                continue
            stats.unique_states += 1
            depth = len(stack)
            stats.max_depth_reached = max(stats.max_depth_reached, depth)
            if depth > options.max_depth:
                stats.truncated = True
                continue
            next_successors = self.successors(next_state)
            stats.states_expanded += 1
            stats.transitions += len(next_successors)
            if not next_successors:
                next_labels = [frame[1] for frame in stack[1:]]
                next_labels.append(label)
                violation_found = self._handle_terminal(
                    next_state, next_labels, stats, outcome, collect_converged
                )
                if violation_found and options.stop_at_first_violation:
                    break
            else:
                stack.append((next_state, label, next_successors, 0))

        stats.elapsed_seconds = time.perf_counter() - started
        stats.visited_bytes = visited.approximate_bytes()
        fingerprinter = self.interner
        if fingerprinter is not None:
            stats.interner_entries = fingerprinter.unique_entries()
            stats.interner_bytes = fingerprinter.approximate_bytes()
            stats.state_bytes = (
                (stats.max_depth_reached + 1) * fingerprinter.state_bytes_per_state
            )
        return outcome

    # ------------------------------------------------------------------ helpers
    def _fingerprint(self, state: State) -> Hashable:
        return self.canonicalize(state)

    def _handle_terminal(
        self,
        state: State,
        labels: List[object],
        stats: ExplorationStatistics,
        outcome: SearchOutcome[State],
        collect_converged: bool,
    ) -> bool:
        """Process a converged state; returns True when a violation was
        recorded.  The visited set admits every state once, so a converged
        state reached along several paths is handled — and counted — once."""
        stats.terminal_states += 1
        stats.unique_terminal_states += 1
        if collect_converged:
            outcome.converged_states.append(state)
            outcome.converged_paths.append(list(labels))
        if self.check_terminal is None:
            return False
        violation = self.check_terminal(state, labels)
        if violation is None:
            return False
        stats.violations += 1
        trail = self.trail_factory()
        trail.add_labels("rpvp-step", labels)
        trail.violation_description = violation
        outcome.violations.append(trail)
        return True
