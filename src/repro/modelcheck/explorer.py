"""Explicit-state depth-first search engine.

This is the reproduction's SPIN: a depth-first search over the states of a
transition system, with a visited set (exact or bitstate-hashed), optional
state canonicalization, and bounded budgets.

The engine knows nothing about networks.  The verifier core supplies:

* the initial state,
* a ``successors`` function (which is where all of Plankton's partial-order
  reduction and pruning optimizations live — they simply shrink the returned
  successor list),
* a ``check_terminal`` callback invoked at every state with no successors
  (i.e. every converged state) with the labels of the path that reached it;
  a non-None return ends the search there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Iterator, List, Optional, Tuple, TypeVar

from repro.modelcheck.hashing import BitstateFilter, VisitedSet, ZobristFingerprinter
from repro.modelcheck.trail import document

State = TypeVar("State")

#: successors(state) -> list of (label, next_state)
SuccessorFunction = Callable[[State], List[Tuple[object, State]]]
#: check_terminal(state, path_labels) -> None to go on, anything else to stop
TerminalCheck = Callable[[State, List[object]], Optional[str]]

#: How much of its state space a search covered, strongest claim first: all
#: of it; all of it through a Bloom-filter visited set, which may take a new
#: state for a seen one (§4.4 bitstate hashing); or not all of it, stopped by
#: a state, time or depth budget.  A run can be weaker still: ``vacuous``, an
#: un-truncated search that reached nothing to check.  Only a run whose
#: searches are all ``complete`` lets a request answer "holds".
COMPLETE, BITSTATE, TRUNCATED, VACUOUS = "complete", "bitstate", "truncated", "vacuous"
COMPLETENESS = (COMPLETE, BITSTATE, TRUNCATED, VACUOUS)


def weakest(first: str, second: str) -> str:
    """The weaker of two completeness values (what a run of both searches
    can claim)."""
    return max(first, second, key=COMPLETENESS.index)


@dataclass
class ExplorerOptions:
    """The budgets and the visited-set kind of one search.

    The budgets bound the states a search expands: the states, and the
    seconds spent, are read before each newly reached state is expanded, so
    a search that needs no more than they allow is complete.
    """

    max_states: int = 5_000_000
    max_seconds: Optional[float] = None
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
    """Counters of the searches of one run (rendered by the benchmark harness)."""

    states_expanded: int = 0
    unique_states: int = 0
    transitions: int = 0
    terminal_states: int = 0
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


class Explorer(Generic[State]):
    """Depth-first explicit-state search with visited-state reduction."""

    def __init__(
        self,
        successors: SuccessorFunction,
        check_terminal: Optional[TerminalCheck] = None,
        canonicalize: Optional[Callable[[State], Hashable]] = None,
        options: Optional[ExplorerOptions] = None,
    ) -> None:
        self.successors = successors
        self.check_terminal = check_terminal
        self.canonicalize = canonicalize or (lambda state: state)
        self.options = options or ExplorerOptions()
        #: The fingerprinter ``canonicalize`` folds states through, set by
        #: whoever supplies one; its table statistics are reported on the
        #: search (zeros when the search hashes states some other way).
        self.interner: Optional[ZobristFingerprinter] = None

    def run(self, initial_state: State, statistics: ExplorationStatistics) -> str:
        """Explore the state space depth-first from ``initial_state``.

        The search's counters are added into ``statistics`` (the greatest
        depth is maxed, ``truncated`` or-ed), so the searches of one run
        share one record.  A state reached along several paths is expanded,
        and a converged one checked, once.  Returns the search's completeness
        (:data:`COMPLETENESS`): ``truncated`` when a budget stopped it,
        ``bitstate`` when its visited set was a Bloom filter.
        """
        options = self.options
        successors_of = self.successors
        check_terminal = self.check_terminal
        fingerprint = self.canonicalize
        bitstate = BitstateFilter(bits=options.bitstate_bits) if options.use_bitstate else None
        visited = VisitedSet(bitstate=bitstate)
        started = time.perf_counter()

        visited.add(fingerprint(initial_state))
        unique = expanded = 1
        terminals = max_depth = 0
        # Each stack frame: an iterator over a state's successors.  ``path``
        # holds the labels of the transitions into the stacked states but
        # the root: a terminal's labels are one copy of it, instead of an
        # O(depth) label list per transition.
        root_successors = successors_of(initial_state)
        stack: List[Iterator[Tuple[object, State]]] = [iter(root_successors)]
        path: List[object] = []
        transitions = len(root_successors)
        truncated = False
        if not root_successors:
            terminals = 1
            if check_terminal is not None:
                check_terminal(initial_state, [])

        max_states, max_seconds = options.max_states, options.max_seconds
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                if path:
                    path.pop()
                continue
            label, next_state = step
            if visited.add(fingerprint(next_state)):
                continue
            if expanded >= max_states or (
                max_seconds is not None and time.perf_counter() - started > max_seconds
            ):
                truncated = True
                break
            unique += 1
            depth = len(stack)
            if depth > max_depth:
                max_depth = depth
            next_successors = successors_of(next_state)
            expanded += 1
            transitions += len(next_successors)
            if next_successors:
                stack.append(iter(next_successors))
                path.append(label)
                continue
            terminals += 1
            if check_terminal is not None:
                if check_terminal(next_state, [*path, label]) is not None:
                    break

        statistics.states_expanded += expanded
        statistics.unique_states += unique
        statistics.transitions += transitions
        statistics.terminal_states += terminals
        statistics.max_depth_reached = max(statistics.max_depth_reached, max_depth)
        statistics.elapsed_seconds += time.perf_counter() - started
        statistics.visited_bytes += visited.approximate_bytes()
        statistics.truncated = statistics.truncated or truncated
        fingerprinter = self.interner
        if fingerprinter is not None:
            statistics.interner_entries += fingerprinter.unique_entries()
            statistics.interner_bytes += fingerprinter.approximate_bytes()
            statistics.state_bytes += (max_depth + 1) * fingerprinter.state_bytes_per_state
        if truncated:
            return TRUNCATED
        return BITSTATE if bitstate is not None else COMPLETE
