"""Bounded exploration of transient (pre-convergence) control plane states.

Plankton model checks RPVP, which by construction (Theorem 1) preserves only
the *converged* states of the protocol.  This extension explores the richer
SPVP message-passing model instead: every interleaving of advertisement
deliveries is a distinct execution, and the states visited along the way are
the transient states in which forwarding anomalies such as micro-loops can
appear even when every converged state is correct.

The exploration is a breadth-first search over SPVP states (best paths,
rib-ins and message buffers), bounded by a state budget and a depth budget so
divergent configurations (BAD GADGET) terminate with a truncation flag rather
than running forever.

Most interleavings are equivalent — they differ only in the order of
commuting deliveries — so the search applies partial-order reduction
(:mod:`repro.modelcheck.por`): per-state *ample sets* expand a provably
sufficient subset of the pending channels, and *sleep sets* threaded through
the BFS frontier kill the commuting permutations the ample sets miss.  The
reduction is controlled by :attr:`TransientOptions.por` (``"ample"`` —
ample + sleep, the default; ``"sleep"`` — sleep sets only; ``"full"`` — no
reduction, the oracle the property tests compare against).  On a *complete*
search (no state-budget truncation, no depth-bound pruning) reduced runs
preserve the violation verdict of every transient property and the exact
set of converged (deadlocked) states; what they skip is redundant
interleavings, tallied in :class:`~repro.modelcheck.por.ReductionStatistics`.
Bounded searches are approximate in every mode, and the reduction may reach
a given state through a different — possibly deeper — interleaving prefix,
so two *truncated* runs are not state-for-state comparable (a violation
sitting exactly at the depth bound can fall just past it under reduction);
``ReductionStatistics.depth_pruned`` reports whether the bound bit.

The per-state step is incremental, mirroring the RPVP explorer's treatment:
successors are derived :class:`repro.protocols.spvp.SpvpState` children
(structural sharing, no copy of a simulator), the visited-set
key is an O(changed-slots) Zobrist XOR off the parent's fingerprint instead
of a full (best, rib-in, buffers) tuple hash, pending channels are
delta-maintained on the state, and witness event sequences are reconstructed
from the BFS parent chain only when a violation is actually reported.
A successor the search will never expand — converged, or at the depth
bound — is checked when it is admitted, while its parent's array is live,
and the frontier holds only the outcome: a shared constant when it holds
every property, so the widest layer of a depth-bounded search keeps no
state, and a depth-(bound - 1) state is freed once it has been expanded.
The analyses run *on* a state are look-ups too, each keyed on the interned
ids it is a function of: the properties' messages on ``(best-slot bytes,
converged)`` in a memo that lives as long as the analyzer (the checks run
once per distinct best-path assignment, not once per interleaving — or per
scenario — reaching it); the ample selector's danger test and activity
closure on id tuples (:class:`~repro.modelcheck.por.ample.AmpleSelector`,
which the analyzer also keeps for all of its runs); and a witness is the
root's lines — described once per call, each line once per analyzer, and
shared by every violation — plus the few deliveries between the root and
the violating state.
The fork-a-simulator, full-signature exploration this replaced is not
shipped: it lives in ``tests/oracles/transient_reference.py`` as the
equivalence oracle ``por="full"`` runs are pinned to bit for bit.

State-budget accounting is deduplicated: a state counts against
``max_states`` exactly once — when it is first admitted to the visited set —
no matter how many branches rediscover it, and ``truncated`` is set only when
a genuinely new state had to be dropped.

Explorations can start from a *perturbed* root instead of the cold-start
initial state: ``analyze(properties, initial_events=...)`` applies a
sequence of initial events from :mod:`repro.scenarios.events` — e.g.
:class:`~repro.scenarios.events.Converge` (drain to a steady state along one
canonical execution) and :class:`~repro.scenarios.events.FailSession` (a
session flap losing the queued messages and delivering a withdrawal to both
peers, the Appendix A failure event) — which is how withdrawal/flap
transients are explored: converge first, flap a session, then explore every
re-convergence interleaving.  ``analyze(..., start=state)`` applies them to
a state built earlier instead of the cold start: a campaign task drains to
the steady state once and explores each of its lifecycle scenarios from
there (:func:`execute_transient_task`).

A result document carries the root's witness once, as ``witness_prefix``,
and each violation's ``witness`` after it; in memory every violation keeps
its whole witness.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.config.objects import NetworkConfig
from repro.core.options import POR_MODES
from repro.core.results import RequestResult, TaskFailure
from repro.modelcheck.explorer import COMPLETE, TRUNCATED
from repro.modelcheck.hashing import ZobristFingerprinter
from repro.modelcheck.por import (
    AmpleSelector,
    EMPTY_SLEEP,
    ReductionStatistics,
    merged_sleep_for_requeue,
    successor_sleep,
)
from repro.modelcheck.trail import document
from repro.pec.classes import PacketEquivalenceClass
from repro.protocols.base import PathVectorInstance
from repro.protocols.rpvp import RpvpState
from repro.protocols.spvp import Channel, SpvpEvent, SpvpState, SpvpStepper, space_for
from repro.scenarios.events import split_at_overlay
from repro.topology.failures import FailureScenario
from repro.transient.properties import TransientForwarding, TransientProperty


@dataclass(frozen=True)
class TransientOptions:
    """Tuning knobs of one transient exploration.

    ``por`` selects the partial-order reduction: ``"ample"`` (ample sets +
    sleep sets, the default), ``"sleep"`` (sleep sets only — prunes
    redundant transitions but visits every state), or ``"full"`` (no
    reduction — the oracle mode the equivalence tests pin against).
    """

    max_states: int = 20_000
    max_depth: int = 64
    stop_at_first_violation: bool = True
    collect_converged: bool = False
    por: str = "ample"
    #: Lifecycle-scenario campaign knob (``src/repro/scenarios/``): when
    #: ``scenario_events > 0`` the campaign task graph crosses every failure
    #: scenario with every symmetry-reduced event scenario of up to that many
    #: events, of every kind.  It shapes *what* is verified, so it
    #: participates in the incremental cache fingerprint.
    scenario_events: int = 0

    def __post_init__(self) -> None:
        """Refuse budgets no search can honour (``ValueError``), as
        :class:`~repro.core.options.PlanktonOptions` does: an empty search
        would only report INCONCLUSIVE for a question nobody asked."""
        if self.por not in POR_MODES:
            raise ValueError(f"por must be one of {', '.join(POR_MODES)} (got {self.por!r})")
        if self.max_states < 1:
            raise ValueError(f"max_states must be >= 1 (got {self.max_states})")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0 (got {self.max_depth})")
        if self.scenario_events < 0:
            raise ValueError(f"scenario_events must be >= 0 (got {self.scenario_events})")


def _apply_initial_event(stepper: SpvpStepper, state: SpvpState, event) -> SpvpState:
    """Apply one initial event (:mod:`repro.scenarios.events`) to a state."""
    if not hasattr(event, "apply"):
        raise TypeError(f"initial event {event!r} has no apply(stepper, state) hook")
    return event.apply(stepper, state)


@document(witness=(list, tuple))
@dataclass(frozen=True)
class TransientViolation:
    """One transient property violation with the event sequence reaching it.

    ``depth`` is the search depth of the violating state: its witness is
    the root's prefix followed by exactly ``depth`` deliveries.
    """

    property_name: str
    message: str
    depth: int
    converged: bool
    witness: Tuple[str, ...]

    def render(self) -> str:
        lines = [
            f"property  : {self.property_name}",
            f"violation : {self.message}",
            f"state     : {'converged' if self.converged else f'transient (depth {self.depth})'}",
            "event sequence:",
        ]
        if self.witness:
            lines.extend(f"  {index + 1}. {event}" for index, event in enumerate(self.witness))
        else:
            lines.append("  (initial state)")
        return "\n".join(lines)


#: What :meth:`TransientAnalysisResult.stats_signature` leaves out.
_STATS_SIGNATURE_EXCLUDED = frozenset({"elapsed_seconds", "reduction"})


def _witness_suffixes(result: "TransientAnalysisResult", document: Dict) -> Dict:
    """The written document: each violation's witness after the prefix."""
    cut = len(result.witness_prefix)
    for violation in document["violations"] if cut else ():
        del violation["witness"][:cut]
    return document


def _whole_witnesses(document: Dict) -> Dict:
    """The document to read: each violation's witness behind the prefix."""
    prefix = document.get("witness_prefix")
    if not prefix:
        return document
    return dict(
        document,
        violations=[
            dict(violation, witness=prefix + violation["witness"])
            for violation in document["violations"]
        ],
    )


# ``converged_rpvp_states`` are live protocol states (routes, paths): not
# JSON-representable, and results carrying them are never cached.
@document(
    omit=("converged_rpvp_states",),
    adapt=(_witness_suffixes, _whole_witnesses),
    witness_prefix=(list, tuple),
    violations=[TransientViolation],
    reduction=ReductionStatistics,
)
@dataclass
class TransientAnalysisResult:
    """Aggregate result of one transient exploration.

    ``witness_prefix`` is the described delivery sequence from the cold
    start to the search root — the deliveries of a ``Converge()`` drain —
    which every violation's witness begins with.  It is set when the search
    recorded a violation.  The document writes it once and each violation's
    ``witness`` without it; in memory a witness is whole.
    """

    states_explored: int = 0
    converged_states: int = 0
    max_depth_reached: int = 0
    truncated: bool = False
    #: ``truncated`` when the state budget dropped a new state or the depth
    #: bound left a state unexpanded, else ``complete``
    #: (:data:`~repro.modelcheck.explorer.COMPLETENESS`).
    completeness: str = COMPLETE
    elapsed_seconds: float = 0.0
    witness_prefix: Tuple[str, ...] = ()
    violations: List[TransientViolation] = field(default_factory=list)
    #: Converged best-path assignments, populated when the analyzer was built
    #: with ``collect_converged=True`` (the Theorem 1 cross-model check).
    converged_rpvp_states: List[RpvpState] = field(default_factory=list)
    #: What the partial-order reduction did (None when the search kept no
    #: ledger, as the test suite's reference explorer does not).
    reduction: Optional[ReductionStatistics] = None

    @property
    def holds(self) -> bool:
        """True when no transient property was violated in the explored states."""
        return not self.violations

    def summary(self) -> str:
        verdict = "HOLDS" if self.holds else f"VIOLATED ({len(self.violations)} violation(s))"
        reduction = ""
        if self.reduction is not None and self.reduction.mode != "full":
            reduction = (
                f", por {self.reduction.mode} "
                f"({self.reduction.transition_reduction_ratio():.1f}x transition reduction)"
            )
        return (
            f"transient analysis: {verdict}; {self.states_explored} state(s), "
            f"{self.converged_states} converged, max depth {self.max_depth_reached}, "
            f"at state budget: {'yes' if self.truncated else 'no'}, "
            f"{self.elapsed_seconds:.3f}s{reduction}"
        )

    def stats_signature(self) -> Dict[str, object]:
        """Everything observable about the exploration except wall-clock time.

        Used by the equivalence tests to assert this exploration and the
        reference one are bit-identical: the canonical document without the
        clock and without the reduction ledger, which describes *how* the
        search ran, not what it observed.
        """
        return self.to_dict(_STATS_SIGNATURE_EXCLUDED)



class _Leaf:
    """A successor the search will never expand, queued as its check's outcome.

    A fresh successor that is converged or at the depth bound is checked when
    it is admitted, and the frontier holds this instead of the state: the
    pop still counts it, records its violations and prunes it at the bound.
    One that holds every property, and carries no converged assignment to
    collect, is one of the shared :data:`_CONVERGED` / :data:`_AT_BOUND`;
    one that violates keeps the parent and event its witness is read from.
    """

    __slots__ = ("converged", "messages", "rpvp", "parent", "event")

    def __init__(
        self,
        converged: bool,
        messages: Tuple[Optional[str], ...] = (),
        rpvp: Optional[RpvpState] = None,
        parent: Optional[SpvpState] = None,
        event: Optional[SpvpEvent] = None,
    ) -> None:
        self.converged = converged
        #: What each property says (None = holds); () when all hold.
        self.messages = messages
        #: The converged best-path assignment, when the run collects them.
        self.rpvp = rpvp
        self.parent = parent
        self.event = event


#: The leaves that hold every property and carry nothing.
_CONVERGED = _Leaf(converged=True)
_AT_BOUND = _Leaf(converged=False)


class TransientAnalyzer:
    """Breadth-first exploration of SPVP states checking transient properties.

    One analyzer serves one instance for any number of :meth:`analyze`
    runs — a campaign task runs all of its lifecycle scenarios on one — so
    what is a function of the instance alone is built once, at
    construction: the fingerprinter (bound to the instance's intern table)
    and the ample selector with its analysis memos.  The transfer memos and
    the channel masks the sleep sets read are the instance's slot layout's
    (:func:`~repro.protocols.spvp.space_for`), shared with every other
    stepper over the instance.  What a run owns — its stepper with the
    lifecycle overlays, its root, its result and reduction ledger — is local
    to the run.
    """

    def __init__(
        self,
        instance: PathVectorInstance,
        options: Optional[TransientOptions] = None,
        **overrides,
    ) -> None:
        """``overrides`` are :class:`TransientOptions` fields by keyword,
        applied on top of ``options`` (default: a fresh ``TransientOptions``)."""
        self.instance = instance
        self.options = replace(options or TransientOptions(), **overrides)
        self._space = space_for(instance)
        # State slots already hold the intern table's ids, so every Zobrist
        # component is a dict lookup keyed on (slot, id) — no route decoding
        # or path hashing.
        self._hasher = ZobristFingerprinter(self._space.table)
        por = self.options.por
        self._use_sleep = por in ("ample", "sleep")
        self._selector = AmpleSelector(instance) if por == "ample" else None
        #: (best-slot bytes, converged) -> the messages of the properties in
        #: ``_messages_for``.  The ids are the instance's own, so the memo
        #: outlives one analyze(): the searches of one task from different
        #: roots pass through many of the same best-path assignments.
        self._messages: Dict[Tuple[bytes, bool], Tuple[Optional[str], ...]] = {}
        self._messages_for: Tuple[TransientProperty, ...] = ()
        #: id(event) -> (event, its description), for the analyzer's
        #: lifetime: the searches of one task start from one shared drain,
        #: whose deliveries are then described, and held, once.
        self._lines: Dict[int, Tuple[SpvpEvent, str]] = {}

    # ------------------------------------------------------------------ exploration
    def analyze(
        self,
        properties: Sequence[TransientProperty],
        initial_events: Sequence[object] = (),
        start: Optional[SpvpState] = None,
    ) -> TransientAnalysisResult:
        """Explore reachable SPVP states and check ``properties`` on each.

        ``initial_events`` perturb the root before the search starts (e.g.
        ``[Converge(), FailSession("a", "b")]`` explores the transients of a
        session flap out of a steady state).  They are applied to ``start``
        when given — a state of this instance that earlier events built on a
        stepper without overlays (:func:`repro.scenarios.events.
        split_at_overlay`) — and to the cold-start state otherwise.  The
        search derives from ``start`` and never detaches it: its parent
        chain is every witness's prefix.
        """
        if not properties:
            raise ValueError("at least one transient property is required")
        started = time.perf_counter()
        options = self.options
        result = TransientAnalysisResult()
        reduction = ReductionStatistics(mode=options.por)
        result.reduction = reduction

        stepper = SpvpStepper(self.instance)
        hasher = self._hasher
        if start is not None and start._space is not self._space:
            raise ValueError("start state belongs to another protocol instance")
        root = start if start is not None else stepper.initial_state()
        for event in initial_events:
            root = _apply_initial_event(stepper, root, event)
        properties = tuple(properties)
        if properties != self._messages_for:
            self._messages = {}
            self._messages_for = properties

        space = self._space
        use_sleep = self._use_sleep
        selector = self._selector
        if selector is not None:
            selector.reduction = reduction

        #: fingerprint -> the sleep set (a channel mask) the state was
        #: admitted/last queued with.
        visited: Dict[int, int] = {root.fingerprint(hasher): EMPTY_SLEEP}
        #: Frontier entries are (state or leaf, depth, sleep set, fresh);
        #: ``fresh`` is False only for the sleep-set requeues of
        #: already-counted states.  A successor the search will never expand
        #: (converged, or at the depth bound) is queued as a :class:`_Leaf`,
        #: the outcome of checking it when it was admitted, so neither it nor
        #: its parent outlives that check unless it violates.
        frontier: Deque[Tuple[Union[SpvpState, _Leaf], int, int, bool]] = deque(
            [(root, 0, EMPTY_SLEEP, True)]
        )
        channel_bit = space.channel_bit
        last_depth = options.max_depth - 1
        # The entry of every fresh leaf at the bound that holds: nothing to
        # allocate for the widest layer of a depth-bounded search.
        at_bound = (_AT_BOUND, options.max_depth, EMPTY_SLEEP, True)
        while frontier:
            state, depth, sleep, fresh = frontier.popleft()
            leaf = state.__class__ is _Leaf
            converged = state.converged if leaf else state.is_converged()
            if fresh:
                result.states_explored += 1
                result.max_depth_reached = max(result.max_depth_reached, depth)
                if converged:
                    result.converged_states += 1
                    if options.collect_converged:
                        result.converged_rpvp_states.append(
                            state.rpvp if leaf else state.converged_rpvp()
                        )
                messages = (
                    state.messages if leaf else self._messages_of(state, converged, properties)
                )
                if self._check_state(state, converged, depth, messages, properties, result, root):
                    break

            if converged:
                continue
            if depth >= options.max_depth:
                reduction.depth_pruned += 1
                continue

            # Only an expanded state builds its id array: a successor at the
            # depth bound, or dropped as a duplicate, never does.
            state.ids()
            leaves = depth >= last_depth
            enabled = state.pending_channels()
            reduced = False
            if selector is not None:
                choice = selector.select(state, enabled)
                expansion: List[Channel] = list(choice.channels)
                reduced = choice.reduced
            else:
                expansion = list(enabled)

            executed = 0
            expanded_count = 0
            # A list iterator also walks what the proviso below appends.
            for channel in expansion:
                bit = channel_bit[channel]
                if use_sleep and sleep & bit:
                    reduction.transitions_slept += 1
                    continue
                _event, successor = stepper.deliver(state, channel)
                if reduced:
                    # Visibility proviso (C2), re-checked on the actual
                    # successor: a reduced expansion may only contain no-op
                    # deliveries.  The ample analysis guarantees this; if a
                    # delivery surprises it, widen to the full enabled set
                    # (sound: the ample channels stay in the expansion).
                    old_best = state.best_of(channel[1])
                    new_best = _event.new_best
                    if (old_best.path if old_best is not None else None) != (
                        new_best.path if new_best is not None else None
                    ):
                        reduced = False
                        reduction.proviso_fallbacks += 1
                        present = set(expansion)
                        expansion.extend(c for c in enabled if c not in present)
                succ_sleep = (
                    successor_sleep(space, sleep, executed, channel)
                    if use_sleep
                    else EMPTY_SLEEP
                )
                executed |= bit
                expanded_count += 1
                fingerprint = successor.fingerprint(hasher)
                stored = visited.get(fingerprint)
                if stored is None:  # values are masks, never None
                    if len(visited) >= options.max_states:
                        result.truncated = True
                        break
                    visited[fingerprint] = succ_sleep
                    if leaves or not successor.pending:
                        successor = self._leaf(successor, properties)
                    frontier.append(
                        at_bound
                        if successor is _AT_BOUND
                        else (successor, depth + 1, succ_sleep, True)
                    )
                elif use_sleep:
                    merged = merged_sleep_for_requeue(stored, succ_sleep)
                    if merged is not None:
                        visited[fingerprint] = merged
                        reduction.sleep_requeues += 1
                        if leaves or not successor.pending:
                            # A requeue is never checked: only the pop's
                            # depth pruning reads it.
                            successor = _CONVERGED if not successor.pending else _AT_BOUND
                        frontier.append((successor, depth + 1, merged, False))
            if fresh:
                reduction.observe_expansion(
                    enabled=len(enabled), expanded=expanded_count, reduced=reduced
                )
            else:
                # Requeued (sleep-merge) passes count toward the transition
                # totals — both sides, so the enabled/expanded ratio stays an
                # honest effort comparison — but never toward the state tallies.
                reduction.transitions_enabled += len(enabled)
                reduction.transitions_expanded += expanded_count

        if result.truncated or reduction.depth_pruned:
            result.completeness = TRUNCATED
        result.elapsed_seconds = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------ helpers
    def _leaf(self, state: SpvpState, properties: Sequence[TransientProperty]) -> _Leaf:
        """Check a fresh successor the search will never expand, while its
        parent's array is live: the frontier keeps the outcome instead."""
        converged = not state.pending
        messages = self._messages_of(state, converged, properties)
        rpvp = state.converged_rpvp() if converged and self.options.collect_converged else None
        if messages.count(None) < len(messages):
            return _Leaf(converged, messages, rpvp, state.parent, state.event)
        if rpvp is not None:
            return _Leaf(converged, (), rpvp)
        return _CONVERGED if converged else _AT_BOUND

    def _messages_of(
        self,
        state: SpvpState,
        converged: bool,
        properties: Sequence[TransientProperty],
    ) -> Tuple[Optional[str], ...]:
        """What each property says about ``state`` (None = holds).

        A property reads the forwarding relation and ``converged`` and nothing
        else, so the answer is looked up on exactly that: the best-slot ids
        and the flag.  Only the first interleaving to reach an assignment
        builds the relation, from those ids, and runs the checks.
        """
        space = self._space
        best = state.head_ids(len(space.nodes))
        key = (best.tobytes(), converged)
        messages = self._messages.get(key)
        if messages is None:
            forwarding = TransientForwarding.of_best(space, best)
            messages = tuple(prop.check(forwarding, converged) for prop in properties)
            self._messages[key] = messages
        return messages

    def _witness_of(
        self,
        state: Union[SpvpState, _Leaf],
        root: SpvpState,
        result: TransientAnalysisResult,
    ) -> Tuple[str, ...]:
        """The described delivery sequence from the cold start to ``state``.

        Every state of one search descends from its ``root``, so the root's
        own sequence (the deliveries of a ``Converge()`` drain, typically the
        bulk of a witness) is described once per ``analyze()`` — and, line
        by line, once per analyzer — and kept as ``result.witness_prefix``,
        shared by every violation; only the few deliveries between the root
        and ``state`` are looked up here.
        """
        suffix: List[SpvpEvent] = []
        node = state
        while node is not root:
            if node.event is not None:
                suffix.append(node.event)
            node = node.parent
        suffix.reverse()
        if not result.witness_prefix:
            result.witness_prefix = self._describe(root.witness_events())
        return result.witness_prefix + self._describe(suffix)

    def _describe(self, events: Sequence[SpvpEvent]) -> Tuple[str, ...]:
        # An entry holds its event, so no other event can take over its id.
        lines = self._lines
        described: List[str] = []
        for event in events:
            entry = lines.get(id(event))
            if entry is None:
                entry = lines[id(event)] = (event, event.describe())
            described.append(entry[1])
        return tuple(described)

    def _check_state(
        self,
        state: Union[SpvpState, _Leaf],
        converged: bool,
        depth: int,
        messages: Tuple[Optional[str], ...],
        properties: Sequence[TransientProperty],
        result: TransientAnalysisResult,
        root: SpvpState,
    ) -> bool:
        """Record the violations among ``messages`` (what ``properties`` say
        about one state or leaf of the search from ``root``); returns True
        when the search should stop."""
        for prop, message in zip(properties, messages):
            if message is None:
                continue
            result.violations.append(
                TransientViolation(
                    property_name=prop.name,
                    message=message,
                    depth=depth,
                    converged=converged,
                    witness=self._witness_of(state, root, result),
                )
            )
            if self.options.stop_at_first_violation:
                return True
        return False


# --------------------------------------------------------------------------- engine routing
@dataclass(frozen=True)
class TransientTaskConfig:
    """The transient payload of one engine :class:`~repro.engine.graph.TaskSpec`.

    Everything a worker needs to run one (PEC, failure) task of a campaign —
    the properties, the exploration budgets, the POR mode, the base initial
    events and the lifecycle scenarios — in a picklable bundle, so transient
    campaigns ride the same pool backends and early cancellation as
    converged-state verification.
    """

    properties: Tuple[TransientProperty, ...]
    options: TransientOptions = field(default_factory=TransientOptions)
    initial_events: Tuple[object, ...] = ()
    #: The lifecycle scenarios (:class:`repro.scenarios.Scenario` values) the
    #: task explores, each after ``initial_events``; empty = one plain run
    #: per BGP prefix from ``initial_events`` alone.
    scenarios: Tuple[object, ...] = ()


class _SharedStarts:
    """The start states of one instance's explorations, each built once.

    A state is keyed by the overlay-free events that built it
    (:func:`~repro.scenarios.events.split_at_overlay`), every prefix of
    them included, on one stepper that never gets an overlay: the base
    events and a scenario's leading ``Converge()`` drain run once per task,
    not once per scenario.
    """

    def __init__(self, instance: PathVectorInstance) -> None:
        self._stepper = SpvpStepper(instance)
        self._states: Dict[Tuple[object, ...], SpvpState] = {
            (): self._stepper.initial_state()
        }

    def split(self, events: Sequence[object]) -> Tuple[SpvpState, Tuple[object, ...]]:
        """The shared state ``events`` start from, and the events left to
        apply on the exploring stepper."""
        head, tail = split_at_overlay(events)
        built = len(head)
        while head[:built] not in self._states:
            built -= 1
        state = self._states[head[:built]]
        for index in range(built, len(head)):
            state = _apply_initial_event(self._stepper, state, head[index])
            self._states[head[: index + 1]] = state
        return state, tail


@document(failure=FailureScenario, result=TransientAnalysisResult)
@dataclass
class TransientCampaignRun:
    """One analysed (failure scenario, BGP prefix) pair of a campaign."""

    pec_index: int
    failure: FailureScenario
    prefix: str
    result: TransientAnalysisResult
    #: The lifecycle scenario this run perturbed with (None = none).
    scenario: Optional[str] = None

    @property
    def violations(self) -> List[TransientViolation]:
        """The run's violations (the engine's early-stop hook reads this)."""
        return self.result.violations

    @property
    def completeness(self) -> str:
        """How much the run's search covered (its analysis records it)."""
        return self.result.completeness


@document(omit=("incremental",), runs=[TransientCampaignRun], errors=[TaskFailure])
@dataclass
class TransientCampaignResult(RequestResult):
    """The result of a ``transient`` request: one run per (failure, event
    scenario, BGP prefix), in task-graph order."""

    kind = "transient"

    runs: List[TransientCampaignRun] = field(default_factory=list)
    failure_scenarios: int = 0
    #: Lifecycle event scenarios crossed with the failure scenarios
    #: (0 = the campaign did not enumerate event scenarios).
    event_scenarios: int = 0

    def _runs(self) -> List[TransientCampaignRun]:
        return self.runs

    @property
    def states_explored(self) -> int:
        return sum(run.result.states_explored for run in self.runs)

    def absorb(self, prefix, graph) -> None:
        """:meth:`RequestResult.absorb`, then the scenario counts.  They
        cover the PECs the prefix reached: a campaign ended by its first
        violation reports what it walked, not what it was asked."""
        super().absorb(prefix)
        reached = {spec.pec_index for spec, _ in prefix}
        # A PEC has one task per failure scenario, each carrying its
        # lifecycle scenarios.
        tasks = Counter(spec.pec_index for spec in graph.tasks if spec.pec_index in reached)
        self.failure_scenarios = max(tasks.values(), default=0)
        self.event_scenarios = max(
            (len(spec.transient.scenarios) for spec, _ in prefix), default=0
        )

    def summary(self) -> str:
        # Runs the state budget cut; depth-bounded ones are counted by the
        # verdict phrase, with every other run that is not complete.
        at_budget = sum(1 for run in self.runs if run.result.truncated)
        scenarios = (
            f" x {self.event_scenarios} event scenario(s)"
            if self.event_scenarios
            else ""
        )
        return (
            f"transient campaign: {self.verdict_phrase()}; {len(self.runs)} run(s) over "
            f"{self.failure_scenarios} failure scenario(s){scenarios}, "
            f"{self.states_explored} state(s), {at_budget} at the state budget, "
            f"{self.elapsed_seconds:.3f}s"
        )


def execute_transient_task(plankton, spec, should_cancel=None):
    """Run one transient task (the engine worker's ``kind == "transient"`` path).

    One task is one (PEC, failure scenario): every lifecycle scenario of
    its payload, in order, times every BGP prefix of the PEC — the runs come
    back scenario-major.  Each prefix's instance is built once, and the
    overlay-free events each scenario starts with (the base events and a
    leading ``Converge()``) are applied once per prefix; every scenario is
    then explored from that shared state on a fresh stepper.
    ``should_cancel`` is polled before every run, so a cross-worker stop
    request takes effect mid-task, and under stop-at-first the task ends
    after the first scenario that found a violation.
    """
    from repro.core.network_model import DependencyContext, PecExplorer
    from repro.engine.graph import TaskResult

    config: TransientTaskConfig = spec.transient
    pec = plankton.pec_by_index(spec.pec_index)
    result = TaskResult(task_id=spec.task_id)
    explorer = PecExplorer(
        plankton.network,
        pec,
        spec.failure,
        plankton.options,
        dependency_context=DependencyContext(),
        ospf_computation=plankton.ospf_computation,
    )
    prefixes = [prefix for prefix, devices in pec.bgp_origins if devices]
    # prefix -> its analyzer and shared start states, built on first use.
    searches: Dict[object, Tuple[TransientAnalyzer, _SharedStarts]] = {}
    for scenario in config.scenarios or (None,):
        events = config.initial_events
        label = None
        if scenario is not None:
            events += tuple(scenario.events)
            label = scenario.describe()
        found = False
        # Every BGP prefix of the PEC is analysed even after a violation
        # (each analysis already stops at its own first violation when asked
        # to): a scenario yields one run per prefix.
        for prefix in prefixes:
            if should_cancel is not None and should_cancel():
                result.cancelled = True
                return result
            if prefix not in searches:
                instance = explorer.bgp_instance(prefix)
                searches[prefix] = (
                    TransientAnalyzer(instance, options=config.options),
                    _SharedStarts(instance),
                )
            analyzer, starts = searches[prefix]
            start, rest = starts.split(events)
            analysis = analyzer.analyze(config.properties, initial_events=rest, start=start)
            found = found or bool(analysis.violations)
            result.runs.append(
                TransientCampaignRun(
                    pec_index=pec.index,
                    failure=spec.failure,
                    prefix=str(prefix),
                    result=analysis,
                    scenario=label,
                )
            )
        if found and config.options.stop_at_first_violation:
            break
    return result


def analyze_pec_transients(
    network: NetworkConfig,
    pec: PacketEquivalenceClass,
    properties: Sequence[TransientProperty],
    failure: Optional[FailureScenario] = None,
    max_states: int = 20_000,
    max_depth: int = 64,
    por: str = "ample",
    initial_events: Sequence[object] = (),
) -> Dict[str, TransientAnalysisResult]:
    """Run transient analysis for every BGP prefix of ``pec``.

    Returns one result per analysed prefix (keyed by its text form).  PECs
    with no BGP origin have nothing to analyse: OSPF is modelled as a
    deterministic computation, so its transients are not represented in this
    reproduction (the same simplification the paper makes for converged-state
    checking applies here).

    This is the single-scenario convenience wrapper around
    :meth:`repro.core.verifier.Plankton.verify_transients` (and therefore
    routes through the execution engine like everything else).
    """
    from repro.core.verifier import Plankton

    campaign = Plankton(network).verify_transients(
        properties,
        transient=TransientOptions(max_states=max_states, max_depth=max_depth, por=por),
        failures=[failure or FailureScenario()],
        initial_events=initial_events,
        pecs=[pec],
    )
    return {run.prefix: run.result for run in campaign.runs}
