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
The analyses run *on* a state are look-ups too, each keyed on the interned
ids it is a function of: the properties' messages on ``(best-slot bytes,
converged)`` in a memo that lives for one ``analyze()`` call (the checks run
once per distinct best-path assignment, not once per interleaving reaching
it); the ample selector's danger test and activity closure on id tuples
(:class:`~repro.modelcheck.por.ample.AmpleSelector`); and a witness is the
root's lines — described once per call and shared by every violation — plus
the few deliveries between the root and the violating state.
The fork-a-simulator, full-signature exploration this replaced is not
shipped: it lives in ``tests/oracles/transient_reference.py`` as the
equivalence oracle ``por="full"`` runs are pinned to bit for bit.

State-budget accounting is deduplicated: a state counts against
``max_states`` exactly once — when it is first admitted to the visited set —
no matter how many branches rediscover it, and ``truncated`` is set only when
a genuinely new state had to be dropped.

Explorations can start from a *perturbed* root instead of the cold-start
initial state: ``analyze(properties, initial_events=...)`` applies a
sequence of initial events — :class:`Converge` (drain to a steady state
along one canonical execution) and :class:`FailSession` (a session flap
losing the queued messages and delivering a withdrawal to both peers, the
Appendix A failure event) — which is how withdrawal/flap transients are
explored: converge first, flap a session, then explore every re-convergence
interleaving.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.config.objects import NetworkConfig
from repro.core.results import TaskFailure
from repro.modelcheck.hashing import ZobristFingerprinter
from repro.modelcheck.por import (
    AmpleSelector,
    ChannelIndependence,
    EMPTY_SLEEP,
    ReductionStatistics,
    merged_sleep_for_requeue,
    successor_sleep,
)
from repro.modelcheck.trail import document
from repro.pec.classes import PacketEquivalenceClass
from repro.protocols.base import PathVectorInstance
from repro.protocols.rpvp import RpvpState
from repro.protocols.spvp import Channel, SpvpEvent, SpvpState, SpvpStepper
from repro.topology.failures import FailureScenario
from repro.transient.properties import TransientForwarding, TransientProperty

#: Accepted values of :attr:`TransientOptions.por`.
POR_MODES = ("ample", "sleep", "full")

#: Accepted values of :attr:`TransientOptions.frontier`.
FRONTIER_MODES = ("fifo", "priority")


@dataclass(frozen=True)
class TransientOptions:
    """Tuning knobs of one transient exploration.

    ``por`` selects the partial-order reduction: ``"ample"`` (ample sets +
    sleep sets, the default), ``"sleep"`` (sleep sets only — prunes
    redundant transitions but visits every state), or ``"full"`` (no
    reduction — the oracle mode the equivalence tests pin against).

    ``frontier`` selects the exploration order: ``"fifo"`` (plain BFS, the
    default and the order the reference explorer pins) or ``"priority"``, a
    deepest-first heap with fewest-pending-channels tie-breaking — the
    search commits to the branch closest to convergence and backtracks
    locally.  Forced singleton amples — states where the reduction proved
    only one (harmless) delivery needs exploring — strictly shrink the
    pending set, so forced chains drain straight through; BFS instead
    parks every chain link behind the combinatorial frontier of the same
    depth.
    Convergence on the fig7a fat-tree instance sits ~64 deliveries deep
    while a 20k-state BFS reaches depth ~9, so this is the difference
    between small ``max_states`` budgets reaching converged states or
    none at all.  When a descent meets a state whose entire expansion is
    asleep it re-expands with the sleep set ignored
    (``ReductionStatistics.sleep_fallbacks``) — on a budgeted search the
    sibling branch covering those interleavings may never be reached.  On
    a complete (un-truncated, un-depth-pruned) search, verdicts and
    converged states are order-independent in every mode, and ``"full"``
    explorations visit the identical state set; ample/sleep priority runs
    may visit a few extra states through those fallbacks.  Truncated
    searches cover different slices, which is the point.

    ``minimize_witnesses`` post-processes every violation witness through
    :func:`repro.transient.witness.minimize_witness`: deliveries
    independent of the violation's receiver chain are dropped while the
    shortened sequence still replays to the same violating property and
    message.

    ``rank_immunity`` (``"ample"`` mode only) enables the per-session
    refinement of the ample activity closure: sessions whose static rank
    bound (:meth:`~repro.protocols.base.PathVectorInstance.
    session_rank_bound`) proves they can never dislodge the receiver's
    current best do not propagate activity, so receivers mid-convergence
    can still be proven frozen.  Sound (verdicts and converged states are
    preserved; the equivalence suite pins this against ``por="full"``);
    disable to reproduce the pre-refinement reduction exactly, e.g. when
    comparing reduction ledgers across versions.
    """

    max_states: int = 20_000
    max_depth: int = 64
    stop_at_first_violation: bool = True
    collect_converged: bool = False
    por: str = "ample"
    frontier: str = "fifo"
    minimize_witnesses: bool = False
    rank_immunity: bool = True
    #: Lifecycle-scenario campaign knobs (``src/repro/scenarios/``): when
    #: ``scenario_events > 0`` the campaign task graph crosses every failure
    #: scenario with every symmetry-reduced event scenario of up to that many
    #: events; ``scenario_kinds`` restricts the event vocabulary (empty = all
    #: kinds).  Both shape *what* is verified, so they participate in the
    #: incremental cache fingerprint.
    scenario_events: int = 0
    scenario_kinds: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.por not in POR_MODES:
            raise ValueError(f"unknown POR mode {self.por!r}; choose from {POR_MODES}")
        if self.frontier not in FRONTIER_MODES:
            raise ValueError(
                f"unknown frontier mode {self.frontier!r}; choose from {FRONTIER_MODES}"
            )
        if self.scenario_events < 0:
            raise ValueError("scenario_events must be >= 0")
        object.__setattr__(self, "scenario_kinds", tuple(self.scenario_kinds))
        if self.scenario_kinds:
            from repro.scenarios.enumerator import EVENT_KINDS

            for kind in self.scenario_kinds:
                if kind not in EVENT_KINDS:
                    raise ValueError(
                        f"unknown event kind {kind!r}; choose from {EVENT_KINDS}"
                    )


# --------------------------------------------------------------------------- initial events
@dataclass(frozen=True)
class FailSession:
    """Initial event: flap the session between ``a`` and ``b`` (Appendix A).

    Queued messages on the session are lost and each peer sees a withdrawal
    — the root of every withdrawal/flap transient exploration.
    """

    a: str
    b: str

    def apply(self, stepper: SpvpStepper, state: SpvpState) -> SpvpState:
        return stepper.fail_session(state, self.a, self.b)

    def describe(self) -> str:
        return f"fail-session {self.a}<->{self.b}"


@dataclass(frozen=True)
class Converge:
    """Initial event: drain all buffers along one canonical execution.

    Always delivers the first pending channel (slot order; see
    :meth:`SpvpStepper.drain`), so every exploration — the test suite's
    reference explorer included — starts its perturbed search from the same
    steady state.  Raises
    :class:`ProtocolError` when the instance does not converge within
    ``max_steps`` (divergent configurations).
    """

    max_steps: int = 100_000

    def apply(self, stepper: SpvpStepper, state: SpvpState) -> SpvpState:
        return stepper.drain(state, max_steps=self.max_steps)

    def describe(self) -> str:
        return "converge (canonical delivery order)"


def _apply_initial_event(stepper: SpvpStepper, state: SpvpState, event) -> SpvpState:
    """Apply one initial event to a persistent state (duck-typed hook)."""
    if hasattr(event, "apply"):
        return event.apply(stepper, state)
    if callable(event):
        return event(stepper, state)
    raise TypeError(f"initial event {event!r} has no apply(stepper, state) hook")


@document(witness=(list, tuple))
@dataclass(frozen=True)
class TransientViolation:
    """One transient property violation with the event sequence reaching it.

    ``depth`` is the search depth at which the violation was *discovered*;
    with :attr:`TransientOptions.minimize_witnesses` the recorded witness
    may be a shorter replay of that discovery, so its length can be below
    ``depth`` (plus any initial-event prefix).
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


# ``converged_rpvp_states`` are live protocol states (routes, paths): not
# JSON-representable, and results carrying them are never cached.
@document(
    omit=("converged_rpvp_states",),
    violations=[TransientViolation],
    reduction=ReductionStatistics,
)
@dataclass
class TransientAnalysisResult:
    """Aggregate result of one transient exploration."""

    states_explored: int = 0
    converged_states: int = 0
    max_depth_reached: int = 0
    truncated: bool = False
    elapsed_seconds: float = 0.0
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
            f"truncated: {'yes (state budget reached)' if self.truncated else 'no'}, "
            f"{self.elapsed_seconds:.3f}s{reduction}"
        )

    def render(self) -> str:
        """Multi-line report: summary, reduction ledger, violations."""
        lines = [self.summary()]
        if self.reduction is not None:
            lines.append(self.reduction.describe())
        for violation in self.violations:
            lines.append("")
            lines.append(violation.render())
        return "\n".join(lines)

    def stats_signature(self) -> Dict[str, object]:
        """Everything observable about the exploration except wall-clock time.

        Used by the equivalence tests to assert this exploration and the
        reference one are bit-identical: the canonical document without the
        clock and without the reduction ledger, which describes *how* the
        search ran, not what it observed.
        """
        return self.to_dict(_STATS_SIGNATURE_EXCLUDED)

    def verdict_signature(self) -> Tuple:
        """What every sound reduction must preserve: the per-property verdict
        and the set of converged best-path assignments.

        Unlike :meth:`stats_signature` this is comparable across POR modes:
        reduced runs explore fewer states and may reach a violating state
        through a different (shorter or permuted) witness, but they must
        agree on *which properties* are violated and on the converged
        states (the SPVP deadlocks, which ample sets provably preserve).
        """
        return (
            tuple(sorted({v.property_name for v in self.violations})),
            frozenset(
                tuple(
                    sorted(
                        (node, route.path if route is not None else None)
                        for node, route in state.as_dict().items()
                    )
                )
                for state in self.converged_rpvp_states
            ),
        )


class TransientAnalyzer:
    """Breadth-first exploration of SPVP states checking transient properties."""

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
        #: Set for the duration of one analyze() call when witnesses are
        #: minimised (the replayer needs the stepper and the search root).
        self._stepper: Optional[SpvpStepper] = None
        self._root: Optional[SpvpState] = None
        #: Per-analyze() memos (the property tuple and the root are fixed for
        #: the call): (best-slot bytes, converged) -> per-property messages,
        #: and the root's described witness.
        self._messages: Dict[Tuple[bytes, bool], Tuple[Optional[str], ...]] = {}
        self._root_witness: Optional[Tuple[str, ...]] = None

    # ------------------------------------------------------------------ exploration
    def analyze(
        self,
        properties: Sequence[TransientProperty],
        initial_events: Sequence[object] = (),
    ) -> TransientAnalysisResult:
        """Explore reachable SPVP states and check ``properties`` on each.

        ``initial_events`` perturb the root before the search starts (e.g.
        ``[Converge(), FailSession("a", "b")]`` explores the transients of a
        session flap out of a steady state).
        """
        if not properties:
            raise ValueError("at least one transient property is required")
        started = time.perf_counter()
        options = self.options
        result = TransientAnalysisResult()
        reduction = ReductionStatistics(mode=options.por)
        result.reduction = reduction

        stepper = SpvpStepper(self.instance)
        # Bind the fingerprinter to the stepper's intern table: state slots
        # already hold table ids, so every Zobrist component is a dict lookup
        # keyed on (slot, id) — no route decoding or path hashing.
        hasher = ZobristFingerprinter(stepper.table)
        hasher.state_bytes_per_state = 64 + 4 * stepper.space.total_slots
        root = stepper.initial_state()
        for event in initial_events:
            root = _apply_initial_event(stepper, root, event)
        self._stepper = stepper
        self._root = root
        self._messages = {}
        self._root_witness = None
        use_priority = options.frontier == "priority"

        use_sleep = options.por in ("ample", "sleep")
        independence = ChannelIndependence(self.instance) if use_sleep else None
        selector = (
            AmpleSelector(
                self.instance,
                independence,
                rank_immunity=options.rank_immunity,
                reduction=reduction,
            )
            if options.por == "ample"
            else None
        )

        #: fingerprint -> the sleep set the state was admitted/last queued with.
        visited: Dict[int, FrozenSet[Channel]] = {root.fingerprint(hasher): EMPTY_SLEEP}
        #: Frontier entries are (state, depth, sleep set, fresh); ``fresh``
        #: is False only for the sleep-set requeues of already-counted
        #: states.  The fifo frontier is plain BFS; the priority frontier
        #: is a deepest-first heap with fewest-pending-channels tie-breaks
        #: (insertion order last, keeping the search deterministic).
        fifo: Deque[Tuple[SpvpState, int, FrozenSet[Channel], bool]] = deque()
        heap: List[Tuple[int, int, int, SpvpState, int, FrozenSet[Channel], bool]] = []
        counter = itertools.count()

        def push(state: SpvpState, depth: int, sleep: FrozenSet[Channel], fresh: bool) -> None:
            if use_priority:
                heapq.heappush(
                    heap, (-depth, len(state.pending), next(counter), state, depth, sleep, fresh)
                )
            else:
                fifo.append((state, depth, sleep, fresh))

        push(root, 0, EMPTY_SLEEP, True)
        while fifo or heap:
            if use_priority:
                _neg_depth, _key, _seq, state, depth, sleep, fresh = heapq.heappop(heap)
            else:
                state, depth, sleep, fresh = fifo.popleft()
            converged = state.is_converged()
            if fresh:
                result.states_explored += 1
                result.max_depth_reached = max(result.max_depth_reached, depth)
                if converged:
                    result.converged_states += 1
                    if options.collect_converged:
                        result.converged_rpvp_states.append(state.converged_rpvp())
                stop = self._check_state(state, converged, depth, properties, result)
                if stop:
                    break

            if converged:
                continue
            if depth >= options.max_depth:
                reduction.depth_pruned += 1
                continue

            enabled = state.pending_channels()
            reduced = False
            if selector is not None:
                choice = selector.select(state, enabled)
                expansion: List[Channel] = list(choice.channels)
                reduced = choice.reduced
            else:
                expansion = list(enabled)

            executed: List[Channel] = []
            expanded_count = 0
            index = 0
            active_sleep = sleep
            slept_here = 0
            while index < len(expansion):
                channel = expansion[index]
                index += 1
                if use_sleep and channel in active_sleep:
                    reduction.transitions_slept += 1
                    slept_here += 1
                    if (
                        use_priority
                        and index == len(expansion)
                        and expanded_count == 0
                    ):
                        # Every enabled delivery is asleep.  On a complete
                        # search the covering sibling branch gets explored
                        # eventually, but a budgeted priority descent may
                        # never reach it — and this state would become a
                        # false dead end on the only drained path.  Re-run
                        # the expansion ignoring the sleep set (sound:
                        # exploring more interleavings never loses states),
                        # and un-book the skips — those transitions are
                        # about to be expanded, not pruned.
                        reduction.sleep_fallbacks += 1
                        reduction.transitions_slept -= slept_here
                        slept_here = 0
                        active_sleep = EMPTY_SLEEP
                        index = 0
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
                    successor_sleep(independence, active_sleep, executed, channel)
                    if use_sleep
                    else EMPTY_SLEEP
                )
                executed.append(channel)
                expanded_count += 1
                fingerprint = successor.fingerprint(hasher)
                stored = visited.get(fingerprint)
                if stored is None:  # values are frozensets, never None
                    if len(visited) >= options.max_states:
                        result.truncated = True
                        break
                    visited[fingerprint] = succ_sleep
                    push(successor, depth + 1, succ_sleep, True)
                elif use_sleep:
                    merged = merged_sleep_for_requeue(stored, succ_sleep)
                    if merged is not None:
                        visited[fingerprint] = merged
                        reduction.sleep_requeues += 1
                        push(successor, depth + 1, merged, False)
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

        self._stepper = None
        self._root = None
        self._messages = {}
        self._root_witness = None
        result.elapsed_seconds = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------ helpers
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
        builds the relation and runs the checks.
        """
        key = (state.best_key(), converged)
        messages = self._messages.get(key)
        if messages is None:
            forwarding = TransientForwarding.of_state(state)
            messages = tuple(prop.check(forwarding, converged) for prop in properties)
            self._messages[key] = messages
        return messages

    def _witness_of(self, state: SpvpState) -> Tuple[str, ...]:
        """The described delivery sequence from the cold start to ``state``.

        Every state of one search descends from its root, so the root's own
        sequence (the deliveries of a ``Converge()`` drain, typically the
        bulk of a witness) is described once per ``analyze()`` and its
        strings are shared by every violation; only the few deliveries
        between the root and ``state`` are described here.
        """
        root = self._root
        suffix: List[SpvpEvent] = []
        node: Optional[SpvpState] = state
        while node is not None and node is not root:
            if node.event is not None:
                suffix.append(node.event)
            node = node.parent
        suffix.reverse()
        prefix: Tuple[str, ...] = ()
        # A chain that never met the root has been walked to its cold start:
        # ``suffix`` is then the whole sequence and there is nothing to share.
        if node is not None:
            if self._root_witness is None:
                self._root_witness = tuple(
                    event.describe() for event in root.witness_events()
                )
            prefix = self._root_witness
        return prefix + tuple(event.describe() for event in suffix)

    def _check_state(
        self,
        state: SpvpState,
        converged: bool,
        depth: int,
        properties: Sequence[TransientProperty],
        result: TransientAnalysisResult,
    ) -> bool:
        """Check every property on one state; returns True when the search should stop."""
        messages = self._messages_of(state, converged, properties)
        for prop, message in zip(properties, messages):
            if message is None:
                continue
            witness_state = state
            if self.options.minimize_witnesses and self._stepper is not None:
                from repro.transient.witness import minimize_witness

                witness_state = minimize_witness(
                    self._stepper, self._root, state, prop, message
                )
            result.violations.append(
                TransientViolation(
                    property_name=prop.name,
                    message=message,
                    depth=depth,
                    converged=converged,
                    witness=self._witness_of(witness_state),
                )
            )
            if self.options.stop_at_first_violation:
                return True
        return False


# --------------------------------------------------------------------------- engine routing
@dataclass(frozen=True)
class TransientTaskConfig:
    """The transient payload of one engine :class:`~repro.engine.graph.TaskSpec`.

    Everything a worker needs to run one transient analysis — the properties,
    the exploration budgets, the POR mode and the initial perturbation — in a
    picklable bundle, so failure-scenario transient campaigns ride the same
    pool backends and early cancellation as converged-state verification.
    """

    properties: Tuple[TransientProperty, ...]
    options: TransientOptions = field(default_factory=TransientOptions)
    initial_events: Tuple[object, ...] = ()
    #: Description of the lifecycle scenario baked into ``initial_events``
    #: (``None`` for plain failure tasks); labels the task's campaign runs.
    scenario: Optional[str] = None


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


@document(omit=("incremental",), runs=[TransientCampaignRun], errors=[TaskFailure])
@dataclass
class TransientCampaignResult:
    """All runs of one transient campaign, in task-graph order."""

    runs: List[TransientCampaignRun] = field(default_factory=list)
    failure_scenarios: int = 0
    #: Lifecycle event scenarios crossed with the failure scenarios
    #: (0 = the campaign did not enumerate event scenarios).
    event_scenarios: int = 0
    elapsed_seconds: float = 0.0
    #: Cache accounting when the campaign ran through the incremental
    #: service (:class:`repro.incremental.service.IncrementalRunStats`).
    incremental: Optional[object] = None
    #: Tasks that exhausted their retries (supervision layer): the campaign
    #: degraded to an explicitly-partial result instead of raising.
    errors: List = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Whether every campaign task produced a result (no ``errors``)."""
        return not self.errors

    @property
    def holds(self) -> bool:
        return all(run.result.holds for run in self.runs)

    @property
    def violations(self) -> List[TransientViolation]:
        collected: List[TransientViolation] = []
        for run in self.runs:
            collected.extend(run.result.violations)
        return collected

    def absorb(self, prefix, graph) -> None:
        """Fold a ledger's ordered prefix in
        (:meth:`repro.engine.aggregator.ResultAggregator.finalize`): runs in
        task-graph order, exhausted tasks as ``errors``.  The scenario
        counts cover the PECs the prefix reached — a campaign ended by its
        first violation reports what it walked, not what it was asked."""
        for _spec, outcome in prefix:
            if isinstance(outcome, TaskFailure):
                self.errors.append(outcome)
            else:
                self.runs.extend(outcome.runs)
        reached = [
            graph.campaign_scenarios[index] for index in {spec.pec_index for spec, _ in prefix}
        ]
        self.failure_scenarios = max((failures for failures, _ in reached), default=0)
        self.event_scenarios = max((events for _, events in reached), default=0)

    def summary(self) -> str:
        verdict = (
            "HOLDS" if self.holds else f"VIOLATED ({len(self.violations)} violation(s))"
        )
        if self.errors:
            verdict += f" [PARTIAL: {len(self.errors)} task(s) failed]"
        states = sum(run.result.states_explored for run in self.runs)
        truncated = sum(1 for run in self.runs if run.result.truncated)
        scenarios = (
            f" x {self.event_scenarios} event scenario(s)"
            if self.event_scenarios
            else ""
        )
        return (
            f"transient campaign: {verdict}; {len(self.runs)} run(s) over "
            f"{self.failure_scenarios} failure scenario(s){scenarios}, {states} state(s), "
            f"{truncated} truncated, {self.elapsed_seconds:.3f}s"
        )


def execute_transient_task(plankton, spec, should_cancel=None):
    """Run one transient task (the engine worker's ``kind == "transient"`` path).

    Analyses every BGP prefix of the task's PEC under the task's failure
    scenario; ``should_cancel`` is polled between prefixes so a cross-worker
    stop request takes effect mid-task.
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
    for prefix, devices in pec.bgp_origins:
        if not devices:
            continue
        if should_cancel is not None and should_cancel():
            result.cancelled = True
            break
        instance = explorer.bgp_instance(prefix)
        analyzer = TransientAnalyzer(instance, options=config.options)
        analysis = analyzer.analyze(
            config.properties, initial_events=config.initial_events
        )
        # Every BGP prefix of the PEC is analysed even after a violation
        # (each analysis already stops at its own first violation when asked
        # to): callers get one result per prefix, and stop-at-first only
        # cancels *other tasks* through the aggregator's stop flag.
        result.runs.append(
            TransientCampaignRun(
                pec_index=pec.index,
                failure=spec.failure,
                prefix=str(prefix),
                result=analysis,
                scenario=config.scenario,
            )
        )
    return result


def campaign_request(
    plankton,
    pecs: Sequence[PacketEquivalenceClass],
    properties: Sequence[TransientProperty],
    transient: TransientOptions,
    failures: Optional[Sequence[FailureScenario]] = None,
    initial_events: Sequence[object] = (),
    scenarios: Optional[Sequence[object]] = None,
):
    """One campaign over ``pecs`` as the engine sees it: the task payload,
    the task graph (one graph, PEC-major) and the engine context.

    ``transient.stop_at_first_violation`` governs *all* transient stopping —
    each per-prefix analysis, and the campaign-level cancellation of
    still-queued tasks: every task carries the flag in its payload, so
    ``PlanktonOptions.stop_at_first_violation`` (a converged-state
    verification knob) cannot cut an exhaustive campaign short.  Every
    other engine knob, supervision included, is the verifier's own.
    """
    from repro.engine import EngineContext, build_transient_task_graph

    config = TransientTaskConfig(
        properties=tuple(properties),
        options=transient,
        initial_events=tuple(initial_events),
    )
    graph = build_transient_task_graph(
        plankton.network,
        [plankton.pec_by_index(pec.index) for pec in pecs],
        plankton.options,
        config,
        failures=failures,
        scenarios=scenarios,
    )
    return config, graph, EngineContext(plankton=plankton, policies=[])


def analyze_pec_transients_over_failures(
    network: NetworkConfig,
    pec: PacketEquivalenceClass,
    properties: Sequence[TransientProperty],
    options=None,
    transient: Optional[TransientOptions] = None,
    failures: Optional[Sequence[FailureScenario]] = None,
    initial_events: Sequence[object] = (),
    scenarios: Optional[Sequence[object]] = None,
    plankton=None,
) -> TransientCampaignResult:
    """Run a transient campaign over failure scenarios through the engine.

    One engine task per (PEC, failure scenario) — the scenarios come from
    ``failures`` when given, otherwise from the §4.3 Link Equivalence Class
    reduction under ``options.max_failures`` — executed on the backend the
    :class:`~repro.core.options.PlanktonOptions` select (serial, or the
    persistent process pool with cross-worker early cancellation).

    ``scenarios`` (a sequence of :class:`repro.scenarios.Scenario` values)
    crosses every failure scenario with every lifecycle event scenario — one
    task per (failure, scenario) pair, the scenario's events appended to
    ``initial_events``.  When omitted and ``transient.scenario_events > 0``,
    the graph builder derives the scenario list with the symmetry-reduced
    k-event enumerator (:func:`repro.scenarios.enumerate_event_scenarios`).

    Early stopping follows ``transient.stop_at_first_violation`` alone (see
    :func:`campaign_request`).  Callers looping over many PECs of one
    network should pass their own ``plankton`` (a
    :class:`~repro.core.verifier.Plankton` built for ``network``) so the PEC
    partition, dependency graph and OSPF computation are built once instead
    of per call; its options then serve as the campaign options.
    """
    from repro.core.verifier import Plankton
    from repro.engine import run_graph

    started = time.perf_counter()
    if plankton is None:
        plankton = Plankton(network, options)
    elif options is not None and options is not plankton.options:
        raise ValueError("pass either plankton= or options=, not both")
    _config, graph, context = campaign_request(
        plankton,
        [pec],
        properties,
        transient or TransientOptions(),
        failures=failures,
        initial_events=initial_events,
        scenarios=scenarios,
    )
    campaign = TransientCampaignResult()
    campaign.absorb(run_graph(graph, context).finalize(), graph)
    campaign.elapsed_seconds = time.perf_counter() - started
    return campaign


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
    :func:`analyze_pec_transients_over_failures` (and therefore routes
    through the execution engine like everything else).
    """
    campaign = analyze_pec_transients_over_failures(
        network,
        pec,
        properties,
        transient=TransientOptions(max_states=max_states, max_depth=max_depth, por=por),
        failures=[failure or FailureScenario()],
        initial_events=initial_events,
    )
    return {run.prefix: run.result for run in campaign.runs}
