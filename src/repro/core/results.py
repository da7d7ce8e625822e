"""Verification results: per-PEC run records and the aggregated verdict.

Every class here carries its canonical document
(:func:`repro.modelcheck.trail.document`): what the incremental cache stores
and the result signatures hash.  ``as_dict`` / :mod:`repro.reporting` are the
public projections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dataplane import DataPlane
from repro.modelcheck.explorer import ExplorationStatistics
from repro.modelcheck.trail import Trail, document
from repro.pec.classes import PacketEquivalenceClass
from repro.topology.failures import FailureScenario


@document(trail=Trail)
@dataclass
class Violation:
    """One policy violation: which policy, where, and how to reproduce it."""

    policy: str
    pec_index: int
    pec_description: str
    failure_description: str
    message: str
    trail: Optional[Trail] = None

    def render(self) -> str:
        lines = [
            f"policy    : {self.policy}",
            f"PEC       : {self.pec_description}",
            f"failures  : {self.failure_description}",
            f"violation : {self.message}",
        ]
        if self.trail is not None and len(self.trail):
            lines.append(self.trail.render())
        return "\n".join(lines)


@document()
@dataclass
class TaskFailure:
    """One engine task that exhausted its retries (the ``errors`` section).

    A failed task never aborts a verify: the supervisor records this
    structured entry and the run degrades to a *partial* result
    (:attr:`VerificationResult.complete` is False) whose ``errors`` name
    exactly the tasks that produced no runs.

    ``kind`` mirrors :class:`repro.engine.graph.TaskError`: ``"exception"``,
    ``"timeout"``, ``"crash"`` or ``"upstream"``.
    """

    task_id: int
    pec_index: int
    failure_description: str
    kind: str
    message: str
    attempts: int
    task_kind: str = "verify"

    def render(self) -> str:
        return (
            f"task error : {self.kind} after {self.attempts} attempt(s)\n"
            f"task       : #{self.task_id} ({self.task_kind}, PEC {self.pec_index}, "
            f"failures {self.failure_description})\n"
            f"message    : {self.message}"
        )

    def as_dict(self) -> Dict[str, object]:
        """The report form: the canonical document, the failure scenario
        under the key the violation documents use."""
        return {
            ("failures" if name == "failure_description" else name): value
            for name, value in self.to_dict().items()
        }


@document(
    failure=FailureScenario,
    violations=[Violation],
    statistics=ExplorationStatistics,
    data_planes=[DataPlane],
)
@dataclass
class PecRunResult:
    """Outcome of analysing one PEC under one failure scenario."""

    pec_index: int
    failure: FailureScenario
    converged_states: int = 0
    checked_states: int = 0
    suppressed_states: int = 0
    violations: List[Violation] = field(default_factory=list)
    statistics: Optional[ExplorationStatistics] = None
    data_planes: List[DataPlane] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return not self.violations


# ``incremental`` is the serving layer's accounting of how the result was
# obtained (cold and warm runs of one request differ in it by design).
@document(
    omit=("incremental",),
    policy_names=(list, list),
    violations=[Violation],
    pec_runs=[PecRunResult],
    errors=[TaskFailure],
)
@dataclass
class VerificationResult:
    """The aggregated result of a verification task."""

    policy_names: List[str]
    holds: bool = True
    violations: List[Violation] = field(default_factory=list)
    pec_runs: List[PecRunResult] = field(default_factory=list)
    pecs_analyzed: int = 0
    failure_scenarios: int = 0
    elapsed_seconds: float = 0.0

    # Aggregate statistics across all explorations.
    total_states_expanded: int = 0
    total_unique_states: int = 0
    total_converged_states: int = 0
    approximate_memory_bytes: int = 0

    #: Populated by the incremental re-verification service
    #: (:class:`repro.incremental.service.IncrementalRunStats`): cache-hit /
    #: recompute accounting for this run.  None for cold ``Plankton.verify``.
    incremental: Optional[object] = None

    #: Tasks that exhausted their retries: the verify degraded to a partial
    #: result instead of raising.  Empty on a complete run.
    errors: List[TaskFailure] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Whether every expanded task produced a result (no ``errors``)."""
        return not self.errors

    def record(self, run: PecRunResult) -> None:
        """Fold one PEC run into the aggregate."""
        self.pec_runs.append(run)
        self.violations.extend(run.violations)
        if run.violations:
            self.holds = False
        self.total_converged_states += run.converged_states
        if run.statistics is not None:
            self.total_states_expanded += run.statistics.states_expanded
            self.total_unique_states += run.statistics.unique_states
            self.approximate_memory_bytes += run.statistics.approximate_memory_bytes

    def absorb(self, prefix) -> None:
        """Fold a ledger's ordered prefix in
        (:meth:`repro.engine.aggregator.ResultAggregator.finalize`): runs
        are recorded in task-graph order, exhausted tasks become ``errors``."""
        for _spec, outcome in prefix:
            if isinstance(outcome, TaskFailure):
                self.errors.append(outcome)
            else:
                for run in outcome.runs:
                    self.record(run)

    def merge(self, other: "VerificationResult") -> None:
        """Fold another (partial) result into this one.

        Run lists and violations are concatenated in the order given, state
        counters are summed, and the verdict holds only if both hold.
        Wall-clock fields are *not* summed — partials produced by concurrent
        workers overlap in time, so the longer of the two is kept and the
        coordinator's own clock remains authoritative.  ``pecs_analyzed``
        and ``failure_scenarios`` are sized by the coordinator up front, so
        the larger value wins as well.
        """
        self.pec_runs.extend(other.pec_runs)
        self.violations.extend(other.violations)
        self.errors.extend(other.errors)
        self.holds = self.holds and other.holds
        self.pecs_analyzed = max(self.pecs_analyzed, other.pecs_analyzed)
        self.failure_scenarios = max(self.failure_scenarios, other.failure_scenarios)
        self.elapsed_seconds = max(self.elapsed_seconds, other.elapsed_seconds)
        self.total_states_expanded += other.total_states_expanded
        self.total_unique_states += other.total_unique_states
        self.total_converged_states += other.total_converged_states
        self.approximate_memory_bytes += other.approximate_memory_bytes

    def first_violation(self) -> Optional[Violation]:
        """The first recorded violation, if any."""
        return self.violations[0] if self.violations else None

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        verdict = "HOLDS" if self.holds else f"VIOLATED ({len(self.violations)} violation(s))"
        if self.errors:
            verdict += f" [PARTIAL: {len(self.errors)} task(s) failed]"
        return (
            f"policies {', '.join(self.policy_names)}: {verdict}; "
            f"{self.pecs_analyzed} PEC(s), {self.failure_scenarios} failure scenario(s), "
            f"{self.total_converged_states} converged state(s) checked, "
            f"{self.total_states_expanded} state expansions, "
            f"{self.elapsed_seconds:.3f}s"
        )
