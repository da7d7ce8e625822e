"""Verification results: per-PEC run records and the one request result.

:class:`RequestResult` is the base of both request kinds' results,
:class:`VerificationResult` here and
:class:`repro.transient.TransientCampaignResult`; it decides the verdict.
Every class here carries its canonical document
(:func:`repro.modelcheck.trail.document`): what the incremental cache stores
and the result signatures hash.  ``as_dict`` / :mod:`repro.reporting` are the
public projections.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.modelcheck.explorer import COMPLETE, ExplorationStatistics
from repro.modelcheck.trail import Trail, document
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
    (:attr:`RequestResult.complete` is False) whose ``errors`` name
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
    #: How much the run's searches covered
    #: (:data:`~repro.modelcheck.explorer.COMPLETENESS`): the weakest of
    #: their values, or ``vacuous`` when a BGP PEC reached no converged state.
    completeness: str = COMPLETE


@dataclass(kw_only=True)
class RequestResult:
    """The result of one finished request, ``verify`` or ``transient``.

    A subclass adds its run type and its header fields; everything derived
    from the runs and the errors is computed here, once: :attr:`holds`,
    :attr:`violations`, :attr:`complete`, :attr:`conclusive`, the
    :attr:`verdict` and the :meth:`verdict_phrase` the summaries and the
    Markdown reports print.  ``absorb`` is the one fold of the engine's
    ordered prefix.
    """

    #: The request kind the result answers (the subclass's).
    kind = ""
    #: How the text and Markdown forms spell each verdict.
    VERDICT_WORDS = {
        "holds": "HOLDS",
        "violated": "VIOLATED",
        "inconclusive": "INCONCLUSIVE",
        "partial": "PARTIAL",
    }

    elapsed_seconds: float = 0.0
    #: Cache accounting when the request ran through the incremental service
    #: (:class:`repro.incremental.service.IncrementalRunStats`); None for a
    #: cold run.  Cold and warm runs of one request differ in it by design,
    #: so it is not part of the canonical document.
    incremental: Optional[object] = None
    #: Tasks that exhausted their retries: the request degraded to a partial
    #: result instead of raising.  Empty on a complete run.
    errors: List[TaskFailure] = field(default_factory=list)

    def _runs(self) -> list:
        """The runs, in task-graph order; each has ``violations`` and
        ``completeness``."""
        raise NotImplementedError

    def absorb(self, prefix) -> None:
        """Fold a ledger's ordered prefix in
        (:meth:`repro.engine.aggregator.ResultAggregator.finalize`): runs in
        task-graph order, exhausted tasks as ``errors``."""
        runs = self._runs()
        for _spec, outcome in prefix:
            if isinstance(outcome, TaskFailure):
                self.errors.append(outcome)
            else:
                runs.extend(outcome.runs)

    @property
    def violations(self) -> list:
        return [violation for run in self._runs() for violation in run.violations]

    @property
    def holds(self) -> bool:
        """No completed run found a violation (partiality is :attr:`verdict`'s)."""
        return not any(run.violations for run in self._runs())

    @property
    def complete(self) -> bool:
        """Whether every task produced a result (no ``errors``)."""
        return not self.errors

    def _incomplete_runs(self) -> Counter:
        """How many runs ended at each completeness weaker than complete."""
        return Counter(run.completeness for run in self._runs() if run.completeness != COMPLETE)

    @property
    def conclusive(self) -> bool:
        """Whether the runs can answer for the request: at least one run or
        failed task, and every run's search ``complete``.  A truncated,
        bitstate-hashed or vacuous run, or a request with nothing to search,
        can find a violation but cannot show there is none."""
        if not self._runs() and not self.errors:
            return False
        return not self._incomplete_runs()

    @property
    def verdict(self) -> str:
        """``violated``, ``inconclusive``, ``partial`` or ``holds``, the first
        that applies.  A violation beats everything (a found counterexample is
        definitive whatever the rest would have said); a search that did not
        cover its space beats failed tasks, which beat holds."""
        if not self.holds:
            return "violated"
        if not self.conclusive:
            return "inconclusive"
        return "partial" if self.errors else "holds"

    def verdict_phrase(self, markdown: bool = False) -> str:
        """The verdict as the summary (``markdown=False``) and the Markdown
        report print it: the violation count or what kept the runs from
        being conclusive, then the failed tasks."""
        words, bold = self.VERDICT_WORDS, "**" if markdown else ""
        verdict = self.verdict
        head = verdict if verdict in ("violated", "inconclusive") else "holds"
        phrase = f"{bold}{words[head]}{bold}"
        if head == "violated":
            phrase += f" ({len(self.violations)} violation(s))"
        elif head == "inconclusive":
            incomplete = self._incomplete_runs()
            phrase += " ({})".format(
                ", ".join(f"{count} run(s) {kind}" for kind, count in sorted(incomplete.items()))
                or "nothing to search"
            )
        if self.errors:
            failed = f"{len(self.errors)} task(s) failed"
            partial = words["partial"]
            phrase += f" — **{partial}** ({failed})" if markdown else f" [{partial}: {failed}]"
        return phrase

    def first_violation(self) -> Optional[Violation]:
        """The first recorded violation, if any."""
        return next(iter(self.violations), None)


@document(
    omit=("incremental",),
    policy_names=(list, list),
    pec_runs=[PecRunResult],
    errors=[TaskFailure],
)
@dataclass
class VerificationResult(RequestResult):
    """The result of a ``verify`` request: one run per (PEC, failure scenario)."""

    kind = "verify"

    policy_names: List[str]
    pec_runs: List[PecRunResult] = field(default_factory=list)
    pecs_analyzed: int = 0
    failure_scenarios: int = 0

    def _runs(self) -> List[PecRunResult]:
        return self.pec_runs

    def _statistics_total(self, name: str) -> int:
        return sum(getattr(run.statistics, name) for run in self.pec_runs if run.statistics is not None)

    @property
    def total_converged_states(self) -> int:
        return sum(run.converged_states for run in self.pec_runs)

    @property
    def total_states_expanded(self) -> int:
        return self._statistics_total("states_expanded")

    @property
    def total_unique_states(self) -> int:
        return self._statistics_total("unique_states")

    @property
    def approximate_memory_bytes(self) -> int:
        return self._statistics_total("approximate_memory_bytes")

    #: The ``/metrics`` count of states a request searched.
    states_explored = total_states_expanded

    # ``record`` and ``merge`` have no caller in the package: they are kept
    # because perf/tracing.py's TARGETS table wraps them.
    def record(self, run: PecRunResult) -> None:
        """Append one PEC run."""
        self.pec_runs.append(run)

    def merge(self, other: "VerificationResult") -> None:
        """Fold another (partial) result in: its runs and errors are
        appended; the PEC and failure-scenario counts and the wall clock are
        the larger of the two (concurrent partials overlap in time)."""
        self.pec_runs.extend(other.pec_runs)
        self.errors.extend(other.errors)
        self.pecs_analyzed = max(self.pecs_analyzed, other.pecs_analyzed)
        self.failure_scenarios = max(self.failure_scenarios, other.failure_scenarios)
        self.elapsed_seconds = max(self.elapsed_seconds, other.elapsed_seconds)

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        return (
            f"policies {', '.join(self.policy_names)}: {self.verdict_phrase()}; "
            f"{self.pecs_analyzed} PEC(s), {self.failure_scenarios} failure scenario(s), "
            f"{self.total_converged_states} converged state(s) checked, "
            f"{self.total_states_expanded} state expansions, "
            f"{self.elapsed_seconds:.3f}s"
        )
