"""The ledger of one task graph: who has finished, with what, and what is left.

:class:`ResultAggregator` holds one outcome per task id — the task's
:class:`~repro.engine.graph.TaskResult`, or the
:class:`~repro.core.results.TaskFailure` of a task that exhausted its
retries — and is the single owner of three decisions every request shares,
whatever the task kind:

* **what still has to run** (:meth:`pending`): every task without an
  outcome, in graph order, up to the first task whose result carries a
  violation while the request stops at the first violation.  A result
  served from the incremental cache is simply a task that finished before
  the run started: it enters through ``known``, is never executed again,
  and a *known* violation ends the walk exactly as a fresh one does;
* **what dependents read** (:meth:`upstream_planes`): the converged data
  planes of a task's dependencies, from known and freshly recorded results
  alike;
* **what the verdict is built from** (:meth:`finalize`): the *ordered
  prefix* — the outcomes in graph order up to and including the first
  violating task.  It does not depend on completion order, so the serial
  walk and the process pool fold to the same result under early stop too.

It also keeps the books of a task that fails: :attr:`attempts` is the one
count of failed attempts per task, read by whichever backend runs the next
attempt — so a task the pool charged a crash resumes on the serial walk at
its next attempt, not at its first — and :meth:`charge` is the one
retry-or-fail rule.  A task past its retry budget is recorded by
:meth:`record_failure`, which records every transitive dependent as an
``"upstream"`` failure in the same step: a backend never meets a task whose
dependency failed, because that task is no longer pending.

``stop_requested`` is the cross-worker cancellation flag: it rises when a
violation is recorded under stop-at-first, and the pool backend polls it to
cancel queued and in-flight work.  A racing stop can leave gaps *before*
the first violating task; the pool closes them by finishing on the serial
walk, which is :meth:`pending` consumed one task at a time.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.core.options import PlanktonOptions
from repro.core.results import TaskFailure
from repro.engine.graph import TaskError, TaskGraph, TaskResult, TaskSpec
from repro.engine.supervision import (
    LOG,
    SupervisionPolicy,
    task_failure_from,
    upstream_failure,
)

Outcome = Union[TaskResult, TaskFailure]


class ResultAggregator:
    """One outcome per task of a graph; see the module docstring."""

    def __init__(
        self,
        graph: TaskGraph,
        options: PlanktonOptions,
        known: Optional[Dict[int, TaskResult]] = None,
        keep_planes: bool = False,
    ) -> None:
        self._graph = graph
        self._options = options
        self._outcomes: Dict[int, Outcome] = dict(known or {})
        #: Failed attempts charged per task (absent = none yet).
        self.attempts: Dict[int, int] = {}
        #: Converged data planes are only needed until every dependent task
        #: has consumed them; without ``keep_planes`` (the incremental
        #: service still has to encode them into its cache) they are dropped
        #: then, so a large scenario enumeration doesn't pin every upstream
        #: data plane for the whole run.
        self._keep_planes = keep_planes
        self._unrecorded_dependents: Dict[int, int] = {}
        for task in graph.tasks:
            if task.task_id not in self._outcomes:
                for dependency_id in task.depends_on:
                    self._unrecorded_dependents[dependency_id] = (
                        self._unrecorded_dependents.get(dependency_id, 0) + 1
                    )
        self.stop_requested = False
        #: The tasks a run has to schedule, fixed before anything ran: the
        #: tasks not in ``known`` that precede the first known violation.
        self.planned: List[TaskSpec] = list(self.pending())

    # ------------------------------------------------------------------ intake
    def record(self, result: TaskResult) -> None:
        """Enter one completed task (any order; backends record from a
        single thread)."""
        self._outcomes[result.task_id] = result
        spec = self._graph.tasks[result.task_id]
        self._drop_consumed_planes(result.task_id)
        self._release_consumed_planes(spec)
        if self._ends_request(spec, result):
            self.stop_requested = True

    def charge(
        self, spec: TaskSpec, error: TaskError, policy: SupervisionPolicy
    ) -> Optional[float]:
        """Charge one failed attempt of ``spec``: the backoff before its
        retry, or None when the task has an outcome now (that was its last
        attempt, and the failure is recorded) or already had one."""
        if spec.task_id in self._outcomes:
            return None
        attempt = self.attempts[spec.task_id] = self.attempts.get(spec.task_id, 0) + 1
        if attempt > policy.task_retries:
            LOG.error(
                "engine: task %d failed permanently after %d attempt(s): %s: %s",
                spec.task_id,
                attempt,
                error.kind,
                error.message,
            )
            self.record_failure(spec, error, attempt)
            return None
        delay = policy.backoff_delay(spec.task_id, attempt)
        LOG.warning(
            "engine: task %d retried (attempt %d/%d) after %s: %s; backoff %.3fs",
            spec.task_id,
            attempt + 1,
            policy.task_retries + 1,
            error.kind,
            error.message,
            delay,
        )
        return delay

    def record_failure(self, spec: TaskSpec, error: TaskError, attempts: int) -> None:
        """Enter one task that exhausted its retries, and every task that
        (transitively) depends on it as an ``"upstream"`` failure.

        The failures become entries of the final result's ``errors``
        section; the run degrades to a partial result instead of raising.
        Dependents come later in graph order, so one forward sweep finds
        them all.
        """
        self._fail(spec, error, attempts)
        failed = {spec.task_id}
        for dependent in self._graph.tasks[spec.task_id + 1 :]:
            cause = next((d for d in dependent.depends_on if d in failed), None)
            if cause is None or dependent.task_id in self._outcomes:
                continue
            LOG.error(
                "engine: task %d skipped: upstream task %d failed", dependent.task_id, cause
            )
            self._fail(dependent, upstream_failure(cause), 0)
            failed.add(dependent.task_id)

    def _fail(self, spec: TaskSpec, error: TaskError, attempts: int) -> None:
        self._outcomes[spec.task_id] = task_failure_from(spec, error, attempts)
        self._release_consumed_planes(spec)

    def _release_consumed_planes(self, spec: TaskSpec) -> None:
        """``spec`` has recorded: its upstreams have one dependent fewer to serve."""
        for dependency_id in spec.depends_on:
            self._unrecorded_dependents[dependency_id] = (
                self._unrecorded_dependents.get(dependency_id, 0) - 1
            )
            self._drop_consumed_planes(dependency_id)

    def _drop_consumed_planes(self, task_id: int) -> None:
        """Free a task's data planes once no unrecorded dependent is left."""
        outcome = self._outcomes.get(task_id)
        if (
            not self._keep_planes
            and isinstance(outcome, TaskResult)
            and self._unrecorded_dependents.get(task_id, 0) <= 0
        ):
            outcome.data_planes = []

    # ------------------------------------------------------------------ queries
    def has_result(self, task_id: int) -> bool:
        """Whether the task has an outcome (a result or a structured failure)."""
        return task_id in self._outcomes

    def result(self, task_id: int) -> Optional[Outcome]:
        """The task's outcome, or None while it has none."""
        return self._outcomes.get(task_id)

    def upstream_planes(self, spec: TaskSpec) -> Dict[int, List]:
        """The converged data planes ``spec`` consumes, keyed by PEC index.

        Tasks whose dependencies produced no outcomes get an empty list for
        that upstream (the combination pool skips it, matching the
        pre-engine dependency path).
        """
        planes: Dict[int, List] = {}
        for dependency_id in spec.depends_on:
            upstream = self._outcomes.get(dependency_id)
            planes.setdefault(self._graph.tasks[dependency_id].pec_index, []).extend(
                upstream.data_planes if isinstance(upstream, TaskResult) else []
            )
        return planes

    def _ends_request(self, spec: TaskSpec, outcome: Optional[Outcome]) -> bool:
        return (
            isinstance(outcome, TaskResult)
            and outcome.has_violation
            and spec.stops_at_first_violation(self._options)
        )

    # ------------------------------------------------------------------ the ordered walk
    def pending(self) -> Iterator[TaskSpec]:
        """The tasks still to run, in graph order, against the live ledger.

        Yields every task without an outcome and returns after the first
        task whose result ends the request — consumed lazily (the serial
        backend runs each yielded task before asking for the next) it *is*
        the serial walk; consumed at once it is the set a pool may dispatch.
        """
        for spec in self._graph.tasks:
            if spec.task_id not in self._outcomes:
                yield spec
            if self._ends_request(spec, self._outcomes.get(spec.task_id)):
                return

    def finalize(self) -> List[Tuple[TaskSpec, Outcome]]:
        """The ordered prefix: ``(spec, outcome)`` in graph order, up to and
        including the first task whose result ends the request.  Result
        classes fold it with their ``absorb``."""
        prefix: List[Tuple[TaskSpec, Outcome]] = []
        for spec in self._graph.tasks:
            outcome = self._outcomes.get(spec.task_id)
            if outcome is not None:
                prefix.append((spec, outcome))
            if self._ends_request(spec, outcome):
                break
        return prefix
