"""Shared supervision machinery: retry policy, guarded execution, logging.

The execution backends (:mod:`repro.engine.backends`) and the ledger
(:mod:`repro.engine.aggregator`) share the pieces of fault tolerance that
are identical on both sides of a process boundary through this module:

* :class:`SupervisionPolicy` — the retry/deadline/backoff knobs read off
  :class:`~repro.core.options.PlanktonOptions` (which owns their defaults
  and refuses negative values), plus the jittered exponential backoff
  schedule itself (deterministic per (task, attempt), so two runs of the
  same plan pace their retries identically); the ledger's
  :meth:`~repro.engine.aggregator.ResultAggregator.charge` applies it;
* :func:`run_task_guarded` — one task attempt with fault-injection hooks,
  exception capture into :class:`~repro.engine.graph.TaskError`, and
  cooperative deadline accounting (used by the serial backend in-process
  and by the pool workers via :func:`repro.engine.worker.run_task_batch_in_worker`);
* :func:`task_failure_from` / :func:`upstream_failure` — the structured
  :class:`~repro.core.results.TaskFailure` record of an exhausted task and
  the error its dependents are recorded with;
* :data:`LOG` — the ``repro.engine`` logger every engine event goes
  through (task retried / timed out / failed, pool rebuilt, backend
  fallbacks).  The CLI's ``-v`` surfaces it.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.options import PlanktonOptions
from repro.core.results import TaskFailure
from repro.engine.graph import TaskError, TaskResult, TaskSpec

#: The engine's structured event stream.  Handlers are the embedder's
#: business (the CLI attaches one under ``-v``); the library only emits.
LOG = logging.getLogger("repro.engine")


@dataclass(frozen=True)
class SupervisionPolicy:
    """The supervisor's knobs, decoupled from the full options object."""

    task_timeout: Optional[float]
    task_retries: int
    retry_backoff: float
    retry_backoff_cap: float
    max_pool_rebuilds: int

    @staticmethod
    def from_options(options: PlanktonOptions) -> "SupervisionPolicy":
        return SupervisionPolicy(
            *(getattr(options, knob.name) for knob in fields(SupervisionPolicy))
        )

    def backoff_delay(self, task_id: int, attempt: int) -> float:
        """The jittered exponential delay before retry ``attempt`` (>= 1).

        Deterministic per (task, attempt): the jitter comes from a hash of
        the pair, not global RNG state, so identical runs pace identically
        while concurrent retries of different tasks still decorrelate.
        """
        if attempt <= 0 or self.retry_backoff <= 0.0:
            return 0.0
        nominal = min(self.retry_backoff_cap, self.retry_backoff * (2 ** (attempt - 1)))
        jitter = random.Random((task_id << 16) ^ attempt).uniform(0.5, 1.0)
        return nominal * jitter

    def deadline_from(self, started: float, tasks: int = 1) -> Optional[float]:
        """The absolute monotonic deadline of a batch started at ``started``."""
        if self.task_timeout is None:
            return None
        return started + self.task_timeout * max(1, tasks)


def run_task_guarded(
    plankton,
    policies: Sequence,
    spec: TaskSpec,
    upstream_planes: Dict[int, List],
    should_cancel: Optional[Callable[[], bool]] = None,
    deadline: Optional[float] = None,
    attempt: int = 0,
) -> TaskResult:
    """Run one task attempt; never raises for task-level failures.

    Wraps :func:`repro.engine.worker.execute_task` with the fault-injection
    hook, exception capture and (when ``deadline`` is given) a cooperative
    deadline folded into the cancellation callback.  The returned result
    carries ``error`` instead of runs when the attempt failed; deciding
    between retry and a structured failure is the caller's job.
    """
    from repro.engine import faults
    from repro.engine.worker import execute_task

    timed_out = False

    def cancel() -> bool:
        nonlocal timed_out
        if deadline is not None and time.monotonic() >= deadline:
            timed_out = True
            return True
        return should_cancel() if should_cancel is not None else False

    try:
        faults.fire(spec.task_id, attempt, cancel)
        result = execute_task(plankton, policies, spec, upstream_planes, should_cancel=cancel)
    except Exception as exc:
        return TaskResult(task_id=spec.task_id, error=TaskError.from_exception(exc))
    if timed_out and not (should_cancel is not None and should_cancel()):
        # The deadline (not an external stop) cut the attempt short: the
        # partial runs are unusable, report a timeout instead.
        return TaskResult(
            task_id=spec.task_id,
            error=TaskError(kind="timeout", message=f"task exceeded its {spec.kind} deadline"),
        )
    return result


def task_failure_from(spec: TaskSpec, error: TaskError, attempts: int) -> TaskFailure:
    """The structured ``errors``-section record of one exhausted task."""
    links = ", ".join(str(link) for link in spec.failure.failed_links) or "none"
    return TaskFailure(
        task_id=spec.task_id,
        pec_index=spec.pec_index,
        failure_description=links,
        kind=error.kind,
        message=error.message,
        attempts=attempts,
        task_kind=spec.kind,
    )


def upstream_failure(dependency_id: int) -> TaskError:
    """The error recorded on tasks whose upstream dependency failed."""
    return TaskError(
        kind="upstream",
        message=f"upstream task {dependency_id} failed; this task never ran",
    )
