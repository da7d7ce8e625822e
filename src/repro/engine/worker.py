"""Process-side execution of engine tasks.

The pre-engine parallel path rebuilt a full :class:`~repro.core.verifier.Plankton`
— recomputing every PEC, the dependency graph and the OSPF computation — for
**every** (PEC, failure) task.  Here that state is built **once per worker
process**: the pool initializer (:func:`initialize_worker`) sets the one
runtime a worker ever holds, and every task the worker runs reads it.  A
pool lives for one run, so there is never a second runtime to tell apart.

* under the ``fork`` start method the initializer's arguments reach the
  worker in its copy-on-write image of the parent, unpickled: the worker
  adopts the parent's live verifier — no pickling, no recomputation at
  all, and policies that cannot be pickled still run in parallel;
* under ``spawn`` the initializer receives the pickled network, options and
  policies once per process and builds the verifier from them.

:func:`execute_task` is the single task-execution routine shared by the
serial backend (called in-process) and the process-pool backend (called in
workers through :func:`run_task_batch_in_worker`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# The explorer stack arrives with this import — which is why nothing imports
# this module until a task has to run (see :mod:`repro.engine.backends`).
from repro.core.network_model import DependencyContext
from repro.engine.graph import TaskResult, TaskSpec


@dataclass
class WorkerRuntime:
    """The per-process verification state: one verifier plus the policies."""

    plankton: "object"  # repro.core.verifier.Plankton
    policies: List


#: This worker's runtime, set once by :func:`initialize_worker`.
_RUNTIME: Optional[WorkerRuntime] = None

#: Cross-worker cancellation flag (a multiprocessing Event in pool workers).
_CANCEL_EVENT = None


def initialize_worker(
    cancel_event, policies: Sequence, plankton=None, network=None, options=None
) -> None:
    """Pool initializer: run once per worker process.

    ``plankton`` is the parent's live verifier under fork; under spawn it is
    None and the worker builds its own from ``network`` and ``options``.
    """
    from repro.engine import faults

    global _CANCEL_EVENT, _RUNTIME
    _CANCEL_EVENT = cancel_event
    faults.mark_worker()  # kill faults may really SIGKILL from here on
    if plankton is None:
        from repro.core.verifier import Plankton

        plankton = Plankton(network, options)
    _RUNTIME = WorkerRuntime(plankton=plankton, policies=list(policies))


def _cancelled() -> bool:
    return _CANCEL_EVENT is not None and _CANCEL_EVENT.is_set()


# --------------------------------------------------------------------------- execution
def execute_task(
    plankton,
    policies: Sequence,
    spec: TaskSpec,
    upstream_planes: Dict[int, List],
    should_cancel: Optional[Callable[[], bool]] = None,
) -> TaskResult:
    """Run one task: explore ``spec.pec_index`` under ``spec.failure``.

    ``upstream_planes`` maps each upstream PEC index to the converged data
    planes its tasks produced; the task explores the cross product of those
    outcomes (usually a single combination).  ``should_cancel`` is polled
    between combinations so a cross-worker stop request takes effect without
    waiting for the whole task.

    Transient tasks (``spec.kind == "transient"``) carry their own payload
    and run the SPVP interleaving exploration instead of the converged-state
    policy check; everything else about scheduling, pooling and cancellation
    is shared.
    """
    if spec.kind == "transient":
        from repro.transient.explorer import execute_transient_task

        return execute_transient_task(plankton, spec, should_cancel=should_cancel)

    pec = plankton.pec_by_index(spec.pec_index)
    check_policies = list(policies) if spec.check_policies else []
    result = TaskResult(task_id=spec.task_id)

    pools: List[List[Tuple[int, object]]] = []
    for index in sorted(upstream_planes):
        planes = upstream_planes[index]
        if planes:
            pools.append([(index, plane) for plane in planes])
    combos = itertools.product(*pools) if pools else [()]

    for combo in combos:
        if should_cancel is not None and should_cancel():
            result.cancelled = True
            break
        context = DependencyContext()
        for upstream_index, plane in combo:
            context.add(plankton.pec_by_index(upstream_index), plane)
        run, outcomes = plankton.run_pec(
            pec,
            spec.failure,
            check_policies,
            context,
            collect_outcomes=spec.collect_outcomes,
        )
        result.runs.append(run)
        if spec.collect_outcomes:
            result.data_planes.extend(outcome.data_plane for outcome in outcomes)
        if run.violations and plankton.options.stop_at_first_violation:
            break
    return result


def run_task_batch_in_worker(
    specs: Sequence[TaskSpec],
    upstream_by_task: Dict[int, Dict[int, List]],
    attempts_by_task: Dict[int, int],
) -> List[TaskResult]:
    """Entry point executed inside pool workers: run a chunk of ready tasks.

    Chunking amortises the per-future dispatch/result round trip over several
    tasks (the per-(PEC, failure) work of scaled-down instances is a few
    milliseconds — one future each would drown in IPC).  Must stay
    module-level picklable; only the specs, upstream data planes and attempt
    numbers cross the process boundary.  The cancellation
    event is checked between tasks, and a violation under the request's
    stop-at-first flag (:meth:`TaskSpec.stops_at_first_violation`) cuts the
    chunk short.

    Task attempts run guarded: an exception inside one task is captured into
    its result's ``error`` (the coordinating supervisor decides between a
    retry and a structured failure) instead of poisoning the whole chunk's
    future.  ``attempts_by_task`` carries the ledger's attempt counts, which
    number each attempt and key the deterministic fault-injection schedule.
    """
    from repro.engine.supervision import run_task_guarded

    results: List[TaskResult] = []
    runtime = _RUNTIME
    for spec in specs:
        if _cancelled():
            results.append(TaskResult(task_id=spec.task_id, cancelled=True))
            continue
        result = run_task_guarded(
            runtime.plankton,
            runtime.policies,
            spec,
            upstream_by_task.get(spec.task_id, {}),
            should_cancel=_cancelled,
            attempt=attempts_by_task[spec.task_id],
        )
        results.append(result)
        if result.has_violation and spec.stops_at_first_violation(runtime.plankton.options):
            # Remaining chunk members report as cancelled; the coordinator is
            # about to broadcast the stop anyway.
            for later in specs[len(results):]:
                results.append(TaskResult(task_id=later.task_id, cancelled=True))
            break
    return results
