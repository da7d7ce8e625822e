"""Process-side execution of engine tasks.

The pre-engine parallel path rebuilt a full :class:`~repro.core.verifier.Plankton`
— recomputing every PEC, the dependency graph and the OSPF computation — for
**every** (PEC, failure) task.  Here that state is built **once per worker
process** and cached in a module-level map keyed on a fingerprint of the
network configuration.  (Today each ``verify`` call owns its pool, so the
cache amortises over the tasks of one call; the fingerprint key is what makes
worker reuse across calls safe if a future backend keeps the pool alive.)

* under the ``fork`` start method the parent stashes its live verifier in
  :data:`_INHERITED` right before the pool is created, and workers adopt it
  from the copy-on-write image — no pickling, no recomputation at all;
* under ``spawn`` (or when the parent state is unavailable) the pool
  initializer receives the pickled network/options/policies once and the
  worker builds and caches the verifier on first use.

:func:`execute_task` is the single task-execution routine shared by the
serial backend (called in-process) and the process-pool backend (called in
workers through :func:`run_task_in_worker`).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# The explorer stack arrives with this import — which is why nothing imports
# this module until a task has to run (see :mod:`repro.engine.backends`).
from repro.core.network_model import DependencyContext
from repro.core.options import PlanktonOptions
from repro.engine.graph import TaskResult, TaskSpec


@dataclass
class WorkerRuntime:
    """The per-process verification state: one verifier plus the policies."""

    plankton: "object"  # repro.core.verifier.Plankton
    policies: List


#: Fingerprint -> runtime, per process.  Lives for the life of the worker
#: process (one pool, i.e. one verify call today).
_RUNTIME_CACHE: Dict[str, WorkerRuntime] = {}

#: Runtime adopted from the parent through fork (set pre-fork by the backend).
_INHERITED: Optional[Tuple[str, WorkerRuntime]] = None

#: Cross-worker cancellation flag (a multiprocessing Event in pool workers).
_CANCEL_EVENT = None


#: Monotonic per-process counter behind :func:`fresh_pool_nonce`.
_POOL_NONCE = itertools.count()


def fresh_pool_nonce() -> str:
    """A token no two pool creations ever share (pid + process counter).

    Identity-based fallback keys (``id(network)``) are only unique while the
    objects are alive: a garbage-collected network's address can be reused
    by the next verify call, which would let a long-lived worker serve a
    stale cached runtime for a *different* network.  Folding a per-call
    nonce into every identity-keyed fingerprint makes that collision
    impossible by construction.
    """
    return f"{os.getpid()}:{next(_POOL_NONCE)}"


def network_fingerprint(network, options: PlanktonOptions, policies: Sequence) -> str:
    """A stable cache key for one (network, options, policies) combination."""
    try:
        payload = pickle.dumps((network, options, list(policies)))
    except Exception:
        # Unpicklable user policies still get a per-call key: object
        # identities, made collision-proof across calls by a fresh nonce
        # (ids alone can repeat once the old objects are garbage-collected).
        payload = repr(
            (fresh_pool_nonce(), id(network), id(options), tuple(id(p) for p in policies))
        ).encode()
    return hashlib.sha256(payload).hexdigest()


def runtime_for(
    fingerprint: str,
    network=None,
    options: Optional[PlanktonOptions] = None,
    policies: Optional[Sequence] = None,
) -> WorkerRuntime:
    """The cached runtime for ``fingerprint``, building it on first use."""
    cached = _RUNTIME_CACHE.get(fingerprint)
    if cached is not None:
        return cached
    if _INHERITED is not None and _INHERITED[0] == fingerprint:
        runtime = _INHERITED[1]
    else:
        if network is None:
            raise RuntimeError(
                f"no cached runtime for fingerprint {fingerprint[:12]} and no "
                "network to build one from (worker initialised incorrectly)"
            )
        from repro.core.verifier import Plankton

        runtime = WorkerRuntime(
            plankton=Plankton(network, options), policies=list(policies or [])
        )
    _RUNTIME_CACHE[fingerprint] = runtime
    return runtime


def initialize_worker(fingerprint: str, cancel_event, network, options, policies) -> None:
    """Pool initializer: run once per worker process.

    ``network``/``options``/``policies`` are ``None`` under fork (the worker
    adopts the parent's state); under spawn they are pickled exactly once per
    process here instead of once per task.
    """
    from repro.engine import faults

    global _CANCEL_EVENT
    _CANCEL_EVENT = cancel_event
    faults.mark_worker()  # kill faults may really SIGKILL from here on
    runtime_for(fingerprint, network=network, options=options, policies=policies)


def adopt_parent_runtime(fingerprint: str, plankton, policies: Sequence) -> None:
    """Stash the parent's live verifier for fork-started workers (pre-fork)."""
    global _INHERITED
    _INHERITED = (fingerprint, WorkerRuntime(plankton=plankton, policies=list(policies)))


def clear_parent_runtime() -> None:
    """Drop the pre-fork stash in the parent once the pool is running."""
    global _INHERITED
    _INHERITED = None


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
    fingerprint: str,
    specs: Sequence[TaskSpec],
    upstream_by_task: Dict[int, Dict[int, List]],
    attempts_by_task: Optional[Dict[int, int]] = None,
) -> List[TaskResult]:
    """Entry point executed inside pool workers: run a chunk of ready tasks.

    Chunking amortises the per-future dispatch/result round trip over several
    tasks (the per-(PEC, failure) work of scaled-down instances is a few
    milliseconds — one future each would drown in IPC).  Must stay
    module-level picklable; only the fingerprint, the specs, upstream data
    planes and attempt numbers cross the process boundary.  The cancellation
    event is checked between tasks, and a violation under the request's
    stop-at-first flag (:meth:`TaskSpec.stops_at_first_violation`) cuts the
    chunk short.

    Task attempts run guarded: an exception inside one task is captured into
    its result's ``error`` (the coordinating supervisor decides between a
    retry and a structured failure) instead of poisoning the whole chunk's
    future.  ``attempts_by_task`` carries the supervisor's attempt counters,
    which key the deterministic fault-injection schedule.
    """
    from repro.engine.supervision import run_task_guarded

    attempts_by_task = attempts_by_task or {}
    results: List[TaskResult] = []
    runtime: Optional[WorkerRuntime] = None
    for spec in specs:
        if _cancelled():
            results.append(TaskResult(task_id=spec.task_id, cancelled=True))
            continue
        if runtime is None:
            runtime = runtime_for(fingerprint)
        result = run_task_guarded(
            runtime.plankton,
            runtime.policies,
            spec,
            upstream_by_task.get(spec.task_id, {}),
            should_cancel=_cancelled,
            attempt=attempts_by_task.get(spec.task_id, 0),
        )
        results.append(result)
        if result.has_violation and spec.stops_at_first_violation(runtime.plankton.options):
            # Remaining chunk members report as cancelled; the coordinator is
            # about to broadcast the stop anyway.
            for later in specs[len(results):]:
                results.append(TaskResult(task_id=later.task_id, cancelled=True))
            break
    return results
