"""Execution backends: one interface, serial and supervised process-pool.

A backend executes the tasks a :class:`ResultAggregator` ledger still
:meth:`~ResultAggregator.pending`, honouring dependency edges; tasks the
ledger already holds an outcome for (results served from the incremental
cache) are never run, and nothing runs past a known violation.
:func:`run_graph` is the one entry point: graph, context, known results in,
ledger out.  The serial backend walks the pending tasks in the graph's
topological order in the calling process; the process-pool backend keeps a
pool of **persistent** workers (state built once per process, see
:mod:`repro.engine.worker`), dispatches every task whose dependencies are
satisfied, broadcasts a cancellation event the moment the ledger requests a
stop — which is how ``stop_at_first_violation`` composes with
multiprocessing — and then finishes on the serial walk, which closes
whatever gaps the racing stop left before the first violation: both
backends leave the same ordered prefix behind.

Both backends run under **supervision** (:mod:`repro.engine.supervision`):

* a task attempt that raises is captured into a structured
  :class:`~repro.engine.graph.TaskError` and retried with jittered
  exponential backoff, up to :attr:`PlanktonOptions.task_retries` times;
* with :attr:`PlanktonOptions.task_timeout` set, an attempt that overruns
  its deadline is killed (preemptively on the pool backend — the worker
  processes are terminated and the pool rebuilt; cooperatively on the
  serial backend) and charged as a timeout;
* an abrupt worker death (OOM killer, SIGKILL) breaks the pool: the
  supervisor rebuilds it, charges a crash attempt to every in-flight task
  and re-runs them; after :attr:`PlanktonOptions.max_pool_rebuilds`
  crash-triggered rebuilds the remaining tasks finish on the serial
  backend;
* a task that exhausts its retries is recorded as a structured failure
  (the result's ``errors`` section) — with its dependent tasks cascaded as
  ``"upstream"`` failures — instead of aborting the verify.

Every supervision event (retry, timeout, crash, rebuild, fallback, failure)
is emitted on the ``repro.engine`` logger; the CLI surfaces it with ``-v``.
Only genuine *pickling* failures (an unpicklable user policy or task payload
under a spawn start method) still degrade the whole run to the serial
backend.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Sized

from repro.core.options import BACKEND_CHOICES, PlanktonOptions
from repro.engine.aggregator import ResultAggregator
from repro.engine.graph import TaskError, TaskGraph, TaskResult, TaskSpec
from repro.engine.supervision import (
    LOG,
    SupervisionPolicy,
    run_task_guarded,
    upstream_failure,
)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

# What only a process pool needs — ``multiprocessing``, ``concurrent.futures``,
# ``pickle`` and :mod:`repro.engine.worker`, which brings the explorer stack
# with it — is imported by the :class:`ProcessPoolBackend` methods that run
# once per pool, never at module level: a request answered from the cache, or
# run serially, does not load it.  Importing the worker module in the
# coordinating process, before the pool forks, is also what lets every worker
# inherit the explorer stack instead of importing it again.


@dataclass
class EngineContext:
    """Everything a backend needs besides the graph: the coordinator's own
    verifier (for in-process execution and fork inheritance), the policies
    being checked, and an optional options override (transient campaigns
    carry their own supervision knobs without rebuilding the verifier)."""

    plankton: object
    policies: List = field(default_factory=list)
    options_override: Optional[PlanktonOptions] = None

    @property
    def options(self) -> PlanktonOptions:
        if self.options_override is not None:
            return self.options_override
        return self.plankton.options


class ExecutionBackend:
    """Interface: run the ledger's pending tasks of ``graph``, recording
    every outcome into ``aggregator``."""

    name = "abstract"

    def execute(
        self, graph: TaskGraph, context: EngineContext, aggregator: ResultAggregator
    ) -> None:
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """In-process execution in topological (graph) order, supervised.

    Runs :meth:`ResultAggregator.pending` one task at a time: tasks run
    front to back, tasks the ledger already has are passed over, and the
    first violation (under ``stop_at_first_violation``) — fresh or already
    in the ledger — ends the walk.  A failing task is retried with backoff
    and, on exhaustion, recorded as a structured failure (its dependents
    cascade) instead of raising.  Deadlines are cooperative here — they are
    polled between exploration steps, so a task hung inside non-cooperative
    code needs the process backend's preemptive enforcement.

    Because the walk only ever looks at the ledger, it is also how the
    process backend finishes: after a crash-budget or pickling fallback,
    and after an early stop whose cancellation raced tasks *before* the
    first violation.
    """

    name = "serial"

    def execute(
        self, graph: TaskGraph, context: EngineContext, aggregator: ResultAggregator
    ) -> None:
        policy = SupervisionPolicy.from_options(context.options)
        for spec in aggregator.pending():
            failed_dependency = next(
                (d for d in spec.depends_on if d in aggregator.failed_tasks), None
            )
            if failed_dependency is not None:
                LOG.error(
                    "engine: task %d skipped: upstream task %d failed",
                    spec.task_id,
                    failed_dependency,
                )
                aggregator.record_failure(spec, upstream_failure(failed_dependency), 0)
                continue
            result = self._run_supervised(spec, context, aggregator, policy)
            if result is not None:
                aggregator.record(result)

    def _run_supervised(
        self,
        spec: TaskSpec,
        context: EngineContext,
        aggregator,
        policy: SupervisionPolicy,
    ):
        """One task through the retry loop; None when it exhausted retries."""
        attempt = 0
        while True:
            deadline = policy.deadline_from(time.monotonic())
            LOG.debug("engine: task %d started (attempt %d)", spec.task_id, attempt + 1)
            result = run_task_guarded(
                context.plankton,
                context.policies,
                spec,
                aggregator.upstream_planes(spec),
                deadline=deadline,
                attempt=attempt,
            )
            if result.error is None:
                return result
            attempt += 1
            if attempt > policy.task_retries:
                LOG.error(
                    "engine: task %d failed permanently after %d attempt(s): %s: %s",
                    spec.task_id,
                    attempt,
                    result.error.kind,
                    result.error.message,
                )
                aggregator.record_failure(spec, result.error, attempt)
                return None
            delay = policy.backoff_delay(spec.task_id, attempt)
            LOG.warning(
                "engine: task %d retried (attempt %d/%d) after %s: %s; backoff %.3fs",
                spec.task_id,
                attempt + 1,
                policy.task_retries + 1,
                result.error.kind,
                result.error.message,
                delay,
            )
            if delay > 0.0:
                time.sleep(delay)


# --------------------------------------------------------------------------- process pool
@dataclass
class _Batch:
    """Supervisor-side bookkeeping of one submitted future."""

    task_ids: List[int]
    submitted_at: float
    deadline: Optional[float]


class ProcessPoolBackend(ExecutionBackend):
    """Persistent-pool execution with streaming aggregation and supervision.

    Workers initialise the network model, PECs and OSPF computation once per
    process (inherited for free under ``fork``); tasks carry only a PEC
    index, a failure scenario and upstream data planes.  Ready tasks are
    dispatched as soon as their dependencies complete, so independent SCC
    members of a dependency schedule overlap across workers.

    The supervision loop (see the module docstring) makes one misbehaving
    task unable to take the run down: worker crashes rebuild the pool and
    re-run the lost in-flight tasks, deadline overruns kill the hung worker,
    failed attempts retry with backoff, exhausted tasks degrade the verify
    to an explicitly-partial result.
    """

    name = "process"

    def __init__(self, cores: int) -> None:
        self.cores = max(1, cores)

    # ------------------------------------------------------------------ entry
    def execute(
        self, graph: TaskGraph, context: EngineContext, aggregator: ResultAggregator
    ) -> None:
        import pickle

        mp_context = self._mp_context()
        use_fork = mp_context.get_start_method() == "fork"
        if not use_fork and not self._initargs_picklable(context):
            LOG.warning(
                "engine: policies or network are not picklable under the "
                "'%s' start method; falling back to the serial backend",
                mp_context.get_start_method(),
            )
        else:
            try:
                self._execute_pool(graph, context, aggregator, mp_context, use_fork)
            except pickle.PicklingError as exc:
                # A task payload or result refused to pickle: degrade
                # gracefully, but say so — and let every other exception
                # propagate.
                LOG.warning(
                    "engine: parallel execution failed to pickle (%s); "
                    "completing remaining tasks on the serial backend",
                    exc,
                )
        # Whatever the pool left pending — everything after a fallback, tasks
        # cancelled ahead of the first violation by an early stop — finishes
        # on the serial walk; after a clean run there is nothing.
        if next(aggregator.pending(), None) is not None:
            SerialBackend().execute(graph, context, aggregator)

    # ------------------------------------------------------------------ helpers
    @staticmethod
    def _mp_context():
        import multiprocessing

        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            return multiprocessing.get_context()

    @staticmethod
    def _initargs_picklable(context: EngineContext) -> bool:
        import pickle

        try:
            pickle.dumps((context.plankton.network, context.options, context.policies))
            return True
        except Exception:
            return False

    @staticmethod
    def _new_pool(workers: int, mp_context, initargs) -> ProcessPoolExecutor:
        from concurrent.futures import ProcessPoolExecutor

        from repro.engine.worker import initialize_worker

        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=mp_context,
            initializer=initialize_worker,
            initargs=initargs,
        )

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Terminate a pool's workers and abandon it (hung or broken pools).

        ``shutdown`` alone would join workers that may never return (a hung
        task has no cooperative exit), so the processes are terminated
        first.  Uses the executor's private process map — there is no public
        API for force-stopping a pool — defensively, so a CPython layout
        change degrades to a plain shutdown rather than an error.
        """
        processes = list(getattr(pool, "_processes", {}).values())
        for process in processes:
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead process races
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - broken executor races
            pass

    @staticmethod
    def _drain_after_stop(inflight: Dict, aggregator, cancel_event, policy) -> bool:
        """Collect what in-flight work returns after an early stop.

        A verdict already exists, so errors from this abandoned work are
        logged rather than raised; with a task deadline configured, a hung
        straggler is given one deadline's grace and then abandoned.  Returns
        True when every future was collected cleanly (the pool can be shut
        down gracefully), False when something was left running and the
        caller must kill the pool instead of joining it.
        """
        from concurrent.futures import TimeoutError as FutureTimeoutError

        cancel_event.set()
        for future in list(inflight):
            future.cancel()
        clean = True
        for future, batch in list(inflight.items()):
            if future.cancelled():
                continue
            try:
                results = future.result(timeout=policy.task_timeout)
            except FutureTimeoutError:
                LOG.warning(
                    "engine: in-flight tasks %s still running %.1fs after an "
                    "early stop; abandoning them",
                    batch.task_ids,
                    policy.task_timeout,
                )
                clean = False
                continue
            except Exception as exc:
                LOG.warning("engine: in-flight task failed during early stop: %s", exc)
                continue
            for result in results:
                if not result.cancelled and result.error is None:
                    aggregator.record(result)
        inflight.clear()
        return clean

    # ------------------------------------------------------------------ pool run
    def _execute_pool(
        self,
        graph: TaskGraph,
        context: EngineContext,
        aggregator: ResultAggregator,
        mp_context,
        use_fork: bool,
    ) -> None:
        from concurrent import futures

        from repro.engine.worker import (
            adopt_parent_runtime,
            clear_parent_runtime,
            fresh_pool_nonce,
            network_fingerprint,
            run_task_batch_in_worker,
        )

        policy = SupervisionPolicy.from_options(context.options)
        cancel_event = mp_context.Event()
        if use_fork:
            # Workers adopt the parent's live verifier through the fork image;
            # nothing is pickled, so an identity-based key avoids a full
            # pickle pass over the network just to name the cache entry.  The
            # nonce makes the key unique per pool creation — a recycled
            # object address can never alias a previous call's runtime.
            fingerprint = f"fork:{fresh_pool_nonce()}:{id(context.plankton):x}"
            adopt_parent_runtime(fingerprint, context.plankton, context.policies)
            initargs = (fingerprint, cancel_event, None, None, None)
        else:  # pragma: no cover - exercised only on non-fork platforms
            fingerprint = network_fingerprint(
                context.plankton.network, context.options, context.policies
            )
            initargs = (
                fingerprint,
                cancel_event,
                context.plankton.network,
                context.options,
                context.policies,
            )

        pending = [spec.task_id for spec in aggregator.pending()]
        workers = max(1, min(self.cores, len(pending)))
        # Recorded or failed — seeded from the ledger with everything that is
        # not this run's to do: tasks it already holds an outcome for and
        # tasks past a known violation.
        resolved: Set[int] = {task.task_id for task in graph.tasks} - set(pending)
        remaining_deps: Dict[int, Set[int]] = {
            task_id: set(graph.tasks[task_id].depends_on) - resolved for task_id in pending
        }
        dependents = graph.dependents()
        ready: List[int] = [task_id for task_id in pending if not remaining_deps[task_id]]
        attempts: Dict[int, int] = {}
        retry_heap: List = []  # (release time, task id)
        inflight: Dict = {}  # future -> _Batch
        crash_rebuilds = 0
        pool_is_clean = True

        pool = self._new_pool(workers, mp_context, initargs)

        # -------------------------------------------------------- bookkeeping
        def release_dependents(task_id: int) -> None:
            for dependent_id in dependents.get(task_id, ()):
                if dependent_id in resolved:
                    continue
                deps = remaining_deps[dependent_id]
                deps.discard(task_id)
                if not deps and not aggregator.stop_requested:
                    ready.append(dependent_id)

        def fail_task(task_id: int, error: TaskError) -> None:
            spec = graph.tasks[task_id]
            charged = max(1, attempts.get(task_id, 0))
            LOG.error(
                "engine: task %d failed permanently after %d attempt(s): %s: %s",
                task_id,
                charged,
                error.kind,
                error.message,
            )
            aggregator.record_failure(spec, error, charged)
            resolved.add(task_id)
            # Cascade: dependents (transitively) can never run.
            stack = list(dependents.get(task_id, ()))
            while stack:
                dependent_id = stack.pop()
                if dependent_id in resolved:
                    continue
                LOG.error(
                    "engine: task %d skipped: upstream task %d failed",
                    dependent_id,
                    task_id,
                )
                aggregator.record_failure(
                    graph.tasks[dependent_id], upstream_failure(task_id), 0
                )
                resolved.add(dependent_id)
                stack.extend(dependents.get(dependent_id, ()))

        def charge_attempt(task_id: int, error: TaskError) -> None:
            """A failed attempt: schedule a backoff retry or fail the task."""
            if task_id in resolved:
                return
            attempts[task_id] = attempts.get(task_id, 0) + 1
            charged = attempts[task_id]
            if charged > policy.task_retries:
                fail_task(task_id, error)
                return
            delay = policy.backoff_delay(task_id, charged)
            LOG.warning(
                "engine: task %d retried (attempt %d/%d) after %s: %s; backoff %.3fs",
                task_id,
                charged + 1,
                policy.task_retries + 1,
                error.kind,
                error.message,
                delay,
            )
            heapq.heappush(retry_heap, (time.monotonic() + delay, task_id))

        def requeue_free(task_id: int) -> None:
            """Requeue in-flight work lost to *someone else's* fault without
            charging an attempt (its own faults are charged directly)."""
            if task_id not in resolved:
                ready.append(task_id)

        def submit_ready() -> None:
            """Dispatch every ready task, chunked so each worker gets a few
            futures' worth of work per round trip (one future per task would
            drown scaled-down instances in IPC).  Under a task deadline the
            chunk size is 1: timeout attribution and prompt detection beat
            IPC amortisation."""
            if not ready:
                return
            batch = sorted(set(ready))
            ready.clear()
            if policy.task_timeout is not None:
                chunk_size = 1
            else:
                chunk_size = max(1, -(-len(batch) // (workers * 4)))
            for start in range(0, len(batch), chunk_size):
                chunk_ids = batch[start : start + chunk_size]
                chunk = [graph.tasks[tid] for tid in chunk_ids]
                upstream = {
                    spec.task_id: aggregator.upstream_planes(spec)
                    for spec in chunk
                    if spec.depends_on
                }
                attempt_map = {
                    tid: attempts[tid] for tid in chunk_ids if attempts.get(tid)
                }
                now = time.monotonic()
                future = pool.submit(
                    run_task_batch_in_worker, fingerprint, chunk, upstream, attempt_map
                )
                inflight[future] = _Batch(
                    task_ids=chunk_ids,
                    submitted_at=now,
                    deadline=policy.deadline_from(now, len(chunk_ids)),
                )

        def consume(future, batch: _Batch, lost: List[int]) -> bool:
            """Fold one completed future in; True when the pool crashed."""
            try:
                results = future.result()
            except futures.BrokenExecutor:
                lost.extend(batch.task_ids)
                return True
            # Anything else propagates: a pickling failure to :meth:`execute`
            # (which falls back to the serial walk), an infrastructure error
            # outside task execution (task-level errors are captured
            # worker-side) as the genuine bug it is.
            for result in results:
                if result.cancelled:
                    continue
                if result.error is not None:
                    charge_attempt(result.task_id, result.error)
                    continue
                aggregator.record(result)
                resolved.add(result.task_id)
                release_dependents(result.task_id)
            return False

        def rebuild_pool(lost: List[int], reason: str, charge: bool) -> None:
            nonlocal pool
            self._kill_pool(pool)
            for _, batch in inflight.items():
                lost.extend(batch.task_ids)
            inflight.clear()
            LOG.warning(
                "engine: worker pool rebuilt (%s); %d in-flight task(s) requeued",
                reason,
                len([tid for tid in lost if tid not in resolved]),
            )
            error = TaskError(kind="crash", message=f"worker pool {reason}")
            for task_id in dict.fromkeys(lost):  # de-duplicated, order kept
                if charge:
                    charge_attempt(task_id, error)
                else:
                    requeue_free(task_id)
            pool = self._new_pool(workers, mp_context, initargs)

        # -------------------------------------------------------- supervision loop
        try:
            while True:
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    _, task_id = heapq.heappop(retry_heap)
                    if task_id not in resolved:
                        ready.append(task_id)

                if aggregator.stop_requested:
                    pool_is_clean = self._drain_after_stop(
                        inflight, aggregator, cancel_event, policy
                    )
                    break

                crashed = False
                lost: List[int] = []
                if ready:
                    try:
                        submit_ready()
                    except futures.BrokenExecutor:
                        crashed = True

                if not inflight and not ready and not retry_heap and not crashed:
                    break  # every task resolved (or unreachable after a stop)

                if not crashed:
                    if inflight:
                        deadlines = [
                            b.deadline for b in inflight.values() if b.deadline is not None
                        ]
                        wakeups = deadlines + [release for release, _ in retry_heap[:1]]
                        timeout = (
                            max(0.005, min(wakeups) - time.monotonic()) if wakeups else None
                        )
                        futures.wait(
                            set(inflight), timeout=timeout, return_when=futures.FIRST_COMPLETED
                        )
                        for future in [f for f in list(inflight) if f.done()]:
                            batch = inflight.pop(future)
                            if consume(future, batch, lost):
                                crashed = True
                    elif retry_heap:
                        time.sleep(max(0.0, retry_heap[0][0] - time.monotonic()))
                        continue
                    else:
                        continue  # new submissions next iteration

                if crashed:
                    crash_rebuilds += 1
                    if crash_rebuilds > policy.max_pool_rebuilds:
                        self._kill_pool(pool)
                        inflight.clear()
                        LOG.error(
                            "engine: worker pool crashed %d times (max %d); "
                            "completing remaining tasks on the serial backend",
                            crash_rebuilds,
                            policy.max_pool_rebuilds,
                        )
                        return
                    rebuild_pool(
                        lost,
                        reason=f"crashed (rebuild {crash_rebuilds}/{policy.max_pool_rebuilds})",
                        charge=True,
                    )
                    continue

                # ------------------------------------------------ deadlines
                now = time.monotonic()
                overdue = [
                    (future, batch)
                    for future, batch in list(inflight.items())
                    if batch.deadline is not None and now >= batch.deadline and not future.done()
                ]
                if overdue:
                    timeout_error = TaskError(
                        kind="timeout",
                        message=f"task exceeded the {policy.task_timeout}s deadline",
                    )
                    for future, batch in overdue:
                        inflight.pop(future, None)
                        for task_id in batch.task_ids:
                            LOG.warning(
                                "engine: task %d timed out after %.1fs",
                                task_id,
                                now - batch.submitted_at,
                            )
                            charge_attempt(task_id, timeout_error)
                    # The hung worker cannot be preempted individually; the
                    # pool is rebuilt and unaffected in-flight work requeued
                    # without charging their retry budgets.
                    rebuild_pool([], reason="task deadline exceeded", charge=False)
        finally:
            clear_parent_runtime()
            if pool_is_clean:
                pool.shutdown(wait=True, cancel_futures=True)
            else:
                self._kill_pool(pool)


# --------------------------------------------------------------------------- selection
def select_backend(options: PlanktonOptions, graph: Sized) -> ExecutionBackend:
    """Pick the backend named by the options ('auto' resolves by core count
    and by how many tasks ``graph`` — anything sized — holds)."""
    name = options.backend or "auto"
    if name not in BACKEND_CHOICES:
        raise ValueError(f"unknown execution backend {name!r}; choose from {BACKEND_CHOICES}")
    if name == "serial":
        return SerialBackend()
    if name == "process":
        # An explicit "process" request is honoured even at cores=1 (a pool
        # of one worker — useful for exercising the parallel path).
        return ProcessPoolBackend(cores=options.cores)
    if options.cores > 1 and len(graph) > 1:
        return ProcessPoolBackend(cores=options.cores)
    return SerialBackend()


def run_graph(
    graph: TaskGraph,
    context: EngineContext,
    known: Optional[Dict[int, TaskResult]] = None,
    keep_planes: bool = False,
) -> ResultAggregator:
    """Run ``graph`` and return its ledger — the engine's one entry point.

    ``known`` maps task ids to results that already exist (decoded cache
    entries): those tasks are finished before the run starts.  When nothing
    is left to run — an all-hit request — no backend or pool is constructed
    at all; ``'auto'`` sizes its choice by what is left, not by the graph.
    """
    ledger = ResultAggregator(graph, context.options, known, keep_planes)
    if ledger.planned:
        select_backend(context.options, ledger.planned).execute(graph, context, ledger)
    return ledger
