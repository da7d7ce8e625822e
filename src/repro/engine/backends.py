"""Execution backends: one interface, serial and supervised process-pool.

A backend executes the tasks a :class:`ResultAggregator` ledger still
:meth:`~ResultAggregator.pending`, honouring dependency edges; tasks the
ledger already holds an outcome for (results served from the incremental
cache) are never run, and nothing runs past a known violation.
:func:`run_graph` is the one entry point: graph, context, known results in,
ledger out.  The serial backend walks the pending tasks in the graph's
topological order in the calling process; the process-pool backend keeps a
pool of **persistent** workers (one runtime per worker process, see
:mod:`repro.engine.worker`), dispatches every task whose dependencies are
satisfied, broadcasts a cancellation event the moment the ledger requests a
stop — which is how ``stop_at_first_violation`` composes with
multiprocessing — and then finishes on the serial walk, which closes
whatever gaps the racing stop left before the first violation: both
backends leave the same ordered prefix behind.

Both backends run under one set of **supervision** rules
(:mod:`repro.engine.supervision`), and the ledger keeps the books:

* a task attempt that raises is captured into a structured
  :class:`~repro.engine.graph.TaskError` and charged to the task's one
  attempt count on the ledger (:meth:`ResultAggregator.charge`), which
  retries it after jittered exponential backoff, up to
  :attr:`PlanktonOptions.task_retries` times;
* with :attr:`PlanktonOptions.task_timeout` set, an attempt that overruns
  its deadline is killed (preemptively on the pool backend — the worker
  processes are terminated and the pool rebuilt, innocent in-flight tasks
  requeued uncharged; cooperatively on the serial backend) and charged as a
  timeout;
* an abrupt worker death (OOM killer, SIGKILL) breaks the pool: the
  supervisor charges a crash attempt to every in-flight task and rebuilds
  the pool; after :attr:`PlanktonOptions.max_pool_rebuilds` crash-triggered
  rebuilds the remaining tasks finish on the serial backend, each at the
  attempt the pool's count left it on;
* a task that exhausts its retries is recorded as a structured failure
  (the result's ``errors`` section) — its transitive dependents as
  ``"upstream"`` failures in the same step — instead of aborting the verify.

The pool keeps no books of its own: a task is ready to dispatch when the
ledger has it pending, every dependency has an outcome, and it is neither
in flight nor waiting out a backoff.  Every supervision event (retry,
timeout, crash, rebuild, fallback, failure) is emitted on the
``repro.engine`` logger; the CLI surfaces it with ``-v``.  Only genuine
*pickling* failures (an unpicklable user policy or task payload under a
spawn start method) still degrade the whole run to the serial backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Sized

from repro.core.options import BACKEND_CHOICES, PlanktonOptions
from repro.engine.aggregator import ResultAggregator
from repro.engine.graph import TaskError, TaskGraph, TaskResult, TaskSpec
from repro.engine.supervision import LOG, SupervisionPolicy, run_task_guarded

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
    verifier (for in-process execution and fork inheritance; its options,
    supervision knobs included, govern the run) and the policies being
    checked."""

    plankton: object
    policies: List = field(default_factory=list)

    @property
    def options(self) -> PlanktonOptions:
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
    in the ledger — ends the walk.  A failing task is retried, with backoff,
    before the walk moves on, until the ledger records it as a structured
    failure (its dependents with it) instead of raising.  Each attempt is
    numbered from the ledger's count, so a task the pool already charged
    continues where it was.  Deadlines are cooperative here — they are
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
            while True:
                attempt = aggregator.attempts.get(spec.task_id, 0)
                LOG.debug("engine: task %d started (attempt %d)", spec.task_id, attempt + 1)
                result = run_task_guarded(
                    context.plankton,
                    context.policies,
                    spec,
                    aggregator.upstream_planes(spec),
                    deadline=policy.deadline_from(time.monotonic()),
                    attempt=attempt,
                )
                if result.error is None:
                    aggregator.record(result)
                    break
                delay = aggregator.charge(spec, result.error, policy)
                if delay is None:
                    break
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

    Each worker holds one runtime — the network model, PECs and OSPF
    computation, inherited for free under ``fork`` — and tasks carry only a
    PEC index, a failure scenario and upstream data planes.  Ready tasks are
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
        # on the serial walk, at each task's next attempt; after a clean run
        # there is nothing.
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
        cancel_event = mp_context.Event()
        if use_fork:
            # Fork hands the initializer's arguments to every worker in its
            # copy of this process: the live verifier, never pickled.
            initargs = (cancel_event, context.policies, context.plankton)
        else:  # pragma: no cover - exercised only on non-fork platforms
            network, options = context.plankton.network, context.options
            initargs = (cancel_event, context.policies, None, network, options)
        workers = max(1, min(self.cores, len(aggregator.planned)))
        run = _PoolRun(
            graph,
            aggregator,
            SupervisionPolicy.from_options(context.options),
            workers,
            lambda: self._new_pool(workers, mp_context, initargs),
        )
        clean = True
        try:
            clean = run.supervise(cancel_event)
        finally:
            if clean:
                run.pool.shutdown(wait=True, cancel_futures=True)
            else:
                self._kill_pool(run.pool)


class _PoolRun:
    """One supervised pool run: the pool, its in-flight batches and the
    tasks waiting out a backoff — everything else is read off the ledger."""

    def __init__(
        self,
        graph: TaskGraph,
        ledger: ResultAggregator,
        policy: SupervisionPolicy,
        workers: int,
        new_pool: Callable[[], ProcessPoolExecutor],
    ) -> None:
        # Imported before the first fork, so every worker inherits the
        # explorer stack this module brings.
        from repro.engine.worker import run_task_batch_in_worker

        self.run_batch = run_task_batch_in_worker
        self.graph = graph
        self.ledger = ledger
        self.policy = policy
        self.workers = workers
        self.new_pool = new_pool
        self.pool = new_pool()
        self.inflight: Dict = {}  # future -> _Batch
        self.backoff: Dict[int, float] = {}  # task id -> when its retry may start

    def supervise(self, cancel_event) -> bool:
        """Run until the ledger has nothing left this pool can run.  False
        when the pool must be killed rather than joined: a straggler
        outlived an early stop, or the pool crashed past its rebuild budget
        (the serial walk then finishes what is pending)."""
        from concurrent.futures import BrokenExecutor

        crashes = 0
        while True:
            now = time.monotonic()
            for task_id in [t for t, release in self.backoff.items() if release <= now]:
                del self.backoff[task_id]
            if self.ledger.stop_requested:
                return ProcessPoolBackend._drain_after_stop(
                    self.inflight, self.ledger, cancel_event, self.policy
                )
            ready = self.ready()
            if not (ready or self.inflight or self.backoff):
                return True
            try:
                self.submit(ready)
                crashed = self.collect()
            except BrokenExecutor:
                crashed = True
            if not crashed:
                self.expire_overdue()
                continue
            crashes += 1
            budget = self.policy.max_pool_rebuilds
            error = TaskError(kind="crash", message=f"worker pool crashed (crash {crashes})")
            self.charge(sorted(self.running()), error)
            if crashes > budget:
                LOG.error(
                    "engine: worker pool crashed %d times (max %d); "
                    "completing remaining tasks on the serial backend",
                    crashes,
                    budget,
                )
                return False
            self.restart(f"crashed (rebuild {crashes}/{budget})")

    def running(self) -> Set[int]:
        return {task_id for batch in self.inflight.values() for task_id in batch.task_ids}

    def ready(self) -> List[TaskSpec]:
        """The ledger's pending tasks whose dependencies all have outcomes,
        neither in flight nor waiting out a backoff."""
        busy = self.running() | self.backoff.keys()
        return [
            spec
            for spec in self.ledger.pending()
            if spec.task_id not in busy
            and all(self.ledger.has_result(d) for d in spec.depends_on)
        ]

    def submit(self, ready: List[TaskSpec]) -> None:
        """Dispatch ``ready``, chunked so each worker gets a few futures'
        worth of work per round trip (one future per task would drown
        scaled-down instances in IPC).  Under a task deadline the chunk size
        is 1: timeout attribution and prompt detection beat IPC
        amortisation."""
        if self.policy.task_timeout is not None:
            size = 1
        else:
            size = max(1, -(-len(ready) // (self.workers * 4)))
        for start in range(0, len(ready), size):
            chunk = ready[start : start + size]
            upstream = {
                spec.task_id: self.ledger.upstream_planes(spec)
                for spec in chunk
                if spec.depends_on
            }
            attempts = {spec.task_id: self.ledger.attempts.get(spec.task_id, 0) for spec in chunk}
            now = time.monotonic()
            future = self.pool.submit(self.run_batch, chunk, upstream, attempts)
            self.inflight[future] = _Batch(
                task_ids=[spec.task_id for spec in chunk],
                submitted_at=now,
                deadline=self.policy.deadline_from(now, len(chunk)),
            )

    def collect(self) -> bool:
        """Wait for a batch to complete (or the next deadline or backoff
        release) and fold in every completed batch; True when the pool
        crashed — the crashed batches stay in flight to be charged."""
        from concurrent import futures

        wakeups = [b.deadline for b in self.inflight.values() if b.deadline is not None]
        wakeups.extend(self.backoff.values())
        timeout = max(0.005, min(wakeups) - time.monotonic()) if wakeups else None
        if not self.inflight:
            time.sleep(timeout)  # only backoffs are left to wait out
            return False
        futures.wait(set(self.inflight), timeout=timeout, return_when=futures.FIRST_COMPLETED)
        crashed = False
        for future in [f for f in self.inflight if f.done()]:
            try:
                results = future.result()
            except futures.BrokenExecutor:
                crashed = True
                continue
            # Anything else propagates: a pickling failure to
            # :meth:`ProcessPoolBackend.execute` (which falls back to the
            # serial walk), an infrastructure error outside task execution
            # (task-level errors are captured worker-side) as the genuine bug
            # it is.
            del self.inflight[future]
            for result in results:
                if result.error is not None:
                    self.charge([result.task_id], result.error)
                elif not result.cancelled:
                    self.ledger.record(result)
        return crashed

    def charge(self, task_ids: List[int], error: TaskError) -> None:
        """One failed attempt each, by the ledger's rule; a retry waits out
        its backoff before it is ready again."""
        for task_id in task_ids:
            delay = self.ledger.charge(self.graph.tasks[task_id], error, self.policy)
            if delay is not None:
                self.backoff[task_id] = time.monotonic() + delay

    def expire_overdue(self) -> None:
        """Charge a timeout to every batch past its deadline and rebuild the
        pool: a hung worker cannot be preempted on its own.  The other
        in-flight tasks are pending again, uncharged."""
        now = time.monotonic()
        overdue = [
            future
            for future, batch in self.inflight.items()
            if batch.deadline is not None and now >= batch.deadline and not future.done()
        ]
        if not overdue:
            return
        error = TaskError(
            kind="timeout", message=f"task exceeded the {self.policy.task_timeout}s deadline"
        )
        for future in overdue:
            batch = self.inflight.pop(future)
            for task_id in batch.task_ids:
                LOG.warning(
                    "engine: task %d timed out after %.1fs", task_id, now - batch.submitted_at
                )
            self.charge(batch.task_ids, error)
        self.restart("task deadline exceeded")

    def restart(self, reason: str) -> None:
        """Kill the pool and start a fresh one; what was in flight and has
        no outcome is pending again."""
        ProcessPoolBackend._kill_pool(self.pool)
        requeued = [t for t in self.running() if not self.ledger.has_result(t)]
        LOG.warning(
            "engine: worker pool rebuilt (%s); %d in-flight task(s) requeued",
            reason,
            len(requeued),
        )
        self.inflight.clear()
        self.pool = self.new_pool()


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
