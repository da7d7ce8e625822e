"""The parallel execution engine for PEC verification.

One code path for every request, cold, incremental or transient:
:func:`build_task_graph` / :func:`build_transient_task_graph` expand the
work into (PEC × failure scenario) tasks with explicit dependency edges
derived from the SCC schedule, and :func:`run_graph` runs the graph and
returns its ledger — a :class:`ResultAggregator` holding one outcome per
task.  Results that already exist (decoded incremental-cache entries) enter
the ledger as *finished tasks* before the run; the
:class:`ExecutionBackend` (serial, or a persistent process pool with
per-process state caching and cross-worker early cancellation) runs only
what the ledger still has pending, and the verdict is folded from the
ledger's ordered prefix, which is the same on every backend — also when
the request stops at the first violation.

See the package modules:

* :mod:`repro.engine.graph` — task specs and the graph builders;
* :mod:`repro.engine.backends` — :func:`run_graph`, the backend interface
  and implementations;
* :mod:`repro.engine.worker` — per-process state cache and task execution;
* :mod:`repro.engine.aggregator` — the ledger.
"""

from repro.engine.aggregator import ResultAggregator
from repro.engine.backends import (
    BACKEND_CHOICES,
    EngineContext,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    run_graph,
    select_backend,
)
from repro.engine.graph import (
    TaskGraph,
    TaskResult,
    TaskSpec,
    build_task_graph,
    build_transient_task_graph,
)
from repro.engine.worker import execute_task, network_fingerprint

__all__ = [
    "BACKEND_CHOICES",
    "EngineContext",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "ResultAggregator",
    "SerialBackend",
    "TaskGraph",
    "TaskResult",
    "TaskSpec",
    "build_task_graph",
    "build_transient_task_graph",
    "execute_task",
    "network_fingerprint",
    "run_graph",
    "select_backend",
]
