"""The parallel execution engine for PEC verification.

One code path for every request, cold, incremental or transient:
:func:`build_task_graph` / :func:`build_transient_task_graph` expand the
work into (PEC × failure scenario) tasks with explicit dependency edges
derived from the SCC schedule, and :func:`run_graph` runs the graph and
returns its ledger — a :class:`ResultAggregator` holding one outcome per
task.  Results that already exist (decoded incremental-cache entries) enter
the ledger as *finished tasks* before the run; the
:class:`ExecutionBackend` (serial, or a supervised process pool whose
workers each hold one runtime, with cross-worker early cancellation) runs only
what the ledger still has pending, and the verdict is folded from the
ledger's ordered prefix, which is the same on every backend — also when
the request stops at the first violation.

See the package modules:

* :mod:`repro.engine.graph` — task specs and the graph builders;
* :mod:`repro.engine.backends` — :func:`run_graph`, the backend interface
  and implementations;
* :mod:`repro.engine.worker` — the per-worker runtime and task execution;
* :mod:`repro.engine.supervision` — retry policy, guarded attempts, the log;
* :mod:`repro.engine.aggregator` — the ledger, which also charges failed
  attempts and records failures with their upstream cascade.
"""

from repro import _exports

#: Public name -> the module that defines it (imported on first access).
_ORIGINS = {
    "BACKEND_CHOICES": "repro.engine.backends",
    "EngineContext": "repro.engine.backends",
    "ExecutionBackend": "repro.engine.backends",
    "ProcessPoolBackend": "repro.engine.backends",
    "ResultAggregator": "repro.engine.aggregator",
    "SerialBackend": "repro.engine.backends",
    "TaskGraph": "repro.engine.graph",
    "TaskResult": "repro.engine.graph",
    "TaskSpec": "repro.engine.graph",
    "build_task_graph": "repro.engine.graph",
    "build_transient_task_graph": "repro.engine.graph",
    "execute_task": "repro.engine.worker",
    "run_graph": "repro.engine.backends",
    "select_backend": "repro.engine.backends",
}

__all__ = list(_ORIGINS)
__getattr__ = _exports(__name__, _ORIGINS)
