"""Per-namespace service counters behind ``GET /metrics``.

The daemon's observability surface: one :class:`NamespaceCounters` row per
tenant (pushes, jobs by outcome, cache hits vs dirty-PEC recomputes, states
explored, accumulated verification wall-clock) plus server-wide totals
(uptime, submissions, admission-control rejections).  Counters are plain
monotonic integers guarded by one lock — cheap enough to update per job and
trivially JSON-able via :func:`repro.reporting.metrics_to_dict`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict


@dataclass
class NamespaceCounters:
    """Monotonic per-tenant counters."""

    pushes: int = 0
    jobs_done: int = 0
    jobs_partial: int = 0
    jobs_failed: int = 0
    violations: int = 0
    #: PEC-granular cache accounting, summed over jobs (from each result's
    #: incremental run stats): warm hits vs dirty recomputes.
    pecs_from_cache: int = 0
    pecs_recomputed: int = 0
    dirty_pecs: int = 0
    states_explored: int = 0
    #: Wall-clock seconds spent *verifying* (job execution time), summed.
    wall_clock_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "pushes": self.pushes,
            "jobs_done": self.jobs_done,
            "jobs_partial": self.jobs_partial,
            "jobs_failed": self.jobs_failed,
            "violations": self.violations,
            "pecs_from_cache": self.pecs_from_cache,
            "pecs_recomputed": self.pecs_recomputed,
            "dirty_pecs": self.dirty_pecs,
            "states_explored": self.states_explored,
            "wall_clock_seconds": round(self.wall_clock_seconds, 6),
        }


class ServerMetrics:
    """All counters of one daemon instance."""

    def __init__(self) -> None:
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._namespaces: Dict[str, NamespaceCounters] = {}
        self.jobs_submitted = 0
        self.jobs_rejected = 0

    def _bucket(self, namespace: str) -> NamespaceCounters:
        return self._namespaces.setdefault(namespace, NamespaceCounters())

    # ------------------------------------------------------------------ events
    def record_push(self, namespace: str) -> None:
        with self._lock:
            self.jobs_submitted += 1
            self._bucket(namespace).pushes += 1

    def record_rejection(self) -> None:
        with self._lock:
            self.jobs_rejected += 1

    def record_job(self, job) -> None:
        """Fold one finished :class:`~repro.serve.jobs.Job` into the counters."""
        with self._lock:
            bucket = self._bucket(job.namespace)
            if job.state == "failed":
                bucket.jobs_failed += 1
            elif job.state == "partial":
                bucket.jobs_partial += 1
            else:
                bucket.jobs_done += 1
            if job.started_at is not None and job.finished_at is not None:
                bucket.wall_clock_seconds += job.finished_at - job.started_at
            for name, value in (job.counts or {}).items():
                setattr(bucket, name, getattr(bucket, name) + value)

    # ------------------------------------------------------------------ snapshot
    def uptime_seconds(self) -> float:
        return time.time() - self.started_at

    def namespace_counters(self) -> Dict[str, NamespaceCounters]:
        with self._lock:
            return {name: counters for name, counters in sorted(self._namespaces.items())}
