"""Job model, admission-controlled queue, and job execution for ``repro serve``.

Every ``POST .../push`` becomes a :class:`Job`.  The :class:`JobQueue`
guarantees two things the tenancy model depends on:

* **per-namespace FIFO** — jobs of one namespace execute strictly in push
  order, at most one at a time, so overlay deltas compose deterministically
  and the warm :class:`~repro.incremental.IncrementalVerifier` session is
  never entered concurrently;
* **cross-namespace parallelism** — jobs of different namespaces are handed
  to different worker threads freely.

Admission control is a hard queue-depth bound: a push arriving while
``max_depth`` jobs are already queued is rejected (HTTP 429 upstream) with
:class:`QueueFull` instead of letting one noisy tenant grow the backlog
without bound.  Per-job supervision rides the existing
:class:`~repro.core.options.PlanktonOptions` machinery — ``task_timeout`` /
``task_retries`` in a push's options spec flow straight into the execution
engine's supervisor, so a hung exploration degrades that one job to a
partial result instead of wedging a worker thread forever.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, Mapping, Optional, Set

from repro.config.objects import NetworkConfig
from repro.exceptions import ReproError, SpecError
from repro.reporting import ResultView
from repro.serve.specs import (
    forms_from_spec,
    options_from_spec,
    parse_destination_prefix,
    policy_from_spec,
    scenarios_from_specs,
    transient_options_from_spec,
    transient_property_from_spec,
)

if TYPE_CHECKING:  # the CLI's in-process path runs requests without a session registry
    from repro.serve.registry import NamespaceSession

#: Job lifecycle states (``partial`` mirrors the CLI's exit-code-2 contract:
#: the job finished but some engine tasks exhausted their retries).
JOB_STATES = ("queued", "running", "done", "partial", "failed")

#: Job kinds accepted on the push endpoint.
JOB_KINDS = ("verify", "transient")


class QueueFull(ReproError):
    """Admission control rejected a push: the job queue is at depth."""


@dataclass
class Job:
    """One enqueued verification request."""

    id: str
    namespace: str
    kind: str
    payload: Dict[str, object]
    #: Position in the namespace's push order (1-based, monotonically
    #: increasing per namespace) — the serialisation witness.
    sequence: int = 0
    state: str = "queued"
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: ``kind``, ``verdict``, ``signature``, ``delta`` and the rendered forms
    #: the push asked for (:meth:`repro.reporting.ResultView.render`).
    result: Optional[Dict[str, object]] = None
    #: The finished request's :meth:`~repro.reporting.ResultView.counts`.
    counts: Optional[Dict[str, int]] = None
    error: Optional[str] = None
    #: The network a full-config push was checked against at submission,
    #: until the job installs it.
    network: Optional[NetworkConfig] = None


class JobQueue:
    """Bounded queue with per-namespace FIFO dispatch.

    ``submit`` enqueues; worker threads loop on ``next_job`` / ``task_done``.
    A namespace is handed to at most one worker at a time: ``next_job`` pops
    the namespace's oldest job and marks the namespace *active* until the
    worker calls ``task_done``, which re-queues the namespace if more jobs
    arrived meanwhile.
    """

    def __init__(self, max_depth: int = 64) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self._cond = threading.Condition()
        self._pending: Dict[str, Deque[Job]] = {}
        self._ready: Deque[str] = deque()
        self._active: Set[str] = set()
        self._depth = 0
        self._closed = False

    @property
    def depth(self) -> int:
        """Jobs currently queued (not yet handed to a worker)."""
        with self._cond:
            return self._depth

    def submit(self, job: Job) -> int:
        """Enqueue; returns how many jobs sit ahead of it queue-wide."""
        with self._cond:
            if self._closed:
                raise QueueFull("the server is shutting down")
            if self._depth >= self.max_depth:
                raise QueueFull(
                    f"job queue is full ({self._depth}/{self.max_depth} queued); retry later"
                )
            ahead = self._depth + len(self._active)
            bucket = self._pending.setdefault(job.namespace, deque())
            bucket.append(job)
            self._depth += 1
            if job.namespace not in self._active and len(bucket) == 1:
                self._ready.append(job.namespace)
            self._cond.notify()
            return ahead

    def next_job(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Block for the next dispatchable job; ``None`` on close/timeout."""
        with self._cond:
            deadline = None if timeout is None else time.monotonic() + timeout
            while not self._ready and not self._closed:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining)
            if not self._ready:
                return None  # closed
            namespace = self._ready.popleft()
            job = self._pending[namespace].popleft()
            self._depth -= 1
            self._active.add(namespace)
            return job

    def task_done(self, namespace: str) -> None:
        """A worker finished its namespace's job; re-arm pending pushes."""
        with self._cond:
            self._active.discard(namespace)
            bucket = self._pending.get(namespace)
            if bucket:
                self._ready.append(namespace)
                self._cond.notify()

    def close(self) -> None:
        """Wake every waiting worker; ``next_job`` returns None afterwards."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()


# --------------------------------------------------------------------------- execution
def run_request(verifier, network, kind: str, payload: Mapping, delta=None) -> ResultView:
    """Run one verify/transient request spec against ``verifier``.

    The one copy of "specs → policies / properties / scenarios → BGP-PEC
    selection → ``verify`` / ``verify_transients``", shared by the daemon
    (:func:`execute_job`) and the CLI's in-process path.  ``verifier`` is an
    :class:`~repro.incremental.IncrementalVerifier` over ``network`` (a bare
    :class:`~repro.core.verifier.Plankton` also serves ``verify``); ``delta``
    is the change that led to ``network``, if any.  Raises
    :class:`~repro.exceptions.SpecError` on a bad spec.
    """
    topology_name = network.topology.name
    if kind == "verify":
        specs = payload.get("policies")
        if not specs:
            raise SpecError("a verify push needs at least one policy spec")
        policies = [policy_from_spec(spec, network) for spec in specs]
        names = ", ".join(policy.name for policy in policies)
        title = f"{names} on {topology_name}" + (" (incremental)" if delta is not None else "")
        return ResultView(verifier.verify(policies), names, title, delta)
    if kind != "transient":
        raise SpecError(f"unknown job kind {kind!r}; choose from {JOB_KINDS}")

    transient_options = transient_options_from_spec(payload.get("transient"))
    prop = transient_property_from_spec(payload.get("property"), network)
    scenarios = scenarios_from_specs(payload.get("scenarios"), network)
    destination = parse_destination_prefix(payload.get("destination_prefix"))

    bgp_pecs = [pec for pec in verifier.plankton.pecs if pec.has_bgp()]
    pecs = bgp_pecs
    if destination is not None:
        target = destination.to_range()
        pecs = [pec for pec in bgp_pecs if pec.address_range.overlaps(target)]

    note: Optional[str] = None
    if pecs:
        campaign = verifier.verify_transients(
            [prop],
            transient=transient_options,
            scenarios=scenarios,
            pecs=pecs,
        )
    else:
        # Nothing to analyse still renders every form: an empty (vacuously
        # holding) campaign, with a note saying why.
        from repro.transient import TransientCampaignResult

        campaign = TransientCampaignResult()
        note = (
            f"--destination-prefix {payload.get('destination_prefix')} matches no "
            "BGP-originated PEC; nothing to analyse"
            if bgp_pecs
            else "no BGP-originated prefixes to analyse"
        )
    title = f"Transient analysis of {topology_name}"
    return ResultView(campaign, title=title, delta=delta, note=note)


def execute_job(session: NamespaceSession, job: Job) -> Dict[str, object]:
    """Run one job against its namespace's warm session.

    Holds the session lock for the whole execution: the push payload is
    installed (delta + impact analysis against the current session state —
    this is why execution order must match push order), verified through the
    warm :class:`~repro.incremental.IncrementalVerifier` and rendered into
    the forms the push asked for; the result object itself is not kept.
    Raises :class:`~repro.exceptions.ReproError` subclasses on bad input;
    the worker loop turns those into a *failed* job with the message.
    """
    payload = job.payload
    options = options_from_spec(payload.get("options"))
    forms = forms_from_spec(payload.get("forms"))
    checked, job.network = job.network, None
    with session.lock:
        network, delta = session.install(payload, options, checked)
        view = run_request(session.verifier, network, job.kind, payload, delta)
        job.counts = view.counts()
        return dict(view.render(forms), signature=view.signature())
