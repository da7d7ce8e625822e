"""The ``repro serve`` HTTP daemon (stdlib-only).

One :class:`ReproServer` wires together the session registry, the
admission-controlled job queue, a worker-thread pool, and a
:class:`http.server.ThreadingHTTPServer` speaking a small JSON API:

=======  ==================================  =========================================
method   path                                meaning
=======  ==================================  =========================================
GET      ``/v1/health``                      liveness + uptime
GET      ``/metrics``                        per-namespace counters (JSON)
GET      ``/v1/namespaces``                  list live namespaces
GET      ``/v1/namespaces/{ns}``             session info + delta history
POST     ``/v1/namespaces/{ns}/push``        enqueue a verify/transient job (202);
                                             429 when admission control rejects
GET      ``/v1/jobs/{id}``                   poll job state/result (the forms the
                                             push named; ``document`` + ``text``
                                             by default); 404 once the job is
                                             among the finished jobs evicted
                                             past :data:`MAX_FINISHED_JOBS`
=======  ==================================  =========================================

Error responses are ``{"error": message}`` with a meaningful status code
(400 malformed/invalid request, 404 unknown resource, 429 queue full).  Job
*execution* errors never surface as HTTP errors — the job transitions to
``failed`` with the message, because by then the push has already been
accepted.

The daemon is deliberately a thin shell: all verification semantics live in
:mod:`repro.serve.jobs` / :mod:`repro.incremental`, and the CLI is a client
of this API (``repro --server``) rather than embedding any server parts.
"""

from __future__ import annotations

import itertools
import json
import logging
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Deque, Dict, Optional, Tuple

from repro.exceptions import ReproError, SpecError
from repro.serve.jobs import JOB_KINDS, Job, JobQueue, QueueFull, execute_job
from repro.serve.metrics import ServerMetrics
from repro.serve.registry import SessionRegistry
from repro.serve.specs import check_push_fields

LOG = logging.getLogger("repro.serve")

#: Idle-poll period of worker threads; bounds shutdown latency.
_WORKER_POLL_SECONDS = 0.2

#: Largest request body the daemon reads; a longer ``Content-Length`` is
#: refused before a byte is read.  A constant, not an option: it bounds what
#: a hostile peer can make a handler thread allocate.
MAX_REQUEST_BYTES = 64 * 1024 * 1024

#: How many finished jobs (with their rendered results) the daemon keeps for
#: ``GET /v1/jobs/{id}``; past it the oldest finished job is forgotten and
#: its id answers 404.  Queued and running jobs are never evicted.  A
#: constant, not an option: it bounds the job table of a long-lived daemon.
MAX_FINISHED_JOBS = 1024


class ReproServer:
    """A long-running verification service instance.

    Programmatic use (tests, embedding)::

        server = ReproServer(port=0, cache_dir="cache/", workers=2)
        server.start()
        try:
            ...  # point a ServiceClient at server.url
        finally:
            server.stop()

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`).
    ``workers=0`` accepts pushes without executing them — only useful for
    exercising admission control in tests.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: Optional[str] = None,
        workers: int = 2,
        queue_depth: int = 64,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.registry = SessionRegistry(cache_dir)
        self.metrics = ServerMetrics()
        self.queue = JobQueue(queue_depth)
        self.worker_count = workers
        self._jobs: Dict[str, Job] = {}
        #: Finished job ids, oldest first (the eviction order).
        self._finished: Deque[str] = deque()
        self._jobs_lock = threading.Lock()
        self._job_ids = itertools.count(1)
        self._sequences: Dict[str, itertools.count] = {}
        self._threads: list = []
        self._started = False
        self._stopped = threading.Event()
        self._cleanup_lock = threading.Lock()
        self._cleaned_up = False
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.repro_server = self  # type: ignore[attr-defined]
        self.host, self.port = self.httpd.server_address[0], self.httpd.server_address[1]

    # ------------------------------------------------------------------ lifecycle
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReproServer":
        self._started = True
        acceptor = threading.Thread(
            target=self.httpd.serve_forever, name="repro-serve-http", daemon=True
        )
        acceptor.start()
        self._threads.append(acceptor)
        for index in range(self.worker_count):
            worker = threading.Thread(
                target=self._worker_loop, name=f"repro-serve-worker-{index}", daemon=True
            )
            worker.start()
            self._threads.append(worker)
        LOG.info("serving on %s with %d worker(s)", self.url, self.worker_count)
        return self

    def request_stop(self) -> None:
        """Ask the server to shut down (signal-handler safe: just sets a flag;
        :meth:`serve_forever` or :meth:`stop` does the actual teardown)."""
        self._stopped.set()

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain workers, persist caches."""
        self._stopped.set()
        with self._cleanup_lock:
            if self._cleaned_up:
                return
            self._cleaned_up = True
        self.queue.close()
        if self._started:
            # shutdown() blocks on a serve_forever handshake; calling it on a
            # never-started server would deadlock.
            self.httpd.shutdown()
        self.httpd.server_close()
        for thread in self._threads:
            thread.join(timeout=30)
        self.registry.save_all()
        LOG.info("stopped")

    # ------------------------------------------------------------------ jobs
    def submit_push(self, namespace: str, payload: Dict[str, object]) -> Dict[str, object]:
        """Validate the envelope, enqueue a job, return the push receipt."""
        if not isinstance(payload, dict):
            raise SpecError("the push body must be a JSON object")
        kind = payload.get("kind", "verify")
        if kind not in JOB_KINDS:
            raise SpecError(f"unknown job kind {kind!r}; choose from {JOB_KINDS}")
        network = check_push_fields(payload)
        # Validates the name; the (still cold) session is listed from here on.
        self.registry.get_or_create(namespace)
        with self._jobs_lock:
            sequence = next(self._sequences.setdefault(namespace, itertools.count(1)))
            job = Job(
                id=f"j-{next(self._job_ids):06d}",
                namespace=namespace,
                kind=str(kind),
                payload=payload,
                sequence=sequence,
                network=network,
            )
            self._jobs[job.id] = job
        try:
            ahead = self.queue.submit(job)
        except QueueFull:
            with self._jobs_lock:
                self._jobs.pop(job.id, None)
            self.metrics.record_rejection()
            raise
        self.metrics.record_push(namespace)
        LOG.info("queued %s (%s push #%d on %r)", job.id, job.kind, sequence, namespace)
        return {"job": job.id, "namespace": namespace, "sequence": sequence, "ahead": ahead}

    def job(self, job_id: str) -> Optional[Job]:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def _retire(self, job: Job) -> None:
        """Enter a finished job in the eviction order, forgetting the oldest
        finished jobs past :data:`MAX_FINISHED_JOBS`."""
        with self._jobs_lock:
            self._finished.append(job.id)
            while len(self._finished) > MAX_FINISHED_JOBS:
                del self._jobs[self._finished.popleft()]

    def _worker_loop(self) -> None:
        while True:
            job = self.queue.next_job(timeout=_WORKER_POLL_SECONDS)
            if job is None:
                if self._stopped.is_set():
                    return
                continue
            session = self.registry.get_or_create(job.namespace)
            job.state = "running"
            job.started_at = time.time()
            try:
                result = execute_job(session, job)
                job.result = result
                job.state = "partial" if result.get("verdict") == "partial" else "done"
            except ReproError as exc:
                job.state = "failed"
                job.error = str(exc)
            except Exception as exc:  # noqa: BLE001 - a worker must survive anything
                LOG.exception("job %s crashed", job.id)
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
            finally:
                job.finished_at = time.time()
                self.metrics.record_job(job)
                self._retire(job)
                self.queue.task_done(job.namespace)
                LOG.info(
                    "finished %s (%s, %r): %s in %.3fs",
                    job.id,
                    job.kind,
                    job.namespace,
                    job.state,
                    (job.finished_at or 0) - (job.started_at or 0),
                )

    # ------------------------------------------------------------------ blocking entry
    def serve_forever(self) -> None:
        """Start and block until interrupted (the CLI entry point)."""
        self.start()
        try:
            self._stopped.wait()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()


# --------------------------------------------------------------------------- handler
class _Handler(BaseHTTPRequestHandler):
    """Routes the JSON API; one instance per request (ThreadingHTTPServer)."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # A response is two segments (headers, body); with Nagle on, the body
    # waits for the ACK of the headers, which a keep-alive client delays
    # (~80 ms per request, 88 % of a run-only push without TCP_QUICKACK).
    disable_nagle_algorithm = True

    @property
    def repro(self) -> ReproServer:
        return self.server.repro_server  # type: ignore[attr-defined]

    # ------------------------------------------------------------------ plumbing
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        LOG.debug("%s - %s", self.address_string(), format % args)

    def _send(self, status: int, document: Dict[str, object], close: bool = False) -> None:
        body = json.dumps(document, indent=2).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")  # also ends the keep-alive loop
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send(status, {"error": message})

    def _refuse_body(self, status: int, message: str) -> None:
        """Answer without reading the body; the unread bytes would otherwise
        be parsed as the connection's next request, so it is closed."""
        self._send(status, {"error": message}, close=True)

    def _read_json(self) -> Optional[Dict[str, object]]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        if length < 0:  # rfile.read(-1) would block until the peer closes
            self._refuse_body(400, f"invalid Content-Length: {length}")
            return None
        if length > MAX_REQUEST_BYTES:
            self._refuse_body(
                413, f"request body of {length} bytes exceeds {MAX_REQUEST_BYTES} bytes"
            )
            return None
        raw = self.rfile.read(length) if length else b""
        if not raw:
            self._error(400, "empty request body; expected a JSON object")
            return None
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            self._error(400, f"request body is not valid JSON: {exc}")
            return None
        if not isinstance(document, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return document

    def _route(self) -> Tuple[str, ...]:
        path = self.path.split("?", 1)[0]
        return tuple(part for part in path.split("/") if part)

    # ------------------------------------------------------------------ verbs
    def do_GET(self) -> None:  # noqa: N802
        from repro.reporting import job_to_dict, metrics_to_dict

        parts = self._route()
        server = self.repro
        if parts == ("v1", "health"):
            self._send(
                200,
                {
                    "status": "ok",
                    "uptime_seconds": round(server.metrics.uptime_seconds(), 3),
                    "namespaces": len(server.registry.names()),
                    "queue_depth": server.queue.depth,
                },
            )
        elif parts in (("metrics",), ("v1", "metrics")):
            self._send(200, metrics_to_dict(server.metrics))
        elif parts == ("v1", "namespaces"):
            self._send(200, {"namespaces": server.registry.names()})
        elif len(parts) == 3 and parts[:2] == ("v1", "namespaces"):
            session = server.registry.get(parts[2])
            if session is None:
                self._error(404, f"unknown namespace {parts[2]!r}")
            else:
                self._send(200, session.describe())
        elif len(parts) == 3 and parts[:2] == ("v1", "jobs"):
            job = server.job(parts[2])
            if job is None:
                self._error(404, f"unknown job {parts[2]!r}")
            else:
                self._send(200, job_to_dict(job))
        else:
            self._error(404, f"no such endpoint: GET {self.path}")

    def do_POST(self) -> None:  # noqa: N802
        parts = self._route()
        server = self.repro
        if len(parts) == 4 and parts[:2] == ("v1", "namespaces") and parts[3] == "push":
            payload = self._read_json()
            if payload is None:
                return
            try:
                receipt = server.submit_push(parts[2], payload)
            except QueueFull as exc:
                self._error(429, str(exc))
            except ReproError as exc:  # bad namespace, bad envelope
                self._error(400, str(exc))
            else:
                self._send(202, receipt)
        else:
            self._error(404, f"no such endpoint: POST {self.path}")
