"""Thin HTTP client for the ``repro serve`` verification service.

The CLI's ``--server URL`` mode goes through :class:`ServiceClient`; it is
deliberately engine-free (``urllib.request`` + ``json`` only) so a
client-only process never imports the verifier.  Failure modes map onto the
exception hierarchy precisely, because the CLI turns them into distinct exit
codes:

* the server cannot be reached at all (connection refused, DNS failure,
  timeout) → :class:`~repro.exceptions.ServiceUnavailable`;
* the server answered but unintelligibly (HTTP 5xx, or a body that is not
  the JSON the API promises) → :class:`~repro.exceptions.ServerProtocolError`;
* the server rejected the request on its merits (4xx with a JSON ``error``
  document: bad spec, unknown namespace, queue full) →
  :class:`~repro.exceptions.ServiceError` with the server's message.

All three are :class:`~repro.exceptions.ReproError` subclasses, so existing
generic error handling still catches them.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Dict, Optional

from repro.exceptions import ReproError, ServerProtocolError, ServiceError, ServiceUnavailable

#: Job states that mean the server finished with the job.
FINISHED_STATES = ("done", "partial", "failed")

#: Default per-request socket timeout (seconds).  Requests are cheap — the
#: expensive verification work happens between ``push`` and ``wait`` polls.
DEFAULT_TIMEOUT = 30.0

#: Poll cadence of :meth:`ServiceClient.wait`.
POLL_SECONDS = 0.15


class ServiceClient:
    """One server endpoint; stateless between calls."""

    def __init__(self, base_url: str, timeout: float = DEFAULT_TIMEOUT) -> None:
        if "://" not in base_url:
            base_url = "http://" + base_url
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------ transport
    def _request(self, method: str, path: str, body: Optional[Dict] = None) -> Dict[str, object]:
        url = self.base_url + path
        data = json.dumps(body).encode("utf-8") if body is not None else None
        request = urllib.request.Request(
            url,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                raw = response.read()
                status = response.status
        except urllib.error.HTTPError as exc:
            # The server answered with an error status; its body should still
            # be the API's JSON error document.
            raw = exc.read()
            status = exc.code
            if status >= 500:
                raise ServerProtocolError(
                    f"server error {status} from {method} {url}: "
                    f"{_error_message(raw) or raw[:200].decode('utf-8', 'replace')}"
                ) from exc
            message = _error_message(raw)
            if message is None:
                raise ServerProtocolError(
                    f"non-JSON {status} response from {method} {url}"
                ) from exc
            raise ServiceError(message) from exc
        except urllib.error.URLError as exc:
            raise ServiceUnavailable(
                f"cannot reach verification server at {self.base_url}: {exc.reason}"
            ) from exc
        except (TimeoutError, ConnectionError, OSError) as exc:
            raise ServiceUnavailable(
                f"cannot reach verification server at {self.base_url}: {exc}"
            ) from exc
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServerProtocolError(
                f"server at {self.base_url} returned a non-JSON body for "
                f"{method} {path} (status {status})"
            ) from exc
        if not isinstance(document, dict):
            raise ServerProtocolError(
                f"server at {self.base_url} returned a non-object JSON body for "
                f"{method} {path}"
            )
        return document

    # ------------------------------------------------------------------ API
    def namespace(self, name: str) -> Dict[str, object]:
        return self._request("GET", f"/v1/namespaces/{name}")

    def push(self, namespace: str, payload: Dict[str, object]) -> Dict[str, object]:
        """``POST .../push``; returns the receipt (``job``, ``sequence``...)."""
        return self._request("POST", f"/v1/namespaces/{namespace}/push", body=payload)

    def job(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Dict[str, object]:
        """Poll until the job finishes; returns the final job document.

        ``timeout`` bounds the *overall* wait (``None`` waits forever); a
        verification that outlives it raises :class:`ServiceError` — the job
        keeps running server-side and can still be polled later.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            document = self.job(job_id)
            if document.get("state") in FINISHED_STATES:
                return document
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"job {job_id} did not finish within {timeout:.0f}s "
                    "(it is still running server-side)"
                )
            time.sleep(POLL_SECONDS)

    def run(self, namespace: str, payload: Dict[str, object],
            timeout: Optional[float] = None) -> Dict[str, object]:
        """Push and wait — the common client round trip."""
        receipt = self.push(namespace, payload)
        job_id = receipt.get("job")
        if not isinstance(job_id, str):
            raise ServerProtocolError(f"push receipt carries no job id: {receipt}")
        return self.wait(job_id, timeout=timeout)


def _error_message(raw: bytes) -> Optional[str]:
    """The ``error`` field of a JSON error body, or None if it isn't one."""
    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    if isinstance(document, dict) and isinstance(document.get("error"), str):
        return document["error"]
    return None


# Re-exported so callers can catch client failures without importing the
# exceptions module separately.
__all__ = [
    "ServiceClient",
    "FINISHED_STATES",
    "DEFAULT_TIMEOUT",
    "ReproError",
    "ServiceError",
    "ServiceUnavailable",
    "ServerProtocolError",
]
