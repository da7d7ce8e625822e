"""Warm per-namespace verification sessions for the ``repro serve`` daemon.

A **namespace** is the tenancy unit: one network under management by one
tenant.  Its :class:`NamespaceSession` owns everything a cold CLI invocation
pays for on every run and a long-running service pays for once — the parsed
:class:`~repro.config.objects.NetworkConfig`, the PEC partition and
dependency graph inside :class:`~repro.core.verifier.Plankton`, and the
in-memory :class:`~repro.incremental.ResultCache` of the live
:class:`~repro.incremental.IncrementalVerifier`.  Config pushes flow through
:meth:`NamespaceSession.install`, which computes the structural delta and
arms the impact-analysis invalidation exactly like the CLI's ``diff-verify``
would, except the session (and its warm caches) survives across pushes.

Concurrency: each session carries one :class:`threading.RLock`; the job
queue guarantees at most one job per namespace executes at a time (FIFO in
push order), and every session mutation happens under the lock, so two
tenants' jobs run concurrently while one tenant's pushes serialise.  When
the server is given a cache directory, each namespace persists to its own
subdirectory, so a restarted daemon reloads every tenant warm.
"""

from __future__ import annotations

import re
import threading
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro.config.objects import NetworkConfig
from repro.core.options import PlanktonOptions
from repro.exceptions import SpecError
from repro.incremental import ConfigDelta, IncrementalVerifier
from repro.serve.specs import network_from_payload

#: Namespace names become cache subdirectory names; keep them filesystem- and
#: URL-safe.
_NAMESPACE_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Delta-history entries retained per session (a ring, newest last).
HISTORY_LIMIT = 100


class NamespaceSession:
    """One tenant's warm verification session."""

    def __init__(self, name: str, cache_dir: Optional[Path]) -> None:
        self.name = name
        self.cache_dir = cache_dir
        self.created_at = time.time()
        #: Serialises session mutation; held for a job's whole execution.
        self.lock = threading.RLock()
        self.verifier: Optional[IncrementalVerifier] = None
        self.pushes = 0
        self.last_push_at: Optional[float] = None
        #: Newest-last ring of push records (push number, delta summary).
        self.delta_history: List[Dict[str, object]] = []
        self._options_token: Optional[str] = None

    # ------------------------------------------------------------------ pushes
    def install(
        self,
        payload: Mapping,
        options: PlanktonOptions,
        network: Optional[NetworkConfig] = None,
    ) -> Tuple[NetworkConfig, Optional[ConfigDelta]]:
        """Apply one push payload; returns ``(network, delta)`` — no delta
        on the push that creates the session.  ``network`` is the payload's
        full network when the push was already checked against it
        (:func:`~repro.serve.specs.check_push_fields`); else it is read off
        the payload here.

        The first push creates the :class:`IncrementalVerifier`; later
        pushes route through :meth:`IncrementalVerifier.update` so the
        structural delta and impact-dirty PEC set are computed against the
        *current* session state.  A push that changes engine options swaps
        the verifier via :meth:`IncrementalVerifier.with_options`, keeping
        the warm cache and pending-impact state.  Callers hold
        :attr:`lock` (the job queue's per-namespace serialisation).
        """
        with self.lock:
            if network is None:
                current = self.verifier.network if self.verifier is not None else None
                network = network_from_payload(payload, current)
            delta: Optional[ConfigDelta] = None
            if self.verifier is None:
                self.verifier = IncrementalVerifier(
                    network, options, cache_dir=self.cache_dir
                )
            else:
                if repr(options) != self._options_token:
                    self.verifier = self.verifier.with_options(options)
                delta = self.verifier.update(network)
            self._options_token = repr(options)
            self.pushes += 1
            self.last_push_at = time.time()
            self.delta_history.append(
                {
                    "push": self.pushes,
                    "delta": delta.summary() if delta is not None else "initial configuration",
                    "devices": sorted(payload.get("devices", {}))
                    if payload.get("devices")
                    else None,
                    "at": self.last_push_at,
                }
            )
            del self.delta_history[:-HISTORY_LIMIT]
            return network, delta

    # ------------------------------------------------------------------ info
    def describe(self) -> Dict[str, object]:
        """The session-info document of ``GET /v1/namespaces/{ns}``."""
        with self.lock:
            document: Dict[str, object] = {
                "namespace": self.name,
                "created_at": self.created_at,
                "pushes": self.pushes,
                "last_push_at": self.last_push_at,
                "warm": self.verifier is not None,
                "delta_history": list(self.delta_history),
            }
            if self.verifier is not None:
                plankton = self.verifier.plankton
                document.update(
                    {
                        "topology": plankton.network.topology.name,
                        "devices": len(plankton.network.topology.nodes),
                        "pecs": len(plankton.pecs),
                        "cache_entries": len(self.verifier.cache),
                        "cache_persisted": self.verifier.cache.path is not None,
                    }
                )
            return document

    def save(self) -> None:
        """Persist the session cache (no-op for memory-only sessions)."""
        with self.lock:
            if self.verifier is not None:
                self.verifier.save()


class SessionRegistry:
    """All live namespace sessions of one daemon."""

    def __init__(self, cache_dir: Optional[object] = None) -> None:
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._sessions: Dict[str, NamespaceSession] = {}
        self._lock = threading.Lock()

    def validate_name(self, name: str) -> str:
        if not _NAMESPACE_RE.match(name):
            raise SpecError(
                f"bad namespace {name!r}: use 1-64 letters, digits, '.', '_' or '-'"
            )
        return name

    def get_or_create(self, name: str) -> NamespaceSession:
        self.validate_name(name)
        with self._lock:
            session = self._sessions.get(name)
            if session is None:
                cache_dir = (
                    self._cache_dir / name if self._cache_dir is not None else None
                )
                session = NamespaceSession(name, cache_dir)
                self._sessions[name] = session
            return session

    def get(self, name: str) -> Optional[NamespaceSession]:
        with self._lock:
            return self._sessions.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._sessions)

    def save_all(self) -> None:
        """Persist every disk-backed session cache (shutdown hook)."""
        for name in self.names():
            session = self.get(name)
            if session is not None:
                session.save()
