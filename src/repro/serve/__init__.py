"""Verification-as-a-service: the ``repro serve`` daemon.

A long-running, stdlib-only HTTP service holding *warm* verification
sessions: per-namespace :class:`~repro.incremental.IncrementalVerifier`
instances that keep the parsed :class:`~repro.config.objects.NetworkConfig`,
the PEC partition/dependency graph, and the fingerprint-keyed result cache
resident between configuration pushes.  A push of a one-device delta then
re-verifies only the dirty PECs — the service amortises process startup,
config parsing, and cache deserialisation across every push of a tenant's
change stream.

Layering:

* :mod:`repro.serve.specs` — wire-format spec dicts → engine objects
  (policies, options, scenarios, networks); shared with the CLI's local path
  so the two construction paths cannot drift;
* :mod:`repro.serve.registry` — named namespace sessions + per-namespace
  cache directories (the tenancy model);
* :mod:`repro.serve.jobs` — the job model, the admission-controlled
  per-namespace-FIFO queue, and request execution (``run_request``, which
  the CLI's in-process path calls too);
* :mod:`repro.serve.metrics` — per-namespace counters behind ``/metrics``;
* :mod:`repro.serve.http` — the :class:`ReproServer` daemon and its JSON API.

The thin client lives outside this package (:mod:`repro.client`) so that
client-only processes never import the engine.
"""

from repro import _exports

#: Public name -> the module that defines it (imported on first access).
_ORIGINS = {
    "ReproServer": "repro.serve.http",
    "Job": "repro.serve.jobs",
    "JobQueue": "repro.serve.jobs",
    "QueueFull": "repro.serve.jobs",
    "JOB_KINDS": "repro.serve.jobs",
    "JOB_STATES": "repro.serve.jobs",
    "NamespaceCounters": "repro.serve.metrics",
    "ServerMetrics": "repro.serve.metrics",
    "NamespaceSession": "repro.serve.registry",
    "SessionRegistry": "repro.serve.registry",
}

__all__ = list(_ORIGINS)
__getattr__ = _exports(__name__, _ORIGINS)
