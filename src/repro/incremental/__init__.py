"""Incremental re-verification: verify once, re-verify config deltas fast.

A production verification service re-runs on every configuration push, and
:meth:`repro.core.verifier.Plankton.verify` recomputes every Packet
Equivalence Class from scratch even when a single route-map line changed.
This subsystem re-verifies only the PECs a configuration delta can reach:

* :mod:`repro.incremental.delta` — structural diff of two
  :class:`~repro.config.objects.NetworkConfig`\\ s down to per-device
  constructs (links, BGP sessions, filters, static routes, announcements);
* :mod:`repro.incremental.impact` — per-PEC *config slices* (everything a
  PEC's verification result can read) and the delta → dirty-PEC mapping
  over the PEC trie and dependency graph;
* :mod:`repro.incremental.cache` — a persistent result store keyed by
  per-PEC fingerprints, with a JSON round trip to disk so a service
  process restarts warm;
* :mod:`repro.incremental.service` — the :class:`IncrementalVerifier`
  session API that owns a cache, computes deltas, and hands clean PECs to
  the execution engine as already-finished tasks, so only dirty ones run.
"""

from repro import _exports

#: Public name -> the module that defines it (imported on first access).
_ORIGINS = {
    "ConfigDelta": "repro.incremental.delta",
    "diff_networks": "repro.incremental.delta",
    "config_slice": "repro.incremental.impact",
    "network_slice": "repro.incremental.impact",
    "impacted_pecs": "repro.incremental.impact",
    "ResultCache": "repro.incremental.cache",
    "pec_base_fingerprints": "repro.incremental.cache",
    "verification_fingerprints": "repro.incremental.cache",
    "transient_fingerprint": "repro.incremental.cache",
    "IncrementalRunStats": "repro.incremental.service",
    "IncrementalVerifier": "repro.incremental.service",
    "result_signature": "repro.incremental.service",
    "result_signature_digest": "repro.incremental.service",
}

__all__ = list(_ORIGINS)
__getattr__ = _exports(__name__, _ORIGINS)
