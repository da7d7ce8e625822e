"""Incremental re-verification: verify once, re-verify config deltas fast.

A production verification service re-runs on every configuration push, and
:meth:`repro.core.verifier.Plankton.verify` recomputes every Packet
Equivalence Class from scratch even when a single route-map line changed.
This subsystem adds the control-plane counterpart of the dataplane-side
incremental verifier (:mod:`repro.dpverify`):

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

from repro.incremental.delta import ConfigDelta, diff_networks
from repro.incremental.impact import config_slice, impacted_pecs
from repro.incremental.cache import (
    ResultCache,
    pec_base_fingerprints,
    transient_fingerprint,
    verification_fingerprints,
)
from repro.incremental.service import (
    IncrementalRunStats,
    IncrementalVerifier,
    result_signature,
    result_signature_digest,
    transient_campaign_signature,
    transient_campaign_signature_digest,
)

__all__ = [
    "ConfigDelta",
    "diff_networks",
    "config_slice",
    "impacted_pecs",
    "ResultCache",
    "pec_base_fingerprints",
    "verification_fingerprints",
    "transient_fingerprint",
    "IncrementalRunStats",
    "IncrementalVerifier",
    "result_signature",
    "result_signature_digest",
    "transient_campaign_signature",
    "transient_campaign_signature_digest",
]
