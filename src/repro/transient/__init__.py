"""Transient-state analysis (the paper's "future work" extension).

Plankton checks policies over *converged* data planes only; properties of the
convergence process itself — transient micro-loops, momentary black holes,
loss of reachability while routes are being withdrawn — are explicitly out of
scope for it (paper §3.5, §8).  This subpackage adds that capability on top of
the SPVP message-passing model: a bounded breadth-first exploration of message
interleavings, checking transient properties in every reachable state.
"""

from repro import _exports

#: Public name -> the module that defines it (imported on first access).
_ORIGINS = {
    "Converge": "repro.scenarios.events",
    "FailSession": "repro.scenarios.events",
    "POR_MODES": "repro.transient.explorer",
    "TransientAnalyzer": "repro.transient.explorer",
    "TransientAnalysisResult": "repro.transient.explorer",
    "TransientCampaignResult": "repro.transient.explorer",
    "TransientCampaignRun": "repro.transient.explorer",
    "TransientOptions": "repro.transient.explorer",
    "TransientTaskConfig": "repro.transient.explorer",
    "TransientViolation": "repro.transient.explorer",
    "analyze_pec_transients": "repro.transient.explorer",
    "TransientProperty": "repro.transient.properties",
    "TransientForwarding": "repro.transient.properties",
    "TransientLoopFreedom": "repro.transient.properties",
    "TransientBlackHoleFreedom": "repro.transient.properties",
}

__all__ = list(_ORIGINS)
__getattr__ = _exports(__name__, _ORIGINS)
