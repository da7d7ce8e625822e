"""Transient-state analysis (the paper's "future work" extension).

Plankton checks policies over *converged* data planes only; properties of the
convergence process itself — transient micro-loops, momentary black holes,
loss of reachability while routes are being withdrawn — are explicitly out of
scope for it (paper §3.5, §8).  This subpackage adds that capability on top of
the SPVP message-passing model: a bounded breadth-first exploration of message
interleavings, checking transient properties in every reachable state.
"""

from repro.transient.explorer import (
    Converge,
    FailSession,
    FRONTIER_MODES,
    POR_MODES,
    TransientAnalysisResult,
    TransientAnalyzer,
    TransientCampaignResult,
    TransientCampaignRun,
    TransientOptions,
    TransientTaskConfig,
    TransientViolation,
    analyze_pec_transients,
    analyze_pec_transients_over_failures,
)
from repro.transient.witness import minimize_witness
from repro.transient.properties import (
    AlwaysReaches,
    TransientBlackHoleFreedom,
    TransientForwarding,
    TransientLoopFreedom,
    TransientProperty,
)

__all__ = [
    "Converge",
    "FRONTIER_MODES",
    "minimize_witness",
    "FailSession",
    "POR_MODES",
    "TransientAnalyzer",
    "TransientAnalysisResult",
    "TransientCampaignResult",
    "TransientCampaignRun",
    "TransientOptions",
    "TransientTaskConfig",
    "TransientViolation",
    "analyze_pec_transients",
    "analyze_pec_transients_over_failures",
    "TransientProperty",
    "TransientForwarding",
    "TransientLoopFreedom",
    "TransientBlackHoleFreedom",
    "AlwaysReaches",
]
