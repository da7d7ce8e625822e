"""Data-plane policies checked over every converged state (paper §3.5)."""

from repro.policies.base import Policy, PolicyCheckContext
from repro.policies.reachability import Reachability
from repro.policies.waypoint import Waypoint
from repro.policies.loop import LoopFreedom
from repro.policies.blackhole import BlackHoleFreedom
from repro.policies.path_length import BoundedPathLength
from repro.policies.consistency import MultipathConsistency, PathConsistency
from repro.policies.segmentation import Segmentation

__all__ = [
    "Policy",
    "PolicyCheckContext",
    "Reachability",
    "Waypoint",
    "LoopFreedom",
    "BlackHoleFreedom",
    "BoundedPathLength",
    "MultipathConsistency",
    "PathConsistency",
    "Segmentation",
]
