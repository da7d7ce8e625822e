"""A from-scratch explicit-state model checker (the reproduction's SPIN stand-in)."""

from repro.modelcheck.hashing import (
    BitstateFilter,
    ZobristFingerprinter,
    splitmix64,
)
from repro.modelcheck.trail import Trail, TrailStep
from repro.modelcheck.explorer import (
    ExplorationStatistics,
    Explorer,
    ExplorerOptions,
)

__all__ = [
    "BitstateFilter",
    "ZobristFingerprinter",
    "splitmix64",
    "Trail",
    "TrailStep",
    "ExplorationStatistics",
    "Explorer",
    "ExplorerOptions",
]
