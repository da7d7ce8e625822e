"""Data-plane substrate: FIBs, forwarding graphs and path analysis."""

from repro.dataplane.fib import Fib, FibEntry, DataPlane
from repro.dataplane.forwarding import (
    ForwardingGraph,
    PathResult,
    PathStatus,
    find_cycle,
    trace_paths,
)

__all__ = [
    "Fib",
    "FibEntry",
    "DataPlane",
    "ForwardingGraph",
    "PathResult",
    "PathStatus",
    "find_cycle",
    "trace_paths",
]
