"""Bounded path length policy."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.exceptions import PolicyError
from repro.netaddr import Prefix
from repro.dataplane.forwarding import PathStatus, trace_paths
from repro.policies.base import Policy, PolicyCheckContext


class BoundedPathLength(Policy):
    """Delivered paths from the sources must use at most ``max_hops`` hops."""

    name = "bounded-path-length"

    def __init__(
        self,
        max_hops: int,
        sources: Optional[Sequence[str]] = None,
        destination_prefix: Optional[Prefix] = None,
    ) -> None:
        if max_hops < 0:
            raise PolicyError("max_hops must be non-negative")
        self.max_hops = max_hops
        self.sources = list(sources) if sources is not None else None
        self.destination_prefix = destination_prefix

    def check(self, context: PolicyCheckContext) -> Optional[str]:
        sources = self.sources if self.sources is not None else context.data_plane.devices()
        destination = context.destination
        for source in sources:
            # Trace with a budget slightly above the bound so an over-long
            # path is observed rather than truncated at exactly the limit.
            for branch in trace_paths(
                context.data_plane, source, destination, max_hops=self.max_hops + 8
            ):
                if branch.status == PathStatus.DELIVERED and branch.length > self.max_hops:
                    return (
                        f"path from {source} to {context.pec.address_range} uses "
                        f"{branch.length} hops (> {self.max_hops}): {branch.describe()}"
                    )
                if branch.status in (PathStatus.LOOP, PathStatus.TRUNCATED):
                    return (
                        f"path from {source} to {context.pec.address_range} exceeds the "
                        f"hop budget: {branch.describe()}"
                    )
        return None
