"""Waypoint policy: traffic from the sources must traverse one of the waypoints."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.exceptions import PolicyError
from repro.netaddr import Prefix
from repro.dataplane.forwarding import PathStatus, trace_paths
from repro.pec.classes import PacketEquivalenceClass
from repro.policies.base import Policy, PolicyCheckContext


class Waypoint(Policy):
    """Traffic from ``sources`` must pass through at least one of ``waypoints``.

    This is the paper's running example of a policy that exploits the policy
    API: the sources bound where forwarding is checked from, and the waypoints
    are the interesting nodes used for converged-state equivalence and the
    failure-choice reduction.
    """

    name = "waypoint"

    def __init__(
        self,
        sources: Sequence[str],
        waypoints: Sequence[str],
        destination_prefix: Optional[Prefix] = None,
    ) -> None:
        if not sources:
            raise PolicyError("waypoint policy needs at least one source")
        if not waypoints:
            raise PolicyError("waypoint policy needs at least one waypoint")
        self.sources = list(sources)
        self.waypoints = list(waypoints)
        self.destination_prefix = destination_prefix

    def interesting_nodes(self, pec: PacketEquivalenceClass) -> Optional[List[str]]:
        return list(self.waypoints)

    def check(self, context: PolicyCheckContext) -> Optional[str]:
        destination = context.destination
        waypoint_set = set(self.waypoints)
        for source in self.sources:
            if source in waypoint_set:
                continue
            for branch in trace_paths(context.data_plane, source, destination):
                if branch.status == PathStatus.BLACKHOLE and branch.length == 0:
                    # The source has no route at all: nothing is forwarded, so
                    # nothing bypasses the waypoints.
                    continue
                if not branch.visits_any(self.waypoints):
                    return (
                        f"traffic from {source} to {context.pec.address_range} bypasses "
                        f"all waypoints: {branch.describe()}"
                    )
        return None
