"""Reachability policy: traffic from the sources must be delivered."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.exceptions import PolicyError
from repro.netaddr import Prefix
from repro.dataplane.forwarding import PathStatus, trace_paths
from repro.policies.base import Policy, PolicyCheckContext


class Reachability(Policy):
    """Every packet of the PEC sent from each source node must be delivered.

    Args:
        sources: Nodes traffic is injected at.  ``None`` means every device.
        destination_prefix: Restrict the check to PECs overlapping this
            prefix (e.g. a single advertised destination).  ``None`` checks
            every PEC the verifier analyses.
        any_branch: When False (default) every ECMP branch must be
            delivered; when True one delivered branch suffices.
    """

    name = "reachability"

    def __init__(
        self,
        sources: Optional[Sequence[str]] = None,
        destination_prefix: Optional[Prefix] = None,
        any_branch: bool = False,
    ) -> None:
        if sources is not None and not sources:
            raise PolicyError("reachability needs at least one source (or None for all)")
        self.sources = list(sources) if sources is not None else None
        self.destination_prefix = destination_prefix
        self.any_branch = any_branch

    def check(self, context: PolicyCheckContext) -> Optional[str]:
        sources = self.sources if self.sources is not None else context.data_plane.devices()
        destination = context.destination
        for source in sources:
            if source not in context.data_plane.fibs:
                raise PolicyError(f"reachability source {source!r} is not a device")
            branches = trace_paths(context.data_plane, source, destination)
            delivered = [b for b in branches if b.status == PathStatus.DELIVERED]
            failed = [b for b in branches if b.status != PathStatus.DELIVERED]
            if self.any_branch:
                if not delivered:
                    reason = failed[0].describe() if failed else "no forwarding entry"
                    return (
                        f"traffic from {source} to {context.pec.address_range} is never "
                        f"delivered ({reason})"
                    )
            elif failed:
                return (
                    f"traffic from {source} to {context.pec.address_range} is not "
                    f"delivered on all branches: {failed[0].describe()}"
                )
        return None
