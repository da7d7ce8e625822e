"""Black-hole freedom policy: no device silently discards the PEC's traffic."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.dataplane.forwarding import ForwardingGraph
from repro.netaddr import Prefix
from repro.policies.base import Policy, PolicyCheckContext


class BlackHoleFreedom(Policy):
    """No device that can receive the PEC's traffic may lack a forwarding entry.

    A *black hole* is a device with no matching FIB entry (and no explicit
    drop) for the destination.  By default every device is considered; pass
    ``sources`` to restrict the check to devices reachable from a set of
    traffic sources, which is the common operational interpretation.
    """

    name = "blackhole-freedom"

    def __init__(
        self,
        destination_prefix: Optional[Prefix] = None,
        sources: Optional[Sequence[str]] = None,
    ) -> None:
        self.destination_prefix = destination_prefix
        self.sources = list(sources) if sources else None

    def check(self, context: PolicyCheckContext) -> Optional[str]:
        graph = ForwardingGraph(context.data_plane, context.destination)
        holes = set(graph.black_holes())
        if not holes:
            return None
        if self.sources is None:
            offender = sorted(holes)[0]
            return (
                f"device {offender} black-holes traffic to {context.pec.address_range}"
            )
        # Restrict to black holes actually reachable from the sources.
        reachable: set = set()
        for source in self.sources:
            stack = [source]
            while stack:
                node = stack.pop()
                if node in reachable:
                    continue
                reachable.add(node)
                stack.extend(graph.successors.get(node, ()))
        offending = sorted(holes & reachable)
        if offending:
            return (
                f"device {offending[0]} black-holes traffic to "
                f"{context.pec.address_range} reachable from {self.sources}"
            )
        return None
