"""Loop-freedom policy: the data plane must contain no forwarding loop."""

from __future__ import annotations

from typing import Optional

from repro.dataplane.forwarding import find_cycle
from repro.netaddr import Prefix
from repro.policies.base import Policy, PolicyCheckContext


class LoopFreedom(Policy):
    """No packet of the PEC may be forwarded around a cycle.

    As the paper notes, a loop policy "can't optimize as aggressively: it has
    to consider all sources", so this policy declares no source nodes and the
    whole forwarding graph is analysed — for a plane derived from a loop-free
    one, or a converged state laid against one, from the devices it changed
    (:func:`find_cycle`), without building the state's plane while that
    certificate holds.
    """

    name = "loop-freedom"

    def __init__(self, destination_prefix: Optional[Prefix] = None) -> None:
        self.destination_prefix = destination_prefix

    def check(self, context: PolicyCheckContext) -> Optional[str]:
        cycle = find_cycle(context.plane_view, context.destination)
        if cycle is not None:
            return (
                f"forwarding loop for {context.pec.address_range}: "
                + " -> ".join(cycle)
            )
        return None
