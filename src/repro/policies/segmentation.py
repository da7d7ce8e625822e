"""Segmentation (isolation) policy: traffic from the sources must never reach
the protected devices.

This is the complement of reachability and the policy class ERA targets (the
paper's Figure 1 notes ERA's soundness "for segmentation policies only").
Typical uses: a guest VLAN must not reach the finance segment, an external
stub must not reach management loopbacks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.exceptions import PolicyError
from repro.netaddr import Prefix
from repro.dataplane.forwarding import trace_paths
from repro.pec.classes import PacketEquivalenceClass
from repro.policies.base import Policy, PolicyCheckContext


class Segmentation(Policy):
    """Packets sent by ``sources`` must never traverse or reach ``protected``.

    The check fails when any forwarding branch from a source visits a
    protected device — whether the packet is delivered there or merely
    transits it.
    """

    name = "segmentation"

    def __init__(
        self,
        sources: Sequence[str],
        protected: Sequence[str],
        destination_prefix: Optional[Prefix] = None,
    ) -> None:
        if not sources:
            raise PolicyError("segmentation policy needs at least one source")
        if not protected:
            raise PolicyError("segmentation policy needs at least one protected device")
        overlap = set(sources) & set(protected)
        if overlap:
            raise PolicyError(
                f"devices cannot be both sources and protected: {sorted(overlap)}"
            )
        self.sources = list(sources)
        self.protected = list(protected)
        self.destination_prefix = destination_prefix

    def interesting_nodes(self, pec: PacketEquivalenceClass) -> Optional[List[str]]:
        return list(self.protected)

    def check(self, context: PolicyCheckContext) -> Optional[str]:
        destination = context.destination
        protected_set = set(self.protected)
        for source in self.sources:
            for branch in trace_paths(context.data_plane, source, destination):
                touched = [node for node in branch.nodes if node in protected_set]
                if touched:
                    return (
                        f"traffic from {source} to {context.pec.address_range} reaches "
                        f"protected device(s) {', '.join(sorted(set(touched)))}: "
                        f"{branch.describe()}"
                    )
        return None
