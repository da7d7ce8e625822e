"""Consistency policies: multipath consistency and path consistency.

* **Multipath consistency** (from Minesweeper's policy set, checked by the
  paper on real-world networks, Figure 7(i)): when a device has multiple
  next hops for the PEC, every branch must lead to the same outcome — either
  all branches deliver the traffic or none does.

* **Path consistency** (paper §3.5, class (i)): a policy that inspects the
  converged *control-plane* state in addition to the data plane.  For a set
  of devices, both their selected routes and their forwarding paths must be
  identical (up to the device itself), similar to Minesweeper's Local
  Equivalence.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.exceptions import PolicyError
from repro.netaddr import Prefix
from repro.dataplane.forwarding import PathStatus, trace_paths
from repro.policies.base import Policy, PolicyCheckContext


class MultipathConsistency(Policy):
    """All ECMP branches from each device must have the same delivery outcome."""

    name = "multipath-consistency"

    def __init__(
        self,
        sources: Optional[Sequence[str]] = None,
        destination_prefix: Optional[Prefix] = None,
    ) -> None:
        self.sources = list(sources) if sources is not None else None
        self.destination_prefix = destination_prefix

    def check(self, context: PolicyCheckContext) -> Optional[str]:
        devices = self.sources if self.sources is not None else context.data_plane.devices()
        destination = context.destination
        for device in devices:
            entry = context.data_plane.lookup(device, destination)
            if entry is None or len(entry.next_hops) < 2:
                continue
            outcomes = set()
            for branch in trace_paths(context.data_plane, device, destination):
                delivered = branch.status == PathStatus.DELIVERED
                outcomes.add(delivered)
            if len(outcomes) > 1:
                return (
                    f"{device} load-balances traffic to {context.pec.address_range} "
                    "across paths with different outcomes (some deliver, some do not)"
                )
        return None


class PathConsistency(Policy):
    """A set of devices must agree on both control-plane choice and data-plane path.

    The devices in ``sources`` are expected to behave identically for the
    PEC: their selected routes (control-plane state, as recorded by the
    verifier in ``context.control_plane``) must rank the same way, and the
    forwarding paths from them must be identical once the first hop is left
    (they typically sit behind a common pair of upstreams).
    """

    name = "path-consistency"

    def __init__(
        self,
        sources: Sequence[str],
        destination_prefix: Optional[Prefix] = None,
    ) -> None:
        if len(sources) < 2:
            raise PolicyError(
                f"sources must name at least two devices to compare (got {len(sources)})"
            )
        self.sources = list(sources)
        self.destination_prefix = destination_prefix

    def _path_signature(self, context: PolicyCheckContext, device: str) -> Tuple:
        branches = trace_paths(context.data_plane, device, context.destination)
        return tuple(
            (branch.nodes[1:], branch.status.value)
            for branch in sorted(branches, key=lambda b: b.nodes)
        )

    def _control_signature(self, context: PolicyCheckContext, device: str) -> Optional[Tuple]:
        route = context.control_plane.get(device)
        if route is None:
            return None
        # The verifier stores the selected Route; compare everything except
        # the concrete next hop (which legitimately differs per device).
        return (route.source.name, route.local_pref, route.as_path_length, route.med)

    def check(self, context: PolicyCheckContext) -> Optional[str]:
        reference_device = self.sources[0]
        reference_path = self._path_signature(context, reference_device)
        reference_control = self._control_signature(context, reference_device)
        for device in self.sources[1:]:
            if self._path_signature(context, device) != reference_path:
                return (
                    f"devices {reference_device} and {device} forward traffic to "
                    f"{context.pec.address_range} along different paths"
                )
            control = self._control_signature(context, device)
            if reference_control is not None and control is not None and control != reference_control:
                return (
                    f"devices {reference_device} and {device} selected routes with "
                    f"different attributes for {context.pec.address_range}"
                )
        return None
