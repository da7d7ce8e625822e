"""The policy API.

Plankton does not define a policy language; "a policy is simply an arbitrary
function computed over a data plane state and returning a Boolean value"
(paper §3.5).  The verifier invokes the policy's :meth:`Policy.check`
callback for every converged data plane of every relevant PEC, passing the
data plane, the PEC, and the converged data planes of any PECs the current
one depends on.

A policy can help the verifier's optimizations by declaring *source nodes*
(forwarding only needs to be checked from these) and *interesting nodes*
(waypoints and the like): policy-based pruning (§4.2) stops protocol
execution once all sources have decided, and the failure-choice reduction
(§4.3) keeps interesting nodes in singleton device classes.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Mapping, Optional, Tuple

from repro.config.objects import NetworkConfig
from repro.dataplane import DataPlane
from repro.netaddr import Prefix
from repro.pec.classes import PacketEquivalenceClass
from repro.topology.failures import FailureScenario


class PolicyCheckContext:
    """Everything a policy callback may inspect for one converged state.

    ``data_plane`` is the converged :class:`DataPlane`.  The verifier hands
    a lazy converged outcome in its place
    (:class:`~repro.core.network_model.ConvergedOutcome`): the context's
    ``data_plane`` and, unless one is given, ``control_plane`` are then the
    outcome's, built on first read, so a policy that reads neither builds
    neither.  :attr:`plane_view` is what was handed in, and what
    :func:`~repro.dataplane.forwarding.find_cycle` checks: loop freedom
    answers off the outcome's route ids, building nothing while its
    certificate holds.
    """

    __slots__ = ("network", "pec", "plane_view", "failure", "dependencies", "_control_plane")

    def __init__(
        self,
        network: NetworkConfig,
        pec: PacketEquivalenceClass,
        data_plane: DataPlane,
        failure: Optional[FailureScenario] = None,
        dependencies: Optional[Dict[int, DataPlane]] = None,
        control_plane: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.network = network
        self.pec = pec
        #: The data plane, or the outcome that builds it when first read.
        self.plane_view = data_plane
        self.failure = FailureScenario() if failure is None else failure
        #: Converged data planes of the PECs this PEC depends on, keyed by PEC index.
        self.dependencies = {} if dependencies is None else dependencies
        self._control_plane = control_plane

    @property
    def data_plane(self) -> DataPlane:
        """The converged data plane (built on first read from an outcome)."""
        view = self.plane_view
        return view if isinstance(view, DataPlane) else view.data_plane

    @property
    def control_plane(self) -> Mapping[str, object]:
        """Optional converged control-plane state (per device best routes),
        for policies such as Path Consistency that look beyond the data
        plane: the one given, else the outcome's, else empty."""
        if self._control_plane is None:
            view = self.plane_view
            self._control_plane = {} if isinstance(view, DataPlane) else view.control_plane
        return self._control_plane

    @property
    def destination(self) -> int:
        """The witness destination address of the PEC."""
        return self.pec.representative_address()


class Policy(abc.ABC):
    """Base class for data-plane policies."""

    #: Human-readable policy name (used in trails and results).
    name: str = "policy"
    #: The policy checks only the PECs overlapping this prefix (None: every
    #: PEC with at least one configured prefix).
    destination_prefix: Optional[Prefix] = None
    #: The nodes forwarding is checked from (None: every node).
    sources: Optional[List[str]] = None

    @abc.abstractmethod
    def check(self, context: PolicyCheckContext) -> Optional[str]:
        """Return a violation description, or None when the policy holds."""

    # ------------------------------------------------------------------ hints
    def applies_to(self, pec: PacketEquivalenceClass) -> bool:
        """Whether this policy cares about ``pec`` at all (its
        :attr:`destination_prefix` scope)."""
        if pec.is_empty:
            return False
        return self.destination_prefix is None or pec.address_range.overlaps(
            self.destination_prefix.to_range()
        )

    def source_nodes(self, pec: PacketEquivalenceClass) -> Optional[List[str]]:
        """Nodes forwarding must be checked from (None = every node)."""
        return list(self.sources) if self.sources is not None else None

    def interesting_nodes(self, pec: PacketEquivalenceClass) -> Optional[List[str]]:
        """Nodes whose position on paths matters (None = every node)."""
        return None

    def state_signature(
        self, context: PolicyCheckContext
    ) -> Optional[Tuple]:
        """An equivalence signature of the converged state for this policy.

        Two converged data planes with the same signature need not both be
        checked (paper §3.5: same path lengths from the sources and the same
        interesting nodes at the same positions).  ``None`` disables the
        suppression for this policy.
        """
        sources = self.source_nodes(context.pec)
        if sources is None:
            return None
        interesting = self.interesting_nodes(context.pec)
        from repro.dataplane.forwarding import trace_paths

        signature: List[Tuple] = []
        for source in sorted(sources):
            branches = trace_paths(context.data_plane, source, context.destination)
            for branch in sorted(branches, key=lambda b: b.nodes):
                if interesting is None:
                    marks = tuple(branch.nodes)
                else:
                    marks = tuple(
                        (position, node)
                        for position, node in enumerate(branch.nodes)
                        if node in interesting
                    )
                signature.append((source, branch.length, branch.status.value, marks))
        return tuple(signature)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
