"""A Batfish-style single-execution control-plane simulator.

Simulation-based configuration analysis "executes the system only along a
single non-deterministic path, and can hence miss violations in networks that
have multiple stable convergences" (paper §2).  This baseline does exactly
that: for every relevant PEC it runs one SPVP execution (with a seeded
message order), builds the resulting data plane with the same FIB model the
verifier uses, and checks the policy on that single converged state.

Its purpose in the reproduction is the Figure 1 feature-matrix tests: on BGP
configurations with multiple stable states (wedgies, the data-center waypoint
misconfiguration) the simulator reports "holds" while Plankton finds the
violating convergence.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.config.objects import NetworkConfig
from repro.core.network_model import DependencyContext, PecExplorer
from repro.core.options import PlanktonOptions
from repro.dataplane import DataPlane
from repro.pec.classes import PacketEquivalenceClass, compute_pecs
from repro.policies.base import Policy, PolicyCheckContext
from repro.protocols.base import Route
from repro.protocols.spvp import SpvpStepper
from repro.topology.failures import FailureScenario


@dataclass
class SimulationResult:
    """Outcome of a single-execution (simulation) check."""

    holds: bool
    elapsed_seconds: float
    pecs_checked: int
    violations: List[str] = field(default_factory=list)


class SimulationVerifier:
    """Single-path simulation of the control plane + policy check."""

    def __init__(self, network: NetworkConfig, seed: int = 0) -> None:
        self.network = network
        self.seed = seed

    @functools.cached_property
    def pecs(self) -> List[PacketEquivalenceClass]:
        """The PEC partition :meth:`check` walks (``trace`` never needs it)."""
        return compute_pecs(self.network)

    def data_plane(
        self, pec: PacketEquivalenceClass, failure: Optional[FailureScenario] = None
    ) -> Tuple[DataPlane, Dict[str, Route]]:
        """One simulated convergence of ``pec``: ``(data plane, control plane)``.

        One seeded SPVP execution per BGP prefix: a drain whose next channel
        a fresh ``random.Random(seed)`` picks from the canonical
        pending-channel order, so seeded runs pick the same interleaving the
        original dict-based simulator did.
        """
        explorer = PecExplorer(
            self.network,
            pec,
            failure or FailureScenario(),
            PlanktonOptions(),
            dependency_context=DependencyContext(),
        )
        bgp_states: Dict = {}
        for prefix, devices in pec.bgp_origins:
            if not devices:
                continue
            stepper = SpvpStepper(explorer.bgp_instance(prefix))
            converged = stepper.drain(
                stepper.initial_state(), choose=random.Random(self.seed).choice
            )
            bgp_states[prefix] = converged.converged_rpvp()
        return explorer.build_data_plane(bgp_states)

    def check(
        self,
        policies: Union[Policy, Sequence[Policy]],
        failure: Optional[FailureScenario] = None,
    ) -> SimulationResult:
        """Simulate one convergence per PEC and check the policies on it."""
        started = time.perf_counter()
        policy_list = [policies] if isinstance(policies, Policy) else list(policies)
        failure = failure or FailureScenario()
        violations: List[str] = []
        checked = 0

        for pec in self.pecs:
            if not any(policy.applies_to(pec) for policy in policy_list):
                continue
            checked += 1
            data_plane, control_plane = self.data_plane(pec, failure)
            for policy in policy_list:
                if not policy.applies_to(pec):
                    continue
                context = PolicyCheckContext(
                    network=self.network,
                    pec=pec,
                    data_plane=data_plane,
                    failure=failure,
                    control_plane=control_plane,
                )
                message = policy.check(context)
                if message is not None:
                    violations.append(f"[{policy.name}] {message}")

        return SimulationResult(
            holds=not violations,
            elapsed_seconds=time.perf_counter() - started,
            pecs_checked=checked,
            violations=violations,
        )
