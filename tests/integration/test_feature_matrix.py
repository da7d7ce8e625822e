"""Figure 1 as executable tests: the qualitative feature comparison.

| Feature                                     | Simulation | ARC | Plankton |
|---------------------------------------------|------------|-----|----------|
| All data planes, including failures         |     no     | ~   |   yes    |
| Support beyond specific protocols           |    yes     | no  |   yes    |

Each cell the paper claims is demonstrated by a concrete scenario.
"""

import pytest

from repro import Plankton, PlanktonOptions
from repro.baselines import SimulationVerifier
from repro.config import ebgp_rfc7938, ibgp_over_ospf, ospf_everywhere
from repro.config.builder import edge_prefix
from repro.exceptions import VerificationError
from repro.netaddr import Prefix
from repro.policies import Reachability, Waypoint
from repro.topology import bgp_fat_tree, fat_tree, ring
from tests.oracles.arc import ArcVerifier
from tests.oracles.minesweeper import MinesweeperVerifier
from tests.helpers import linear_chain


class TestAllDataPlaneCoverage:
    """Plankton explores every converged state; simulation explores one."""

    def test_plankton_finds_order_dependent_violation_simulation_can_miss(self):
        topology = bgp_fat_tree(4)
        network = ebgp_rfc7938(topology, waypoints=["agg0_0"], steer_through_waypoints=False)
        policy = Waypoint(
            sources=["edge0_0"], waypoints=["agg0_0"], destination_prefix=edge_prefix(3, 1)
        )
        assert not Plankton(network).verify(policy).holds
        simulated = [SimulationVerifier(network, seed=s).check(policy).holds for s in range(6)]
        assert any(simulated), "every simulated ordering happened to violate; pick another seed"

    def test_plankton_covers_failures(self):
        network = ospf_everywhere(
            linear_chain(3), originate_roles=("router",), prefix_for={"r0": Prefix("10.0.0.0/24")}
        )
        policy = Reachability(sources=["r2"], require_all_branches=False)
        no_failures = Plankton(network).verify(policy)
        with_failures = Plankton(network, PlanktonOptions(max_failures=1)).verify(policy)
        assert no_failures.holds and not with_failures.holds


class TestProtocolSupport:
    """ARC is limited to shortest-path routing; Plankton and the
    Minesweeper-like baseline handle BGP policy and recursion."""

    def test_arc_rejects_bgp_local_pref(self):
        topology = bgp_fat_tree(4)
        network = ebgp_rfc7938(topology, waypoints=["agg0_0"], steer_through_waypoints=True)
        with pytest.raises(VerificationError):
            ArcVerifier(network)

    def test_plankton_handles_bgp_local_pref(self):
        topology = bgp_fat_tree(4)
        network = ebgp_rfc7938(topology, waypoints=["agg0_0"], steer_through_waypoints=True)
        policy = Waypoint(
            sources=["edge0_0"], waypoints=["agg0_0"], destination_prefix=edge_prefix(3, 1)
        )
        assert Plankton(network).verify(policy).holds

    def test_plankton_and_minesweeper_handle_recursion(self):
        topology = ring(5)
        network = ibgp_over_ospf(topology, {"r0": Prefix("200.0.0.0/16")})
        policy = Reachability(destination_prefix=Prefix("200.0.0.0/16"), require_all_branches=False)
        assert Plankton(network).verify(policy).holds
        result = MinesweeperVerifier(network).check_ibgp_reachability(
            Prefix("200.0.0.0/16"), sources=["r2"]
        )
        assert result.holds


class TestSoundnessAgreement:
    """Plankton and the constraint-based baseline agree on verdicts (the
    paper's cross-check: 'the two tools produced the same policy verification
    results')."""

    @pytest.mark.parametrize("make_loop", [False, True])
    def test_loop_verdicts_agree(self, make_loop):
        from repro.config.builder import install_loop_inducing_statics
        from repro.policies import LoopFreedom

        network = ospf_everywhere(fat_tree(4))
        if make_loop:
            install_loop_inducing_statics(
                network, edge_prefix(0, 0), ["agg1_0", "edge1_0", "agg1_1", "edge1_1"]
            )
        prefix = edge_prefix(0, 0)
        plankton = Plankton(network).verify(LoopFreedom(destination_prefix=prefix))
        minesweeper = MinesweeperVerifier(network).check_loop_freedom(prefix)
        assert plankton.holds == minesweeper.holds == (not make_loop)

    def test_reachability_verdicts_agree_under_failures(self):
        network = ospf_everywhere(
            ring(4), originate_roles=("router",), prefix_for={"r0": Prefix("10.0.0.0/24")}
        )
        policy = Reachability(sources=["r2"], require_all_branches=False)
        plankton = Plankton(network, PlanktonOptions(max_failures=1)).verify(policy)
        minesweeper = MinesweeperVerifier(network, max_failures=1).check_reachability(
            Prefix("10.0.0.0/24"), sources=["r2"]
        )
        assert plankton.holds == minesweeper.holds is True
