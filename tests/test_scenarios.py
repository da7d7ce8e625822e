"""Tests for the lifecycle scenario universe (`repro.scenarios`).

Three layers:

* unit tests of the event vocabulary and the enumerator mechanics (universe
  construction, canonical ordering of commuting events, ledger accounting,
  error cases);
* the brute-force oracle (the satellite pin): on two topology families —
  the 4-node square eBGP network and the fat-tree (k=4) eBGP fabric — the
  symmetry/LEC-reduced k-event enumeration reaches *exactly* the same
  verdict set as the unreduced brute enumeration, with the reduction counts
  ledgered and strictly positive;
* a fault-injection run over a scenario campaign: the supervision layer's
  partial-result labelling holds when a (failure x scenario) task dies.
"""

import pytest

from repro.config.parser import parse_config
from repro.core.options import PlanktonOptions
from repro.engine import faults
from repro.engine.faults import FaultPlan, FaultSpec
from repro.engine.graph import event_scenarios_for_pec
from repro.exceptions import ProtocolError, TopologyError
from repro.scenarios import (
    Converge,
    FailSession,
    GrayFailure,
    MaintenanceDrain,
    NodeCrash,
    ReturnToService,
    Scenario,
    ScenarioLedger,
    enumerate_event_scenarios,
    event_universe,
    scenario_from_descriptor,
)
from repro.topology.generators import linear_chain
from repro.topology.io import parse_topology
from repro.transient import (
    TransientAnalyzer,
    TransientBlackHoleFreedom,
    TransientLoopFreedom,
    TransientOptions,
)

from tests.oracles.scenario_reference import brute_event_scenarios
from tests.test_cli import BGP_CONFIG, BGP_TOPOLOGY_TEXT


def _square_network():
    return parse_config(parse_topology(BGP_TOPOLOGY_TEXT), BGP_CONFIG)


def _fat_tree_network():
    from repro.config import ebgp_rfc7938
    from repro.topology import bgp_fat_tree

    return ebgp_rfc7938(bgp_fat_tree(4))


def _bgp_pec(network):
    from repro.pec.classes import compute_pecs

    return next(pec for pec in compute_pecs(network) if pec.has_bgp())


def _bgp_instance(network, pec):
    from repro.core.network_model import DependencyContext, PecExplorer
    from repro.core.options import PlanktonOptions
    from repro.topology.failures import FailureScenario

    explorer = PecExplorer(
        network,
        pec,
        FailureScenario(),
        PlanktonOptions(),
        dependency_context=DependencyContext(),
    )
    prefix = next(prefix for prefix, devices in pec.bgp_origins if devices)
    return explorer.bgp_instance(prefix)


# --------------------------------------------------------------------------- units
class TestEventUniverse:
    def test_square_universe_contents(self):
        topology = parse_topology(BGP_TOPOLOGY_TEXT)
        universe = event_universe(topology, kinds=("crash", "gray"))
        assert ("crash", "o") in universe
        assert ("crash", "m") in universe
        # Gray failures are directional: both orientations of every session.
        assert ("gray", "a", "b") in universe and ("gray", "b", "a") in universe
        assert len(universe) == 4 + 2 * 4  # 4 nodes, 4 links

    def test_unknown_kind_raises(self):
        topology = parse_topology(BGP_TOPOLOGY_TEXT)
        with pytest.raises(TopologyError, match="unknown event kind"):
            event_universe(topology, kinds=("crash", "meteor"))
        with pytest.raises(TopologyError, match="unknown event kind"):
            enumerate_event_scenarios(topology, 1, kinds=("meteor",))

    def test_negative_budget_raises(self):
        topology = parse_topology(BGP_TOPOLOGY_TEXT)
        with pytest.raises(TopologyError, match="non-negative"):
            enumerate_event_scenarios(topology, -1)
        with pytest.raises(TopologyError, match="non-negative"):
            brute_event_scenarios(topology, -1)

    def test_transient_options_validate_scenario_fields(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            TransientOptions(scenario_kinds=("meteor",))
        with pytest.raises(ValueError, match="scenario_events"):
            TransientOptions(scenario_events=-1)


class TestScenarioConstruction:
    def test_descriptor_round_trip(self):
        scenario = scenario_from_descriptor((("crash", "m"), ("gray", "a", "b")))
        assert scenario.name == "crash m; gray a->b"
        assert isinstance(scenario.events[0], Converge)
        assert scenario.events[1] == NodeCrash("m")
        assert scenario.events[2] == GrayFailure("a", "b")

    def test_maintenance_descriptor_is_a_staged_pair(self):
        scenario = scenario_from_descriptor((("maintenance", "m"),))
        assert scenario.events[1] == MaintenanceDrain("m")
        assert scenario.events[2] == ReturnToService("m")

    def test_flap_descriptor_uses_fail_session(self):
        scenario = scenario_from_descriptor((("flap", "a", "b"),), converge_first=False)
        assert scenario.events == (FailSession("a", "b"),)

    def test_empty_descriptor_is_the_steady_state(self):
        scenario = scenario_from_descriptor(())
        assert scenario.events == ()
        assert scenario.describe() == "steady state"

    def test_staged_scenario_describes_its_events(self):
        scenario = Scenario(events=(NodeCrash("x"), MaintenanceDrain("y")))
        assert scenario.describe() == "crash x; drain y"


class TestCanonicalOrdering:
    def test_commuting_far_apart_events_collapse(self):
        """On a long chain the endpoints are outside each other's read cone,
        so (crash left, crash right) and (crash right, crash left) are one
        scenario; adjacent nodes do not commute and keep both orders."""
        topology = linear_chain(6)
        ledger = ScenarioLedger()
        scenarios = enumerate_event_scenarios(
            topology,
            2,
            kinds=("crash",),
            # Pin every node into its own class so only the ordering
            # canonicalisation (not DEC symmetry) reduces anything.
            interesting_nodes=sorted(topology.nodes),
            ledger=ledger,
        )
        names = {scenario.name for scenario in scenarios}
        chain = sorted(topology.nodes)
        far_pair = {f"crash {chain[0]}; crash {chain[-1]}",
                    f"crash {chain[-1]}; crash {chain[0]}"}
        near_pair = {f"crash {chain[0]}; crash {chain[1]}",
                     f"crash {chain[1]}; crash {chain[0]}"}
        assert len(far_pair & names) == 1
        assert near_pair <= names
        assert ledger.pruned > 0

    def test_ledger_brute_count_matches_enumeration(self):
        topology = parse_topology(BGP_TOPOLOGY_TEXT)
        ledger = ScenarioLedger()
        enumerate_event_scenarios(topology, 2, kinds=("crash", "drain"), ledger=ledger)
        brute = brute_event_scenarios(topology, 2, kinds=("crash", "drain"))
        assert ledger.universe == 8
        assert ledger.brute == len(brute)
        assert 0 < ledger.emitted < ledger.brute
        assert ledger.as_dict()["pruned"] == ledger.pruned


# --------------------------------------------------------------------------- brute-force oracle
def _verdict(instance, scenario, max_depth):
    """The isomorphism-invariant verdict of one scenario's exploration."""
    try:
        result = TransientAnalyzer(
            instance,
            max_states=300_000,
            max_depth=max_depth,
            stop_at_first_violation=False,
            por="ample",
        ).analyze(
            [TransientLoopFreedom(ignore_converged=True), TransientBlackHoleFreedom()],
            initial_events=[scenario],
        )
    except ProtocolError:
        return ("divergent",)
    # A state-budget cut depends on exploration order, which is not symmetry
    # invariant; the depth bound is (depth is preserved by relabelling).
    assert not result.truncated, scenario.describe()
    return (
        result.holds,
        tuple(sorted({v.property_name for v in result.violations})),
    )


def _verdict_set(instance, scenarios, max_depth):
    return {_verdict(instance, scenario, max_depth) for scenario in scenarios}


def _oracle_case(network, max_events, kinds, max_depth):
    pec = _bgp_pec(network)
    instance = _bgp_instance(network, pec)
    ledger = ScenarioLedger()
    reduced = event_scenarios_for_pec(
        network,
        pec,
        TransientOptions(scenario_events=max_events, scenario_kinds=kinds),
        ledger=ledger,
    )
    brute = brute_event_scenarios(network.topology, max_events, kinds)
    assert ledger.emitted == len(reduced)
    assert ledger.brute == len(brute)
    assert ledger.pruned > 0
    assert _verdict_set(instance, reduced, max_depth) == _verdict_set(
        instance, brute, max_depth
    )
    return ledger


class TestBruteForceOracle:
    """The reduced enumeration preserves the exact verdict set (two topology
    families, as the acceptance criteria require)."""

    def test_square_k1_all_kinds(self):
        ledger = _oracle_case(
            _square_network(), 1, ("crash", "restart", "drain", "maintenance",
                                   "flap", "gray"), max_depth=10
        )
        # The square's only symmetry is the a/b pair, so the reduction is
        # modest here; the fat-tree case below pins the dramatic one.
        assert ledger.emitted < ledger.brute

    def test_square_k2_crash_drain(self):
        _oracle_case(_square_network(), 2, ("crash", "drain"), max_depth=10)

    def test_fat_tree_k1_node_kinds(self):
        ledger = _oracle_case(
            _fat_tree_network(), 1, ("crash", "drain", "maintenance"), max_depth=6
        )
        # The fat tree's symmetry makes the reduction dramatic.
        assert ledger.emitted * 2 <= ledger.brute


# --------------------------------------------------------------------------- fault injection
class TestScenarioCampaignUnderFaults:
    def test_partial_result_labelling_survives_scenario_tasks(self):
        """Exhausting one (failure x scenario) task's retries degrades the
        campaign to an explicitly-partial result: the dead task lands in
        ``errors``, every other scenario run still completes, and the
        summary says PARTIAL."""
        from repro.transient.explorer import analyze_pec_transients_over_failures

        network = _square_network()
        pec = _bgp_pec(network)
        transient = TransientOptions(
            max_states=2_000,
            max_depth=16,
            stop_at_first_violation=False,
            scenario_events=1,
            scenario_kinds=("crash", "drain"),
        )
        options = PlanktonOptions(task_retries=0)
        properties = [TransientLoopFreedom(ignore_converged=True)]
        baseline = analyze_pec_transients_over_failures(
            network, pec, properties, options=options, transient=transient
        )
        assert baseline.complete and baseline.event_scenarios > 1
        plan = FaultPlan((FaultSpec(kind="raise", task_id=1, attempt=0),))
        with faults.active(plan):
            campaign = analyze_pec_transients_over_failures(
                network, pec, properties, options=options, transient=transient
            )
        assert not campaign.complete
        assert [failure.task_id for failure in campaign.errors] == [1]
        assert "PARTIAL" in campaign.summary()
        # Every task except the dead one still produced its scenario runs.
        assert len(campaign.runs) == len(baseline.runs) - 1
        surviving = {run.scenario for run in campaign.runs}
        all_scenarios = {run.scenario for run in baseline.runs}
        assert surviving < all_scenarios

    def test_clean_scenario_campaign_labels_runs(self):
        """Without faults every run carries its scenario description and the
        campaign counts both axes of the cross-product."""
        from repro.transient.explorer import analyze_pec_transients_over_failures

        network = _square_network()
        pec = _bgp_pec(network)
        transient = TransientOptions(
            max_states=2_000,
            max_depth=16,
            stop_at_first_violation=False,
            scenario_events=1,
            scenario_kinds=("crash",),
        )
        campaign = analyze_pec_transients_over_failures(
            network, pec, [TransientLoopFreedom(ignore_converged=True)],
            transient=transient,
        )
        assert campaign.complete
        assert campaign.event_scenarios > 1
        assert campaign.failure_scenarios == 1
        assert len(campaign.runs) == campaign.event_scenarios
        labels = {run.scenario for run in campaign.runs}
        assert "steady state" in labels
        assert any(label.startswith("crash ") for label in labels)
        assert "event scenario(s)" in campaign.summary()
