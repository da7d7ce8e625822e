"""Tests for the lifecycle scenario universe (`repro.scenarios`).

Three layers:

* unit tests of the event vocabulary, the one scenario grammar and the
  enumerator mechanics (universe
  construction, canonical ordering of commuting events, ledger accounting,
  error cases);
* the brute-force oracle: on three network families — the 4-node square
  eBGP network, the fat-tree (k=4) eBGP fabric and an iBGP full mesh over
  a 6-ring, whose sessions are not its links — the
  symmetry/LEC-reduced k-event enumeration reaches *exactly* the same
  verdict set as the unreduced brute enumeration, with the reduction counts
  ledgered and strictly positive;
* a fault-injection run over a scenario campaign: the supervision layer's
  partial-result labelling holds when a (PEC, failure) task — and with it
  every scenario run of that failure — dies.
"""

import pytest

from repro.config.parser import parse_config
from repro.core.options import PlanktonOptions
from repro.core.verifier import Plankton
from repro.engine.graph import _origin_colors, event_scenarios_for_pec, network_symmetry
from repro.exceptions import ProtocolError, SpecError, TopologyError
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
from repro.scenarios.enumerator import EVENT_KINDS, _EVENTS
from repro.serve.specs import scenario_from_spec
from repro.topology.generators import linear_chain
from repro.topology.io import parse_topology
from repro.transient import (
    TransientAnalyzer,
    TransientBlackHoleFreedom,
    TransientLoopFreedom,
    TransientOptions,
)

from tests import faults
from tests.faults import FaultPlan, FaultSpec
from tests.oracles.scenario_reference import brute_event_scenarios
from tests.test_cli import BGP_CONFIG, BGP_TOPOLOGY_TEXT


def _square_network():
    return parse_config(parse_topology(BGP_TOPOLOGY_TEXT), BGP_CONFIG)


def _fat_tree_network():
    from repro.config import ebgp_rfc7938
    from repro.topology import bgp_fat_tree

    return ebgp_rfc7938(bgp_fat_tree(4))


def _ibgp_ring_network():
    """iBGP full mesh over OSPF on a 6-ring: 15 sessions, 9 of them over no link."""
    from repro.config import ibgp_over_ospf
    from repro.netaddr import Prefix
    from repro.topology.generators import ring

    return ibgp_over_ospf(ring(6), {"r0": Prefix("200.0.0.0/16")})


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
        network = _square_network()
        universe = event_universe(network.topology, network.bgp_peers(), kinds=("crash", "gray"))
        assert ("crash", "o") in universe
        assert ("crash", "m") in universe
        # Gray failures are directional: both orientations of every session.
        assert ("gray", "a", "b") in universe and ("gray", "b", "a") in universe
        assert len(universe) == 4 + 2 * 4  # 4 nodes, 4 sessions (one per link)

    def test_unknown_kind_raises(self):
        topology = parse_topology(BGP_TOPOLOGY_TEXT)
        with pytest.raises(TopologyError, match="unknown event kind"):
            event_universe(topology, {}, kinds=("crash", "meteor"))
        with pytest.raises(TopologyError, match="unknown event kind"):
            enumerate_event_scenarios(topology, {}, 1, kinds=("meteor",))

    def test_negative_budget_raises(self):
        topology = parse_topology(BGP_TOPOLOGY_TEXT)
        with pytest.raises(TopologyError, match="non-negative"):
            enumerate_event_scenarios(topology, {}, -1)
        with pytest.raises(TopologyError, match="non-negative"):
            brute_event_scenarios(topology, {}, -1)

    def test_transient_options_validate_scenario_fields(self):
        with pytest.raises(ValueError, match="scenario_events"):
            TransientOptions(scenario_events=-1)


class TestScenarioConstruction:
    def test_descriptor_round_trip(self):
        scenario = scenario_from_descriptor((("crash", "m"), ("gray", "a", "b")))
        assert scenario.name == "crash m; gray a->b"
        assert isinstance(scenario.events[0], Converge)
        assert scenario.events[1] == NodeCrash("m")
        assert scenario.events[2] == GrayFailure("a", "b")

    def test_maintenance_descriptor_settles_between_drain_and_return(self):
        scenario = scenario_from_descriptor((("maintenance", "m"),))
        assert scenario.name == "maintenance m"
        assert scenario.events == (
            Converge(), MaintenanceDrain("m"), Converge(), ReturnToService("m")
        )

    def test_drain_return_descriptor_is_the_unsettled_pair(self):
        scenario = scenario_from_descriptor((("drain-return", "m"),))
        assert scenario.name == "drain-return m"
        assert scenario.events == (Converge(), MaintenanceDrain("m"), ReturnToService("m"))

    def test_flap_descriptor_uses_fail_session(self):
        scenario = scenario_from_descriptor((("flap", "a", "b"),))
        assert scenario.events == (Converge(), FailSession("a", "b"))

    def test_empty_descriptor_is_the_steady_state(self):
        scenario = scenario_from_descriptor(())
        assert scenario.events == ()
        assert scenario.describe() == "steady state"

    def test_staged_scenario_describes_its_events(self):
        scenario = Scenario(events=(NodeCrash("x"), MaintenanceDrain("y")))
        assert scenario.describe() == "crash x; drain y"


#: One spec of every kind on the square (links o-m, m-a, m-b, a-b), with the
#: descriptors it must parse to.
SPECS = {
    "crash:m": [("crash", "m")],
    "restart:m": [("restart", "m")],
    "drain:a": [("drain", "a")],
    "return:a": [("return", "a")],
    "drain-return:a": [("drain-return", "a")],
    "maintenance:a": [("maintenance", "a")],
    "flap:o,m": [("flap", "o", "m")],
    "flap:m,o": [("flap", "m", "o")],
    "gray:a,b": [("gray", "a", "b")],
    "gray:b,a": [("gray", "b", "a")],
    "drain:a+return:a": [("drain", "a"), ("return", "a")],
    "crash:m + gray:a,b": [("crash", "m"), ("gray", "a", "b")],
}


class TestOneGrammar:
    """Every front end builds a scenario from descriptors, so one word
    names one event sequence wherever it is spelled."""

    def test_every_spec_builds_the_events_of_its_descriptors(self):
        network = _square_network()
        kinds = {descriptor[0] for descriptors in SPECS.values() for descriptor in descriptors}
        assert kinds == set(_EVENTS)
        for spec, descriptors in SPECS.items():
            scenario = scenario_from_spec(spec, network)
            assert scenario.name == spec
            assert scenario.events == scenario_from_descriptor(descriptors).events, spec

    def test_no_two_scenarios_with_one_label_build_different_events(self):
        """A walk over every constructor: each descriptor kind, each spec
        kind and the enumerator's output at k <= 2 on the square and
        on the fat tree k=4."""
        events_by_label = {}

        def record(label, events):
            events_by_label.setdefault(label, set()).add(tuple(events))

        for network in (_square_network(), _fat_tree_network()):
            topology, peers = network.topology, network.bgp_peers()
            for kind in _EVENTS:
                universe = event_universe(topology, peers, [kind]) if kind in EVENT_KINDS else [
                    (kind, node) for node in sorted(topology.nodes)
                ]
                assert universe
                for descriptor in universe:
                    scenario = scenario_from_descriptor([descriptor])
                    record(scenario.name, scenario.events)
                    spec = f"{kind}:{','.join(descriptor[1:])}"
                    record(spec, scenario_from_spec(spec, network).events)
            for max_events in (1, 2):
                for scenario in enumerate_event_scenarios(topology, peers, max_events):
                    record(scenario.name, scenario.events)
        assert len(events_by_label) > 1000
        clashes = {label: events for label, events in events_by_label.items() if len(events) > 1}
        assert clashes == {}

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("flap:o,a", "o and a do not peer over BGP"),
            ("gray:o,a", "o and a do not peer over BGP"),
            ("gray:a,a", "a and a do not peer over BGP"),
            ("flap:a,a", "a and a do not peer over BGP"),
            ("flap:o", "expects two devices"),
            ("crash:o,m", "expects one device"),
            ("crash:zz", "unknown device"),
            ("meteor:m", "unknown scenario kind"),
            ("crash", "malformed scenario part"),
        ],
    )
    def test_a_spec_that_names_no_event_is_refused(self, spec, message):
        with pytest.raises(SpecError, match=message):
            scenario_from_spec(spec, _square_network())

    def test_a_session_is_configured_by_bgp_not_drawn_from_the_links(self):
        """iBGP over OSPF peers devices no link joins, and a link whose ends
        do not both configure the session carries none."""
        from repro.config import ibgp_over_ospf
        from repro.netaddr import Prefix
        from repro.topology.generators import ring

        network = ibgp_over_ospf(ring(6), {"r0": Prefix("200.0.0.0/16")})
        assert not network.topology.links_between("r0", "r3")
        assert scenario_from_spec("flap:r3,r0", network).events == (
            Converge(), FailSession("r3", "r0")
        )
        assert scenario_from_spec("gray:r0,r3", network).events == (
            Converge(), GrayFailure("r0", "r3")
        )
        bgp = network.device("r1").bgp
        bgp.neighbors = [session for session in bgp.neighbors if session.peer != "r0"]
        assert network.device("r0").bgp.neighbor("r1") is not None
        for spec in ("flap:r0,r1", "gray:r1,r0"):
            with pytest.raises(SpecError, match="do not peer over BGP"):
                scenario_from_spec(spec, network)


class TestSessionsAreTheBgpSessionGraph:
    """Session events and the commutation cone follow the BGP sessions,
    which iBGP over an IGP lays between devices no link joins."""

    def test_the_universe_holds_the_sessions_no_link_carries(self):
        network = _ibgp_ring_network()
        topology = network.topology
        universe = event_universe(topology, network.bgp_peers(), kinds=("flap",))
        assert not topology.links_between("r0", "r3")
        assert ("flap", "r0", "r3") in universe
        # Every pair of the six devices peers: the 6 links' sessions come
        # first, in link order, then the 9 link-less ones, sorted.
        assert len(universe) == 15 == len(set(universe))
        linked = [tuple(sorted((link.a, link.b))) for link in topology.links]
        assert [descriptor[1:] for descriptor in universe[:6]] == linked
        assert universe[6:] == sorted(universe[6:])
        scenario_from_spec("flap:r0,r3", network)  # the grammar accepts each of them
        reduced = enumerate_event_scenarios(topology, network.bgp_peers(), 1, kinds=("gray",))
        assert "gray r0->r3" in {scenario.name for scenario in reduced}

    def test_a_link_that_carries_no_session_gives_no_session_event(self):
        network = _ibgp_ring_network()
        for name in ("r0", "r1"):
            bgp = network.device(name).bgp
            other = "r1" if name == "r0" else "r0"
            bgp.neighbors = [session for session in bgp.neighbors if session.peer != other]
        peers = network.bgp_peers()
        assert "r1" not in peers["r0"] and network.topology.links_between("r0", "r1")
        universe = event_universe(network.topology, peers, kinds=("flap", "gray"))
        assert not {d for d in universe if set(d[1:]) == {"r0", "r1"}}
        assert len(universe) == 3 * 14

    def test_crashing_two_ibgp_peers_no_link_joins_does_not_commute(self):
        """r0 and r3 are three hops apart on the ring but hold a session:
        each crash queues a withdrawal on the r0/r3 channels, so the two
        orders reach different SPVP roots and neither may stand for the
        other."""
        from repro.protocols.spvp import SpvpStepper
        from repro.scenarios.enumerator import _commute

        network = _ibgp_ring_network()
        crash_r0, crash_r3 = ("crash", "r0"), ("crash", "r3")
        assert not _commute(network.bgp_peers(), crash_r0, crash_r3, {})
        instance = _bgp_instance(network, _bgp_pec(network))

        def root(order):
            stepper = SpvpStepper(instance)
            return scenario_from_descriptor(order).apply(stepper, stepper.initial_state())

        one, other = root([crash_r0, crash_r3]), root([crash_r3, crash_r0])
        assert one.buffer_map() != other.buffer_map()
        names = {scenario.name for scenario in enumerate_event_scenarios(
            network.topology, network.bgp_peers(), 2, kinds=("crash",),
            colors={name: name for name in network.topology.nodes},
        )}
        assert {"crash r0; crash r3", "crash r3; crash r0"} <= names


class TestCanonicalOrdering:
    def test_commuting_far_apart_events_collapse(self):
        """On a long chain the endpoints are outside each other's read cone,
        so (crash left, crash right) and (crash right, crash left) are one
        scenario; adjacent nodes do not commute and keep both orders."""
        topology = linear_chain(6)
        # A session over every link of the chain.
        peers = {name: frozenset(topology.neighbors(name)) for name in topology.nodes}
        ledger = ScenarioLedger()
        scenarios = enumerate_event_scenarios(
            topology,
            peers,
            2,
            kinds=("crash",),
            # Pin every node into its own class so only the ordering
            # canonicalisation (not DEC symmetry) reduces anything.
            colors={name: name for name in topology.nodes},
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
        enumerate_event_scenarios(topology, {}, 2, kinds=("crash", "drain"), ledger=ledger)
        brute = brute_event_scenarios(topology, {}, 2, kinds=("crash", "drain"))
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
    symmetry = network_symmetry(network)
    # What ``event_scenarios_for_pec`` runs, over a restricted vocabulary.
    reduced = enumerate_event_scenarios(
        symmetry.topology,
        symmetry.peers,
        max_events,
        kinds=kinds,
        colors=_origin_colors(symmetry, pec),
        ledger=ledger,
    )
    if tuple(kinds) == EVENT_KINDS:
        assert reduced == event_scenarios_for_pec(
            symmetry, pec, TransientOptions(scenario_events=max_events)
        )
    brute = brute_event_scenarios(network.topology, network.bgp_peers(), max_events, kinds)
    assert ledger.emitted == len(reduced)
    assert ledger.brute == len(brute)
    assert ledger.pruned > 0
    assert _verdict_set(instance, reduced, max_depth) == _verdict_set(
        instance, brute, max_depth
    )
    return ledger


class TestBruteForceOracle:
    """The reduced enumeration preserves the exact verdict set (three
    network families)."""

    def test_square_k1_all_kinds(self):
        ledger = _oracle_case(_square_network(), 1, EVENT_KINDS, max_depth=10)
        # The square's only symmetry is the a/b pair, so the reduction is
        # modest here; the fat-tree case below pins the dramatic one.
        assert ledger.emitted < ledger.brute

    def test_square_k2_crash_drain(self):
        _oracle_case(_square_network(), 2, ("crash", "drain"), max_depth=10)

    def test_ibgp_ring_k2_crash_flap(self):
        """Sessions over no link, and crashes of devices three hops apart
        that peer: the reduced k=2 set reaches the brute verdict set."""
        _oracle_case(_ibgp_ring_network(), 2, ("crash", "flap"), max_depth=4)

    def test_fat_tree_k1_node_kinds(self):
        ledger = _oracle_case(
            _fat_tree_network(), 1, ("crash", "drain", "drain-return"), max_depth=6
        )
        # The fat tree's symmetry makes the reduction dramatic.
        assert ledger.emitted * 2 <= ledger.brute


# --------------------------------------------------------------------------- fault injection
class TestScenarioCampaignUnderFaults:
    def test_partial_result_labelling_survives_scenario_tasks(self):
        """A transient task is one (PEC, failure) carrying all of its
        scenario runs.  Exhausting one task's retries degrades the campaign
        to an explicitly-partial result: the dead task lands in ``errors``
        and takes every scenario run of its failure with it, the other
        failure's runs all complete, and the summary says PARTIAL."""
        from repro.topology.failures import FailureScenario

        network = _square_network()
        pec = _bgp_pec(network)
        transient = TransientOptions(
            max_states=2_000,
            max_depth=16,
            stop_at_first_violation=False,
            scenario_events=1,
        )
        options = PlanktonOptions(task_retries=0)
        properties = [TransientLoopFreedom(ignore_converged=True)]
        failures = [FailureScenario(), FailureScenario.of([0])]

        def campaign():
            return Plankton(network, options).verify_transients(
                properties, transient=transient, failures=failures, pecs=[pec]
            )

        baseline = campaign()
        assert baseline.complete and baseline.event_scenarios > 1
        assert baseline.failure_scenarios == 2
        per_failure = {
            failure: [run for run in baseline.runs if run.failure == failure]
            for failure in failures
        }
        assert all(len(runs) == baseline.event_scenarios for runs in per_failure.values())
        with faults.active(FaultPlan((FaultSpec(kind="raise", task_id=1, attempt=0),))):
            partial = campaign()
        assert not partial.complete
        assert [failure.task_id for failure in partial.errors] == [1]
        assert partial.errors[0].failure_description == "0"
        assert "PARTIAL" in partial.summary()
        # The dead task's scenario runs are gone; the other failure's survive.
        assert {run.failure for run in partial.runs} == {failures[0]}
        assert [(run.scenario, run.result.stats_signature()) for run in partial.runs] == [
            (run.scenario, run.result.stats_signature()) for run in per_failure[failures[0]]
        ]

    def test_clean_scenario_campaign_labels_runs(self):
        """Without faults every run carries its scenario description and the
        campaign counts both axes of the cross-product."""
        network = _square_network()
        pec = _bgp_pec(network)
        transient = TransientOptions(
            max_states=2_000,
            max_depth=16,
            stop_at_first_violation=False,
            scenario_events=1,
        )
        campaign = Plankton(network).verify_transients(
            [TransientLoopFreedom(ignore_converged=True)], transient=transient, pecs=[pec]
        )
        assert campaign.complete
        assert campaign.event_scenarios > 1
        assert campaign.failure_scenarios == 1
        assert len(campaign.runs) == campaign.event_scenarios
        labels = {run.scenario for run in campaign.runs}
        assert "steady state" in labels
        assert any(label.startswith("crash ") for label in labels)
        assert "event scenario(s)" in campaign.summary()
