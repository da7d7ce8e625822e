"""Oracle: a campaign task's shared drain is every scenario's own drain.

A transient campaign task is one (PEC, failure).  It builds each BGP
prefix's instance once, applies the overlay-free events its scenarios start
with (the base events and a leading ``Converge()``) once, and explores every
lifecycle scenario from that shared state on a fresh stepper
(:func:`repro.transient.explorer.execute_transient_task`).  The path it
replaced ran one fresh ``TransientAnalyzer(instance).analyze(properties,
initial_events=base + scenario.events)`` per (failure, scenario).  These
tests draw small eBGP campaigns and pin every run's ``stats_signature()`` —
the counts, the violations and their whole witnesses — to that path.

The draws mix every event kind, the overlay-setting ones (maintenance drain,
return to service, gray failure) together in one task so an overlay left
behind by one scenario would show in the next; a session-flap base
(``initial_events``);
and both ``--all-violations`` and stop-at-first on the serial backend.

The steppers of a task share more than the drain: the SPVP transfer memos
live once per protocol instance, and the analyzer builds its fingerprinter
and ample selector once.  ``TestTransferMemoLifetime`` pins
both lifetimes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ebgp_rfc7938
from repro.config.parser import parse_config
from repro.core.network_model import DependencyContext, PecExplorer
from repro.core.options import PlanktonOptions
from repro.core.verifier import Plankton
from repro.pec.classes import compute_pecs
from repro.protocols.spvp import SpvpStepper
from repro.scenarios import (
    EVENT_KINDS,
    Converge,
    FailSession,
    GrayFailure,
    MaintenanceDrain,
    NodeCrash,
    ReturnToService,
    Scenario,
    enumerate_event_scenarios,
)
from repro.topology import bgp_fat_tree
from repro.topology.failures import FailureScenario
from repro.topology.io import parse_topology
from repro.transient import TransientAnalyzer, TransientLoopFreedom, TransientOptions

from tests.helpers import best_map
from tests.test_cli import BGP_CONFIG, BGP_TOPOLOGY_TEXT

PROPERTIES = [TransientLoopFreedom(ignore_converged=True)]

_NETWORKS = {
    "square": lambda: parse_config(parse_topology(BGP_TOPOLOGY_TEXT), BGP_CONFIG),
    "fat_tree_4": lambda: ebgp_rfc7938(bgp_fat_tree(4)),
}
#: Depth budgets that keep one draw well under a second.
_DEPTH = {"square": 8, "fat_tree_4": 4}


def _bgp_pec(network):
    return next(pec for pec in compute_pecs(network) if pec.has_bgp())


def _fresh_runs(network, pec, failure, transient, base, scenarios):
    """The replaced path: a fresh instance and analyzer per (scenario,
    prefix), each draining from the cold start; under stop-at-first the
    walk ends after the first scenario that found a violation."""
    expected = []
    for scenario in scenarios:
        found = False
        for prefix, devices in pec.bgp_origins:
            if not devices:
                continue
            instance = PecExplorer(
                network, pec, failure, PlanktonOptions(), dependency_context=DependencyContext()
            ).bgp_instance(prefix)
            analysis = TransientAnalyzer(instance, options=transient).analyze(
                PROPERTIES, initial_events=tuple(base) + tuple(scenario.events)
            )
            expected.append((scenario.describe(), str(prefix), analysis.stats_signature()))
            found = found or bool(analysis.violations)
        if found and transient.stop_at_first_violation:
            break
    return expected


def _campaign_runs(network, pec, failure, transient, base, scenarios):
    campaign = Plankton(network, PlanktonOptions()).verify_transients(
        PROPERTIES,
        transient=transient,
        failures=[failure],
        initial_events=base,
        scenarios=scenarios,
        pecs=[pec],
    )
    assert campaign.complete
    return [(run.scenario, run.prefix, run.result.stats_signature()) for run in campaign.runs]


def _overlay_scenario(nodes, sessions):
    """One scenario setting all three overlays: a drain, a gray direction,
    a settle, the return, then a crash."""
    drained, crashed = nodes
    exporter, importer = sessions
    return Scenario(
        (
            Converge(),
            MaintenanceDrain(drained),
            GrayFailure(exporter, importer),
            Converge(),
            ReturnToService(drained),
            NodeCrash(crashed),
        ),
        name=f"overlays {drained} {exporter}->{importer}",
    )


@st.composite
def campaigns(draw):
    name = draw(st.sampled_from(sorted(_NETWORKS)), label="network")
    network = _NETWORKS[name]()
    topology = network.topology
    nodes = sorted(topology.nodes)
    links = list(topology.links)
    link = draw(st.sampled_from(links), label="session")
    pool = enumerate_event_scenarios(topology, network.bgp_peers(), 1, kinds=EVENT_KINDS)
    scenarios = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4), label="scenarios")
    overlay = _overlay_scenario(
        draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2), label="nodes"),
        draw(st.permutations([link.a, link.b]), label="gray direction"),
    )
    scenarios.insert(draw(st.integers(0, len(scenarios)), label="overlay position"), overlay)
    base = draw(
        st.sampled_from([(), (Converge(), FailSession(link.a, link.b))]), label="base"
    )
    failure = draw(
        st.sampled_from([FailureScenario(), FailureScenario.of([links.index(link)])]),
        label="failure",
    )
    transient = TransientOptions(
        max_states=300,
        max_depth=_DEPTH[name],
        stop_at_first_violation=draw(st.booleans(), label="stop at first"),
        por=draw(st.sampled_from(["ample", "full"]), label="por"),
    )
    return network, failure, transient, base, scenarios


@settings(max_examples=12, deadline=None)
@given(campaigns())
def test_every_run_equals_a_fresh_analysis_from_the_cold_start(drawn):
    network, failure, transient, base, scenarios = drawn
    pec = _bgp_pec(network)
    assert _campaign_runs(network, pec, failure, transient, base, scenarios) == _fresh_runs(
        network, pec, failure, transient, base, scenarios
    )


@pytest.mark.parametrize("stop", [False, True])
@pytest.mark.parametrize("base", ["none", "fail-session"])
def test_every_event_kind_in_one_task(stop, base):
    """Every enumerated one-event scenario of the fat tree's first BGP PEC
    — crash, restart, drain, maintenance, flap and gray — plus the overlay
    scenario at the front, so each overlay would leak into what follows."""
    network = ebgp_rfc7938(bgp_fat_tree(4))
    pec = _bgp_pec(network)
    scenarios = [_overlay_scenario(("agg0_0", "edge0_1"), ("core0", "agg0_0"))]
    scenarios += enumerate_event_scenarios(
        network.topology, network.bgp_peers(), 1, kinds=EVENT_KINDS
    )
    events = (Converge(), FailSession("agg0_0", "core0")) if base == "fail-session" else ()
    transient = TransientOptions(max_states=300, max_depth=4, stop_at_first_violation=stop)
    runs = _campaign_runs(network, pec, FailureScenario(), transient, events, scenarios)
    assert runs == _fresh_runs(network, pec, FailureScenario(), transient, events, scenarios)
    kinds = {type(event) for scenario in scenarios for event in scenario.events}
    assert {MaintenanceDrain, ReturnToService, GrayFailure, NodeCrash} <= kinds
    if stop:
        assert len(runs) < len(scenarios) and any(signature["violations"] for *_, signature in runs)
    else:
        assert len(runs) == len(scenarios)


def test_a_task_drains_once_per_prefix(monkeypatch):
    """Crash scenarios all lead with ``Converge()``: one task runs that
    drain once, not once per scenario."""
    drains = []
    drain = SpvpStepper.drain

    def counting(stepper, *args, **kwargs):
        drains.append(stepper)
        return drain(stepper, *args, **kwargs)

    monkeypatch.setattr(SpvpStepper, "drain", counting)
    network = ebgp_rfc7938(bgp_fat_tree(4))
    scenarios = enumerate_event_scenarios(
        network.topology, network.bgp_peers(), 1, kinds=("crash",)
    )
    assert len(scenarios) > 3
    campaign = Plankton(network).verify_transients(
        PROPERTIES,
        transient=TransientOptions(max_states=100, max_depth=2, stop_at_first_violation=False),
        failures=[FailureScenario()],
        scenarios=scenarios,
        pecs=[_bgp_pec(network)],
    )
    assert len(campaign.runs) == len(scenarios)
    assert len(drains) == 1


# --------------------------------------------------------------------------- memo lifetime
def _instance(network, pec, failure=FailureScenario()):
    prefix = next(prefix for prefix, devices in pec.bgp_origins if devices)
    explorer = PecExplorer(
        network, pec, failure, PlanktonOptions(), dependency_context=DependencyContext()
    )
    return explorer.bgp_instance(prefix)


def _memos(stepper):
    """The transfer memos a stepper reads: its instance's slot layout's."""
    space = stepper.space
    return (space.import_ids, space.export_ids, space.rank_ids, space.origin_ids)


def _route_id_calls(monkeypatch):
    """Count ``RouteInternTable.route_id`` calls from now on."""
    from repro.protocols.interning import RouteInternTable

    calls = []
    route_id = RouteInternTable.route_id

    def counting(table, route):
        calls.append(route)
        return route_id(table, route)

    monkeypatch.setattr(RouteInternTable, "route_id", counting)
    return calls


class TestTransferMemoLifetime:
    """The SPVP transfer memos (import with the loop check, export, rank,
    origin id) live once per protocol instance: every stepper over it reads
    and fills one set, and no stepper over another instance sees it."""

    def test_two_steppers_over_one_instance_share_one_memo_set(self, monkeypatch):
        network = ebgp_rfc7938(bgp_fat_tree(4))
        instance = _instance(network, _bgp_pec(network))
        first, second = SpvpStepper(instance), SpvpStepper(instance)
        assert all(a is b for a, b in zip(_memos(first), _memos(second)))
        settled = first.drain(first.initial_state())
        assert all(_memos(second))
        calls = _route_id_calls(monkeypatch)
        assert second.drain(second.initial_state()) == settled
        assert calls == []

    def test_a_stepper_over_another_prefix_or_failure_shares_none(self):
        network = ebgp_rfc7938(bgp_fat_tree(4))
        pecs = [pec for pec in compute_pecs(network) if pec.has_bgp()]
        failure = FailureScenario.of([network.topology.links[0].link_id])
        # Each instance drained alone, cold, before any other was: the oracle.
        cold = {}
        for name, pec, scenario in (
            ("other failure", pecs[0], failure),
            ("other prefix", pecs[1], FailureScenario()),
        ):
            stepper = SpvpStepper(_instance(network, pec, scenario))
            cold[name] = best_map(stepper.drain(stepper.initial_state()))
        warm = SpvpStepper(_instance(network, pecs[0]))
        warm.drain(warm.initial_state())
        for name, instance in (
            ("other failure", _instance(network, pecs[0], failure)),
            ("other prefix", _instance(network, pecs[1])),
        ):
            stepper = SpvpStepper(instance)
            assert not any(_memos(stepper)), name
            assert all(a is not b for a, b in zip(_memos(stepper), _memos(warm))), name
            assert best_map(stepper.drain(stepper.initial_state())) == cold[name], name

    def test_a_stepper_after_a_finished_analysis_replays_its_drain_warm(self, monkeypatch):
        network = ebgp_rfc7938(bgp_fat_tree(4))
        instance = _instance(network, _bgp_pec(network))
        TransientAnalyzer(instance, max_states=50).analyze(PROPERTIES, initial_events=[Converge()])
        calls = _route_id_calls(monkeypatch)
        stepper = SpvpStepper(instance)
        stepper.drain(stepper.initial_state())
        assert calls == []

    def test_analyze_builds_its_machinery_once(self, monkeypatch):
        """The fingerprinter and the selector are the analyzer's: a second
        (third, ...) run builds neither of them."""
        from repro.transient import explorer

        network = ebgp_rfc7938(bgp_fat_tree(4))
        instance = _instance(network, _bgp_pec(network))
        analyzer = TransientAnalyzer(instance, max_states=50, stop_at_first_violation=False)
        first = analyzer.analyze(PROPERTIES, initial_events=[Converge()])

        def refused(*_arguments, **_keywords):
            raise AssertionError("built again")

        for name in ("ZobristFingerprinter", "AmpleSelector"):
            monkeypatch.setattr(explorer, name, refused)
        again = analyzer.analyze(PROPERTIES, initial_events=[Converge()])
        assert again.stats_signature() == first.stats_signature()
        assert again.reduction == first.reduction and again.reduction is not first.reduction
