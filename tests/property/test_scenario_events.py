"""Cross-model oracle for the lifecycle event vocabulary (`repro.scenarios`).

Every event type (node crash, restart, maintenance drain, return-to-service,
session flaps, gray failure, staged scenarios) is implemented twice — in the
package on the persistent :class:`SpvpStepper`, and in
``tests/oracles/spvp_reference.py`` on the dict/deque
:class:`ReferenceSpvpSimulator` — and these tests pin the two bit-identical
on random gadget topologies and on the fat-tree eBGP workload: identical
verdicts, identical converged sets, identical exploration statistics
(``stats_signature()`` covers all three), with ProtocolError parity on
divergent configurations.  Same oracle discipline as
``tests/property/test_transient_por.py``, extended to the event vocabulary.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ProtocolError
from repro.scenarios import (
    Converge,
    FailSession,
    GrayFailure,
    MaintenanceDrain,
    NodeCrash,
    NodeRestart,
    ReturnToService,
    Scenario,
    scenario_from_descriptor,
)
from repro.transient import TransientAnalyzer

from tests.oracles.transient_reference import NaiveTransientAnalyzer
from tests.property.test_transient_por import (
    BUDGET,
    _explore,
    _properties,
    gadget_scenarios,
)
from tests.test_rpvp_spvp import GadgetInstance


def _nodes_of(edge_map):
    return sorted(edge_map)


def _events_for(kind, node, flap):
    """The initial-event list exercising one event type of the vocabulary."""
    settle = Converge(max_steps=3_000)
    if kind == "crash":
        return [settle, NodeCrash(node)]
    if kind == "restart":
        return [settle, NodeRestart(node)]
    if kind == "drain":
        return [settle, MaintenanceDrain(node)]
    if kind == "return":
        # The full maintenance window: drain, settle, return to service.
        return [settle, MaintenanceDrain(node), Converge(max_steps=3_000),
                ReturnToService(node)]
    if kind == "flap-storm":
        # Both directions of one session, flapped back to back.
        storm = Scenario((FailSession(*flap), FailSession(flap[1], flap[0])), name="storm")
        return [settle, storm]
    if kind == "gray":
        # From a cold start: the gray filter shapes the whole convergence.
        return [GrayFailure(*flap)]
    if kind == "staged":
        return [
            Scenario(
                events=(
                    settle,
                    MaintenanceDrain(node),
                    GrayFailure(*flap),
                    Converge(max_steps=3_000),
                    ReturnToService(node),
                ),
                name=f"staged {node}",
            )
        ]
    raise AssertionError(kind)


EVENT_KINDS = ("crash", "restart", "drain", "return", "flap-storm", "gray", "staged")


def _naive(edge_map, preferences, events):
    return NaiveTransientAnalyzer(
        GadgetInstance("o", edge_map, preferences), collect_converged=True, **BUDGET
    ).analyze(_properties(), initial_events=events)


class TestEventsAgainstDeepcopyOracle:
    """Persistent-stepper exploration == reference-simulator exploration,
    for every event type, including ProtocolError parity."""

    @pytest.mark.parametrize("kind", EVENT_KINDS)
    @given(scenario=gadget_scenarios(), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_event_explorations_are_bit_identical(self, kind, scenario, data):
        edge_map, preferences, flap = scenario
        node = data.draw(st.sampled_from(_nodes_of(edge_map)), label="event node")
        events = _events_for(kind, node, flap)
        try:
            fast = _explore(
                GadgetInstance("o", edge_map, preferences), "full", events
            )
        except ProtocolError:
            with pytest.raises(ProtocolError):
                _naive(edge_map, preferences, events)
            return
        naive = _naive(edge_map, preferences, events)
        assert fast.stats_signature() == naive.stats_signature()

    @given(scenario=gadget_scenarios(), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_settled_maintenance_is_bit_identical(self, scenario, data):
        """A drain, a settle and a return to service, nested in a
        ``Scenario`` behind the steady state, behave identically on both
        models (the inner Converge included)."""
        edge_map, preferences, _flap = scenario
        node = data.draw(st.sampled_from(_nodes_of(edge_map)), label="drained node")
        window = Scenario(
            (MaintenanceDrain(node), Converge(max_steps=3_000), ReturnToService(node)),
            name=f"maintenance {node}",
        )
        events = [Converge(max_steps=3_000), window]
        try:
            fast = _explore(
                GadgetInstance("o", edge_map, preferences), "full", events
            )
        except ProtocolError:
            with pytest.raises(ProtocolError):
                _naive(edge_map, preferences, events)
            return
        naive = _naive(edge_map, preferences, events)
        assert fast.stats_signature() == naive.stats_signature()


class TestFatTreeEvents:
    """The same cross-model pin on the fat-tree eBGP workload the fig7a
    benchmark family scales over (the second topology family of the oracle)."""

    @staticmethod
    def _fat_tree_instance():
        from repro.config import ebgp_rfc7938
        from repro.core.network_model import DependencyContext, PecExplorer
        from repro.core.options import PlanktonOptions
        from repro.pec.classes import compute_pecs
        from repro.topology import bgp_fat_tree
        from repro.topology.failures import FailureScenario

        network = ebgp_rfc7938(bgp_fat_tree(4))
        pec = next(pec for pec in compute_pecs(network) if pec.has_bgp())
        explorer = PecExplorer(
            network,
            pec,
            FailureScenario(),
            PlanktonOptions(),
            dependency_context=DependencyContext(),
        )
        prefix = next(prefix for prefix, devices in pec.bgp_origins if devices)
        return network, explorer.bgp_instance(prefix)

    def test_fat_tree_event_explorations_are_bit_identical(self):
        network, instance = self._fat_tree_instance()
        nodes = sorted(network.topology.nodes)
        origin = next(iter(instance.origins()))
        spine = next(n for n in nodes if n != origin)
        neighbor = sorted(instance.peers(origin))[0]
        budget = dict(max_states=150, max_depth=8, stop_at_first_violation=False)
        cases = {
            "crash": [Converge(), NodeCrash(spine)],
            "drain": [Converge(), MaintenanceDrain(spine)],
            "maintenance": [scenario_from_descriptor([("maintenance", spine)])],
            "drain-return": [scenario_from_descriptor([("drain-return", spine)])],
            "restart": [Converge(), NodeRestart(spine)],
            "gray": [GrayFailure(origin, neighbor)],
            "flap": [scenario_from_descriptor([("flap", origin, neighbor)])],
        }
        for label, events in cases.items():
            fast = TransientAnalyzer(
                instance, collect_converged=True, por="full", **budget
            ).analyze(_properties(), initial_events=events)
            naive = NaiveTransientAnalyzer(
                instance, collect_converged=True, **budget
            ).analyze(_properties(), initial_events=events)
            assert fast.stats_signature() == naive.stats_signature(), label
