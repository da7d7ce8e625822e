"""The slot forwarding relation == the name-keyed one, on searched SPVP states;
and the step records of the transient search are values.

:class:`~repro.transient.properties.TransientForwarding` reads a state as one
head code per node, off the SPVP layout's per-route memo, and walks those
codes with a mark array.  ``tests/oracles/transient_relation.py`` keeps the
relation as it was read before: a name -> route map turned into a
name -> name map and walked by name.  On every state a bounded breadth-first
search over the SPVP deliveries of a drawn network reaches — cold start, and
after each origin crashes out of the steady state, so that an origin has
lost its route — both must give the same cycle (same nodes, same rotation),
the same dead ends and the same relation by name.
"""

import pickle
from collections import deque

from hypothesis import given, settings

from repro.core.network_model import DependencyContext, PecExplorer
from repro.core.options import PlanktonOptions
from repro.exceptions import ProtocolError
from repro.modelcheck.por.ample import AmpleChoice, AmpleSelector
from repro.pec.classes import compute_pecs
from repro.protocols.spvp import SpvpEvent, SpvpStepper
from repro.topology import FailureScenario

from tests.helpers import best_map, forwarding_of
from tests.oracles.transient_relation import ReferenceForwarding
from tests.strategies import small_networks
from tests.test_transient import _fat_tree_bgp_instance

#: States each search may reach (per root).
STATES_PER_ROOT = 80


def _instances(network):
    """The BGP instance of every BGP-originated prefix of ``network``."""
    for pec in compute_pecs(network):
        explorer = PecExplorer(
            network, pec, FailureScenario(), PlanktonOptions(),
            dependency_context=DependencyContext(),
        )
        for prefix, devices in pec.bgp_origins:
            if devices:
                yield explorer.bgp_instance(prefix)


def _reached(stepper, root):
    """The states a breadth-first search over every delivery reaches from
    ``root``, at most :data:`STATES_PER_ROOT` of them."""
    seen = {root.ids().tobytes()}
    frontier = deque([root])
    reached = []
    while frontier and len(reached) < STATES_PER_ROOT:
        state = frontier.popleft()
        reached.append(state)
        for channel in state.pending_channels():
            _event, successor = stepper.deliver(state, channel)
            key = successor.ids().tobytes()
            if key not in seen:
                seen.add(key)
                frontier.append(successor)
    return reached


def _assert_same_relation(state):
    forwarding = forwarding_of(state)
    reference = ReferenceForwarding.from_best_paths(best_map(state))
    assert forwarding.find_cycle() == reference.find_cycle()
    assert forwarding.dead_ends() == reference.dead_ends()
    assert forwarding.next_hop == reference.next_hop
    assert forwarding.delivering == reference.delivering


@given(drawn=small_networks())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_the_slot_relation_is_the_name_keyed_one(drawn):
    for instance in _instances(drawn.network):
        stepper = SpvpStepper(instance)
        cold = stepper.initial_state()
        for state in _reached(stepper, cold):
            _assert_same_relation(state)
        try:
            steady = stepper.drain(cold, max_steps=2_000)
        except ProtocolError:
            continue  # a divergent draw has no steady state to crash out of
        for origin in instance.origins():
            crashed = stepper.crash_node(steady, origin)
            assert best_map(crashed)[origin] is None
            for state in _reached(stepper, crashed):
                _assert_same_relation(state)


# --------------------------------------------------------------------------- step records
def _same_value(record, copy):
    assert copy is not record
    assert copy == record and not copy != record
    assert hash(copy) == hash(record)
    assert repr(copy) == repr(record)


class TestStepRecordsAreValues:
    """``SpvpEvent`` and ``AmpleChoice`` are ``__slots__`` records: equal
    and equally hashed by their fields, and pickled by them."""

    def test_spvp_events(self):
        stepper = SpvpStepper(_fat_tree_bgp_instance())
        events = stepper.drain(stepper.initial_state()).witness_events()
        assert len(events) > 10
        for event in events:
            _same_value(event, pickle.loads(pickle.dumps(event)))
            _same_value(event, SpvpEvent(event.node, event.peer, event.advertised, event.new_best))
            # A node never hears from itself: one field apart.
            assert event != SpvpEvent(event.node, event.node, event.advertised, event.new_best)
            assert event != (event.node, event.peer, event.advertised, event.new_best)
        assert len(set(events)) == len({pickle.dumps(event) for event in events})
        assert all(event.describe() for event in events)

    def test_ample_choices(self):
        instance = _fat_tree_bgp_instance()
        stepper = SpvpStepper(instance)
        selector = AmpleSelector(instance)
        choices = []
        for state in _reached(stepper, stepper.initial_state()):
            choices.append(selector.select(state, state.pending_channels()))
        assert any(choice.reduced for choice in choices)
        assert any(not choice.reduced for choice in choices)
        for choice in choices:
            _same_value(choice, pickle.loads(pickle.dumps(choice)))
            _same_value(choice, AmpleChoice(choice.channels, choice.reduced, choice.receiver))
            assert choice != AmpleChoice(choice.channels, not choice.reduced, choice.receiver)
            assert choice != AmpleChoice(choice.channels + (("x", "y"),), choice.reduced)
            assert choice != (choice.channels, choice.reduced, choice.receiver)
