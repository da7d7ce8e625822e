"""The oracle's own fork is pinned: ``clone()`` behaves like ``copy.deepcopy``.

The reference explorer (``tests/oracles/transient_reference.py``) forks one
:class:`ReferenceSpvpSimulator` per successor with ``clone()``, which shares
the immutable protocol instance, routes and events and copies every
container the simulator mutates.  A container it forgot to copy would make
sibling branches of the reference search interfere — and the product would
then be pinned to a wrong oracle.  So: on random gadgets, a clone and a deep
copy of the same mid-execution simulator, driven through the same
deliveries and lifecycle events, stay observably equal after every step,
and neither disturbs the simulator they were forked from.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.scenarios import (
    FailSession,
    GrayFailure,
    MaintenanceDrain,
    NodeCrash,
    NodeRestart,
    ReturnToService,
)

from tests.oracles.spvp_reference import ReferenceSpvpSimulator, apply_reference
from tests.property.test_spvp_state import spvp_scenarios
from tests.test_rpvp_spvp import GadgetInstance

NODE_EVENTS = (NodeCrash, NodeRestart, MaintenanceDrain, ReturnToService)
SESSION_EVENTS = (FailSession, GrayFailure)

#: One step of a drive: ``None`` delivers, an event class fires that event;
#: the integer picks the channel / node / session it applies to.
steps = st.lists(
    st.tuples(
        st.sampled_from((None, None, None) + NODE_EVENTS + SESSION_EVENTS),
        st.integers(min_value=0, max_value=1_000_000),
    ),
    max_size=30,
)


def _observable(simulator):
    """Everything a simulator can be observed through, detached from it."""
    return (
        dict(simulator.best),
        dict(simulator.rib_in),
        {channel: tuple(queue) for channel, queue in simulator.buffers.items()},
        list(simulator.history),
        set(simulator.quiesced),
        set(simulator.suppressed),
        simulator.steps,
    )


def _drive(simulator, action, pick):
    """Apply one step; the choice depends only on ``pick`` and the state."""
    nodes = sorted(simulator.best)
    if action is None:
        pending = simulator.pending_messages()
        if pending:
            simulator.step(pending[pick % len(pending)])
    elif action in NODE_EVENTS:
        apply_reference(simulator, action(nodes[pick % len(nodes)]))
    else:
        sessions = sorted(simulator.buffers)
        apply_reference(simulator, action(*sessions[pick % len(sessions)]))


@given(scenario=spvp_scenarios(), drive=steps)
@settings(max_examples=40, deadline=None)
def test_clone_and_deepcopy_stay_equal_in_lockstep(scenario, drive):
    edge_map, preferences, schedule = scenario
    original = ReferenceSpvpSimulator(GadgetInstance("o", edge_map, preferences), seed=7)
    for pick in schedule[:10]:  # fork from the middle of an execution
        _drive(original, None, pick)
    before = _observable(original)

    cloned, copied = original.clone(), copy.deepcopy(original)
    assert _observable(cloned) == _observable(copied) == before
    for action, pick in drive:
        _drive(cloned, action, pick)
        _drive(copied, action, pick)
        assert _observable(cloned) == _observable(copied)
    # The RNG state forked too: an unseeded step picks the same channel.
    assert cloned.step() == copied.step()
    assert _observable(cloned) == _observable(copied)

    # Isolation both ways: the copies never touched the original, and
    # stepping the original now does not reach into the clone.
    assert _observable(original) == before
    after = _observable(cloned)
    original.step()
    assert _observable(cloned) == after
