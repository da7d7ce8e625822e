"""Late-built SPVP id arrays against the eager copy-and-apply they replaced.

A derived :class:`~repro.protocols.spvp.SpvpState` records its delta and
builds its id array only when something reads the whole state.  These
properties walk drawn gadgets and small eBGP fat trees with random
deliveries and lifecycle events, branching from random earlier states and
building some arrays early, and check every state against
:func:`tests.oracles.spvp_reference.eager_ids`:

* the array it builds equals the eager copy-and-apply of its ancestors'
  deltas;
* its best key is the first ``len(nodes)`` ids of that array, read without
  building it;
* its Zobrist fingerprint is the same whether or not its array was built
  first.

And the search's half of the contract: a state admitted at the depth bound,
and a successor dropped as a duplicate, never build an array.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.modelcheck.hashing import ZobristFingerprinter
from repro.protocols.spvp import SpvpStepper
from repro.transient import TransientAnalyzer, TransientLoopFreedom

from tests.oracles.spvp_reference import eager_ids
from tests.property.test_spvp_state import spvp_scenarios
from tests.test_rpvp_spvp import GadgetInstance, bad_gadget, good_gadget
from tests.test_transient import _fat_tree_bgp_instance

#: Fat-tree instances by ``k``, built once: hypothesis draws walks on them.
_FAT_TREES = {}


def _fat_tree(k):
    if k not in _FAT_TREES:
        _FAT_TREES[k] = _fat_tree_bgp_instance(k)
    return _FAT_TREES[k]


@st.composite
def instances(draw):
    """A drawn gadget or a small eBGP fat tree."""
    if draw(st.booleans()):
        edge_map, preferences, _schedule = draw(spvp_scenarios())
        return GadgetInstance("o", edge_map, preferences)
    return _fat_tree(draw(st.sampled_from((2, 4))))


#: A walk step: (what, which state to step from, which channel/node/peer,
#: whether to build that state's array first).
_STEPS = st.tuples(
    st.sampled_from(
        ("deliver",) * 6 + ("fail", "crash", "restart", "quiesce", "return", "suppress")
    ),
    st.integers(min_value=0, max_value=1_000_000),
    st.integers(min_value=0, max_value=1_000_000),
    st.booleans(),
)


def _step(stepper, state, what, pick):
    """One delivery or lifecycle event out of ``state`` (None: nothing to do)."""
    space = stepper.space
    if what == "deliver":
        pending = state.pending_channels()
        return stepper.deliver(state, pending[pick % len(pending)])[1] if pending else None
    if what in ("fail", "suppress"):
        a, b = space.channels[pick % len(space.channels)]
        if what == "fail":
            return stepper.fail_session(state, a, b)
        return stepper.suppress_session(state, a, b)
    node = space.nodes[pick % len(space.nodes)]
    event = {
        "crash": stepper.crash_node,
        "restart": stepper.restart_node,
        "quiesce": stepper.quiesce_node,
        "return": stepper.return_to_service,
    }[what]
    return event(state, node)


def _full_fold(hasher, ids):
    value = 0
    for slot, entry_id in enumerate(ids):
        value ^= hasher.component_id(slot, entry_id)
    return value


class TestLateBuiltArrays:
    @given(instance=instances(), walk=st.lists(_STEPS, min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_every_state_builds_the_eager_array(self, instance, walk):
        stepper = SpvpStepper(instance)
        nodes = len(stepper.space.nodes)
        states = [stepper.initial_state()]
        for what, origin, pick, build_first in walk:
            parent = states[origin % len(states)]
            if build_first:
                parent.ids()
            child = _step(stepper, parent, what, pick)
            if child is None:
                continue
            assert child._ids is None
            states.append(child)
        for state in reversed(states):
            unbuilt = state._ids is None
            expected = eager_ids(state)
            # Read without building: the best block and the fingerprint.
            assert state.best_key() == expected[:nodes].tobytes()
            fingerprint = state.fingerprint(ZobristFingerprinter(stepper.table))
            assert (state._ids is None) == unbuilt
            assert state.ids() == expected
            assert state.ids() is state.ids()
            assert state.best_key() == state.ids()[:nodes].tobytes()
            rebuilt = ZobristFingerprinter(stepper.table)
            assert fingerprint == state.fingerprint(rebuilt) == _full_fold(rebuilt, expected)


def _recorded_search(monkeypatch, instance, por, max_depth):
    """Every successor ``deliver`` made during one search, with the search's
    result."""
    made = []
    deliver = SpvpStepper.deliver

    def recording(stepper, state, channel):
        event, successor = deliver(stepper, state, channel)
        made.append(successor)
        return event, successor

    monkeypatch.setattr(SpvpStepper, "deliver", recording)
    result = TransientAnalyzer(
        instance, max_states=100_000, max_depth=max_depth,
        stop_at_first_violation=False, por=por,
    ).analyze([TransientLoopFreedom(ignore_converged=True)])
    return made, result


def _depth(state):
    depth = 0
    while state.parent is not None:
        depth += 1
        state = state.parent
    return depth


class TestTheSearchBuildsOnlyWhatItExpands:
    @pytest.mark.parametrize("por", ["ample", "sleep", "full"])
    @pytest.mark.parametrize(
        "instance, max_depth",
        [(good_gadget(), 3), (bad_gadget(), 5), (_fat_tree(4), 4)],
        ids=["good", "bad", "fattree4"],
    )
    def test_states_at_the_depth_bound_build_no_array(
        self, monkeypatch, instance, max_depth, por
    ):
        made, result = _recorded_search(monkeypatch, instance, por, max_depth)
        assert result.reduction.depth_pruned > 0
        at_bound = [state for state in made if _depth(state) == max_depth]
        assert at_bound
        assert all(state._ids is None for state in at_bound)

    @pytest.mark.parametrize(
        "instance, max_depth",
        [(bad_gadget(), 5), (_fat_tree(4), 4)],
        ids=["bad", "fattree4"],
    )
    def test_a_duplicate_successor_builds_no_array(self, monkeypatch, instance, max_depth):
        # Without sleep sets a duplicate is never requeued: it is dropped.
        made, _result = _recorded_search(monkeypatch, instance, "full", max_depth)
        hasher = ZobristFingerprinter(made[0].intern_table)
        seen = {made[0].parent.fingerprint(hasher)}
        duplicates = []
        for state in made:
            fingerprint = state.fingerprint(hasher)
            if fingerprint in seen:
                duplicates.append(state)
            seen.add(fingerprint)
        assert duplicates
        assert all(state._ids is None for state in duplicates)
