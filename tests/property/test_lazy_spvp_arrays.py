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
and a successor dropped as a duplicate, never build an array; a successor the
search will never expand (converged, or at the depth bound) is queued as the
outcome of its check, not as a state, and the search observes exactly what
it observed when such successors were queued as states.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.modelcheck.hashing import ZobristFingerprinter
from repro.protocols.spvp import SpvpState, SpvpStepper
from repro.transient import Converge, FailSession, TransientAnalyzer, TransientLoopFreedom
from repro.transient import explorer as explorer_module

from tests.oracles.spvp_reference import eager_ids
from tests.oracles.transient_reference import NaiveTransientAnalyzer
from tests.property.test_spvp_state import spvp_scenarios
from tests.test_rpvp_spvp import GadgetInstance, bad_gadget, disagree_gadget, good_gadget
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


#: The searches the edge cases below run: (instance, initial events).
_SEARCHES = {
    "good": (good_gadget, ()),
    "disagree": (disagree_gadget, ()),
    "bad": (bad_gadget, ()),
    "fattree4-flap": (
        lambda: _fat_tree(4),
        (Converge(), FailSession("edge0_0", "agg0_0")),
    ),
}

#: What the search observed on each edge case, as ``_observed`` reads it, when
#: every successor was queued as a state: (states explored, converged states,
#: max depth reached, depth-pruned, sleep requeues, the violations' depths, a
#: digest of the whole ``stats_signature()``), keyed on (case, search, POR
#: mode, max depth).
_QUEUED_AS_STATES = {
    ("stop", "disagree", "full", 4): (21, 0, 4, 0, 0, (4,), "013f947e187b9444"),
    ("stop", "disagree", "full", 5): (21, 0, 4, 0, 0, (4,), "013f947e187b9444"),
    ("stop", "disagree", "sleep", 4): (21, 0, 4, 0, 0, (4,), "013f947e187b9444"),
    ("stop", "disagree", "sleep", 5): (21, 0, 4, 0, 0, (4,), "013f947e187b9444"),
    ("stop", "disagree", "ample", 8): (20, 2, 7, 0, 0, (7,), "437007b955c0a869"),
    ("converged", "disagree", "full", 6): (
        66, 2, 6, 10, 0, (4, 5, 5, 6, 6, 6), "39c44c70cef85b39"
    ),
    ("converged", "disagree", "full", 8): (
        93, 2, 8, 15, 0, (4, 5, 5, 6, 6, 6, 7, 7, 8, 8), "7ff7fd0999bac6c3"
    ),
    ("converged", "disagree", "sleep", 6): (
        66, 2, 6, 10, 0, (4, 5, 5, 6, 6, 6), "39c44c70cef85b39"
    ),
    ("converged", "disagree", "sleep", 8): (
        93, 2, 8, 15, 0, (4, 5, 5, 6, 6, 6, 7, 7, 8, 8), "7ff7fd0999bac6c3"
    ),
    ("converged", "disagree", "ample", 6): (19, 2, 6, 2, 0, (), "501f530b631958c0"),
    ("converged", "disagree", "ample", 8): (21, 2, 8, 1, 0, (7, 8), "f61fc362b90dbe17"),
    ("depth1", "good", "full", 1): (3, 0, 1, 2, 0, (), "c78c8383c2673a8c"),
    ("depth1", "bad", "full", 1): (4, 0, 1, 3, 0, (), "19c00f44296c9200"),
    ("depth1", "fattree4-flap", "full", 1): (3, 0, 1, 2, 0, (), "c78c8383c2673a8c"),
    ("depth1", "good", "sleep", 1): (3, 0, 1, 2, 0, (), "c78c8383c2673a8c"),
    ("depth1", "bad", "sleep", 1): (4, 0, 1, 3, 0, (), "19c00f44296c9200"),
    ("depth1", "fattree4-flap", "sleep", 1): (3, 0, 1, 2, 0, (), "c78c8383c2673a8c"),
    ("depth1", "good", "ample", 1): (3, 0, 1, 2, 0, (), "c78c8383c2673a8c"),
    ("depth1", "bad", "ample", 1): (4, 0, 1, 3, 0, (), "19c00f44296c9200"),
    ("depth1", "fattree4-flap", "ample", 1): (2, 0, 1, 1, 0, (), "c47abecf8eadbea5"),
    ("requeue", "bad", "sleep", 3): (56, 0, 3, 43, 3, (), "b110fb329ac4b878"),
    ("requeue", "fattree4-flap", "sleep", 5): (
        318, 0, 5, 234, 2, (4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5), "d39b28f75d8f64fa"
    ),
}


def _search(name, por, **options):
    factory, events = _SEARCHES[name]
    return TransientAnalyzer(factory(), por=por, **options).analyze(
        [TransientLoopFreedom()], initial_events=events
    )


def _reference(name, **options):
    factory, events = _SEARCHES[name]
    return NaiveTransientAnalyzer(factory(), **options).analyze(
        [TransientLoopFreedom()], initial_events=events
    )


def _observed(result):
    signature = json.dumps(result.stats_signature(), sort_keys=True)
    return (
        result.states_explored,
        result.converged_states,
        result.max_depth_reached,
        result.reduction.depth_pruned,
        result.reduction.sleep_requeues,
        tuple(violation.depth for violation in result.violations),
        hashlib.sha256(signature.encode()).hexdigest()[:16],
    )


def _pinned(case, name, por, **options):
    """Run one edge case and compare it with what the search observed when it
    queued every successor as a state, and, unreduced, with the reference
    explorer; returns the result."""
    result = _search(name, por, **options)
    assert _observed(result) == _QUEUED_AS_STATES[(case, name, por, options["max_depth"])]
    if por == "full":
        reference = _reference(name, **options)
        assert result.stats_signature() == reference.stats_signature()
        assert result.converged_rpvp_states == reference.converged_rpvp_states
    return result


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

    @pytest.mark.parametrize("por", ["full", "sleep"])
    @pytest.mark.parametrize("max_depth", [4, 5], ids=["leaf-first", "state-first"])
    def test_stop_at_first_violation(self, max_depth, por):
        # disagree's first loop is at depth 4 and more follow at depth 5: at
        # max_depth 5 a depth-(max-1) state and leaves at the bound violate,
        # at max_depth 4 the first violation is a leaf at the bound.
        result = _pinned(
            "stop", "disagree", por, max_depth=max_depth, stop_at_first_violation=True
        )
        assert [v.depth for v in result.violations] == [4]

    def test_stop_at_first_violation_ample(self):
        # Under ample sets disagree's first loops sit at depths 7 and 8.
        result = _pinned("stop", "disagree", "ample", max_depth=8, stop_at_first_violation=True)
        assert [v.depth for v in result.violations] == [7]

    @pytest.mark.parametrize("por", ["full", "sleep", "ample"])
    @pytest.mark.parametrize("max_depth", [6, 8], ids=["at-bound", "below-bound"])
    def test_collect_converged(self, max_depth, por):
        # disagree's two stable states are first reached at depth 6.
        result = _pinned(
            "converged", "disagree", por, max_depth=max_depth,
            stop_at_first_violation=False, collect_converged=True,
        )
        assert len(result.converged_rpvp_states) == result.converged_states == 2

    @pytest.mark.parametrize("por", ["full", "sleep", "ample"])
    @pytest.mark.parametrize("name", ["good", "bad", "fattree4-flap"])
    def test_max_depth_one_makes_every_child_of_the_root_a_leaf(self, name, por):
        result = _pinned(
            "depth1", name, por, max_depth=1,
            stop_at_first_violation=False, collect_converged=True,
        )
        assert result.max_depth_reached == 1

    @pytest.mark.parametrize("name, max_depth", [("bad", 3), ("fattree4-flap", 5)])
    def test_a_requeued_leaf_is_pruned_when_popped(self, name, max_depth):
        result = _pinned("requeue", name, "sleep", max_depth=max_depth,
                         stop_at_first_violation=False)
        # A leaf at the bound that sleep sets requeue is pruned again when
        # popped: sleep sets prune more than the unreduced search does.
        full = _search(name, "full", max_depth=max_depth, stop_at_first_violation=False)
        assert result.reduction.sleep_requeues > 0
        assert result.reduction.depth_pruned > full.reduction.depth_pruned

    @pytest.mark.parametrize("por", ["full", "sleep", "ample"])
    @pytest.mark.parametrize(
        "name, max_depth", [("disagree", 8), ("bad", 5), ("fattree4-flap", 5)]
    )
    def test_the_frontier_holds_no_state_it_will_not_expand(
        self, monkeypatch, name, max_depth, por
    ):
        appended = []

        class RecordingDeque(explorer_module.deque):
            def append(self, entry):
                item, depth = entry[0], entry[1]
                if isinstance(item, SpvpState):
                    appended.append((item.is_converged(), depth >= max_depth))
                else:
                    appended.append(None)
                super().append(entry)

        monkeypatch.setattr(explorer_module, "deque", RecordingDeque)
        result = _search(name, por, max_depth=max_depth, stop_at_first_violation=False)
        states = [entry for entry in appended if entry is not None]
        assert states and len(states) < len(appended)
        assert result.reduction.depth_pruned > 0
        assert all(entry == (False, False) for entry in states)
