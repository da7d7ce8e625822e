"""Property tests for the persistent SPVP state representation.

The persistent :class:`SpvpState` + stateless :class:`SpvpStepper` pair
promises to be *observationally identical* to the naive dict/deque simulator
it replaced (`ReferenceSpvpSimulator`, kept verbatim in
``tests/oracles/spvp_reference.py`` for exactly this purpose): same best
routes, rib-ins, buffer contents, pending channels and
events for every delivery order, with the incremental multi-slot Zobrist
fingerprint equal to a from-scratch fold over the full state.  These tests
pin that promise against the naive oracle across random gadget topologies
and random delivery schedules, mirroring ``test_state_representation.py``
for the RPVP side.

Both models are one id-array kernel over one intern table per node set, so
the best block of an SPVP state *is* an RPVP state: the lockstep also walks
an RPVP ``with_best`` chain beside the deliveries and checks it against
:meth:`SpvpState.converged_rpvp` under the same fingerprinter.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.modelcheck.hashing import ZobristFingerprinter
from repro.protocols.interning import IdArrayState
from repro.protocols.rpvp import RpvpState
from repro.protocols.spvp import SpvpState, SpvpStepper

from tests.oracles.spvp_reference import ReferenceSpvpSimulator
from tests.test_rpvp_spvp import GadgetInstance, bad_gadget, disagree_gadget, good_gadget
from tests.helpers import best_map, buffer_map, buffer_of, rib_in_map, state_from_maps


def _simple_paths(edge_map, start, limit=12):
    """All simple paths from ``start`` to the origin ``o`` (as preference tuples)."""
    results = []

    def dfs(node, trail):
        if len(results) >= limit:
            return
        if node == "o":
            results.append(tuple(trail))
            return
        for peer in edge_map[node]:
            if peer not in trail and peer != start:
                dfs(peer, trail + (peer,))

    for peer in edge_map[start]:
        dfs(peer, (peer,))
    return results


@st.composite
def spvp_scenarios(draw):
    """A random connected gadget plus a random delivery schedule."""
    extra = draw(st.integers(min_value=2, max_value=4))
    nodes = ["o"] + [f"n{i}" for i in range(extra)]
    edges = {node: set() for node in nodes}
    # A random spanning tree keeps every node connected to the origin...
    for index in range(1, len(nodes)):
        anchor = nodes[draw(st.integers(min_value=0, max_value=index - 1))]
        edges[nodes[index]].add(anchor)
        edges[anchor].add(nodes[index])
    # ... plus random extra sessions for alternative paths.
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if nodes[j] not in edges[nodes[i]] and draw(st.booleans()):
                edges[nodes[i]].add(nodes[j])
                edges[nodes[j]].add(nodes[i])
    edge_map = {node: tuple(sorted(peers)) for node, peers in edges.items()}
    preferences = {}
    for node in nodes:
        if node == "o":
            continue
        paths = _simple_paths(edge_map, node)
        if not paths:
            continue
        ordered = draw(st.permutations(paths))
        keep = draw(st.integers(min_value=0, max_value=len(ordered)))
        preferences[node] = list(ordered[:keep])
    schedule = draw(
        st.lists(st.integers(min_value=0, max_value=1_000_000), min_size=0, max_size=40)
    )
    return edge_map, preferences, schedule


def _assert_state_matches_reference(stepper, state, reference, hasher):
    """One lockstep comparison: maps, pending set, fingerprint, equality."""
    assert best_map(state) == reference.best
    assert rib_in_map(state) == reference.rib_in
    assert buffer_map(state) == {
        channel: tuple(queue) for channel, queue in reference.buffers.items()
    }
    assert state.pending_channels() == reference.pending_messages()
    assert state.is_converged() == reference.is_converged()
    # A state rebuilt from the reference's plain dicts (no parent chain) is
    # equal, hashes equal, and folds to the same fingerprint the incremental
    # XOR chain produced.
    rebuilt = state_from_maps(stepper, reference.best, reference.rib_in, reference.buffers)
    assert state == rebuilt and rebuilt == state
    assert hash(state) == hash(rebuilt)
    assert state.fingerprint(hasher) == rebuilt.fingerprint(hasher)
    assert rebuilt.fingerprint(hasher) == _full_fold(hasher, state)


def _full_fold(hasher, state):
    """The from-scratch Zobrist fold over every slot of ``state``."""
    value = 0
    for slot, entry_id in enumerate(state._ids):
        value ^= hasher.component_id(slot, entry_id)
    return value


def _assert_best_block_is_rpvp(stepper, state, rpvp, hasher):
    """The best block is the RPVP state the ``with_best`` chain reached."""
    table = stepper.table
    known = len(table)
    converged = state.converged_rpvp()
    assert converged.intern_table is table
    assert len(table) == known
    assert converged == RpvpState.from_dict(best_map(state))
    assert len(table) == known
    assert converged.node_names == tuple(sorted(best_map(state)))
    assert converged.as_dict() == best_map(state)
    assert state.best_key() == converged._ids.tobytes()
    assert converged == rpvp and hash(converged) == hash(rpvp)
    # The chain folds incrementally, the slice from scratch: one kernel
    # method, one table, one fingerprinter for both models.
    assert rpvp.fingerprint(hasher) == converged.fingerprint(hasher)
    assert converged.fingerprint(hasher) == _full_fold(hasher, converged)


class TestSpvpStateAgainstReference:
    @given(scenario=spvp_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_step_fingerprint_equality_match_naive_reference(self, scenario):
        edge_map, preferences, schedule = scenario
        instance = GadgetInstance("o", edge_map, preferences)
        stepper = SpvpStepper(instance)
        reference = ReferenceSpvpSimulator(instance, seed=0)
        hasher = ZobristFingerprinter(stepper.table)

        state = stepper.initial_state()
        rpvp = state.converged_rpvp()
        _assert_state_matches_reference(stepper, state, reference, hasher)
        _assert_best_block_is_rpvp(stepper, state, rpvp, hasher)
        for pick in schedule:
            pending = state.pending_channels()
            if not pending:
                break
            channel = pending[pick % len(pending)]
            event, state = stepper.deliver(state, channel)
            assert event == reference.step(channel)
            rpvp = rpvp.with_best(event.node, event.new_best)
            _assert_state_matches_reference(stepper, state, reference, hasher)
            _assert_best_block_is_rpvp(stepper, state, rpvp, hasher)

    def test_both_models_share_one_state_kernel(self):
        for model in (RpvpState, SpvpState):
            assert issubclass(model, IdArrayState)
            for operation in ("fingerprint", "detach", "__eq__", "__ne__", "__hash__"):
                assert getattr(model, operation) is getattr(IdArrayState, operation)

    @given(scenario=spvp_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_branching_shares_structure_without_interference(self, scenario):
        """Deriving several successors of one state never mutates the parent."""
        edge_map, preferences, schedule = scenario
        instance = GadgetInstance("o", edge_map, preferences)
        stepper = SpvpStepper(instance)
        state = stepper.initial_state()
        for pick in schedule[:5]:
            pending = state.pending_channels()
            if not pending:
                break
            _event, state = stepper.deliver(state, pending[pick % len(pending)])
        pending = state.pending_channels()
        if len(pending) < 2:
            return
        before = (best_map(state), rib_in_map(state), buffer_map(state))
        children = [stepper.deliver(state, channel)[1] for channel in pending]
        assert (best_map(state), rib_in_map(state), buffer_map(state)) == before
        # Each child drained exactly its own channel relative to the parent.
        for channel, child in zip(pending, children):
            assert buffer_of(child, channel) == buffer_of(state, channel)[1:]
            assert child.parent is state
            assert child.event is not None and child.event.peer == channel[0]

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_seeded_drain_replays_reference_runs(self, seed):
        """A drain choosing with ``random.Random(seed).choice`` picks the same
        interleaving as the naive simulator seeded alike."""
        final = _seeded_drain(good_gadget(), seed)
        reference = ReferenceSpvpSimulator(good_gadget(), seed=seed)
        assert final.converged_rpvp() == reference.run()
        events = final.witness_events()
        assert [e.describe() for e in events] == [e.describe() for e in reference.history]
        assert len(events) == reference.steps

    def test_seeded_drain_agrees_on_disagree_outcomes(self):
        """On DISAGREE (two stable states) every seed lands on the same state
        in both implementations — the channel enumeration order is preserved."""
        for seed in range(8):
            reference = ReferenceSpvpSimulator(disagree_gadget(), seed=seed)
            try:
                expected = reference.run(max_steps=5_000)
            except Exception:
                continue  # that ordering oscillates; legal SPVP
            final = _seeded_drain(disagree_gadget(), seed, max_steps=5_000)
            assert final.converged_rpvp() == expected

    def test_fail_session_matches_reference(self):
        instance = good_gadget()
        stepper = SpvpStepper(instance)
        flapped = stepper.fail_session(_seeded_drain(instance, 3), "o", "a")
        reference = ReferenceSpvpSimulator(good_gadget(), seed=3)
        reference.run()
        reference.fail_session("o", "a")
        assert buffer_map(flapped) == {
            channel: tuple(queue) for channel, queue in reference.buffers.items()
        }
        assert flapped.pending_channels() == reference.pending_messages()

    @given(scenario=spvp_scenarios(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_pending_mask_tracks_the_buffers_through_every_primitive(self, scenario, data):
        """After each delivery and each lifecycle primitive the pending mask
        has exactly the bits of the non-empty buffers, and its channels come
        out in ascending slot order, as the reference simulator lists them."""
        edge_map, preferences, schedule = scenario
        instance = GadgetInstance("o", edge_map, preferences)
        stepper = SpvpStepper(instance)
        space = stepper.space
        reference = ReferenceSpvpSimulator(instance, seed=0)
        hasher = ZobristFingerprinter(stepper.table)
        nodes = sorted(edge_map)
        sessions = sorted((node, peer) for node in edge_map for peer in edge_map[node])
        primitives = (
            "deliver", "fail_session", "crash_node", "restart_node",
            "quiesce_node", "return_to_service", "suppress_session",
        )
        state = stepper.initial_state()
        for pick in schedule[:24]:
            kind = data.draw(st.sampled_from(primitives), label="primitive")
            if kind == "deliver":
                pending = state.pending_channels()
                if not pending:
                    continue
                channel = pending[pick % len(pending)]
                event, state = stepper.deliver(state, channel)
                assert event == reference.step(channel)
            elif kind in ("fail_session", "suppress_session"):
                session = sessions[pick % len(sessions)]
                state = getattr(stepper, kind)(state, *session)
                getattr(reference, kind)(*session)
            else:
                node = nodes[pick % len(nodes)]
                state = getattr(stepper, kind)(state, node)
                getattr(reference, kind)(node)
            mask = 0
            for channel, queue in buffer_map(state).items():
                if queue:
                    mask |= space.channel_bit[channel]
            assert state.pending == mask
            slots = [space.channel_slot[channel] for channel in state.pending_channels()]
            assert slots == sorted(set(slots))
            _assert_state_matches_reference(stepper, state, reference, hasher)

    def test_divergent_configuration_still_raises(self):
        from repro.exceptions import ProtocolError

        with pytest.raises(ProtocolError):
            _seeded_drain(bad_gadget(), 1, max_steps=500)


def _seeded_drain(instance, seed, max_steps=100_000):
    """One SPVP execution in the message order ``random.Random(seed)`` picks."""
    stepper = SpvpStepper(instance)
    return stepper.drain(
        stepper.initial_state(), max_steps=max_steps, choose=random.Random(seed).choice
    )
