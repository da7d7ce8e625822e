"""Oracle pin for the sleep-set masks of the transient reduction.

:mod:`repro.modelcheck.por.sleep` computes a successor's sleep set and the
state-matching requeue rule on ``int`` masks over the instance's channel
index (bit ``i`` is ``space_for(instance).channels[i]``).  The set form
they replaced — frozensets of ``(sender, receiver)`` channels filtered by a
pairwise independence predicate — lives in
``tests/oracles/transient_reference.py``.  On every draw (a gadget or an
eBGP fat-tree instance, and drawn sleep, executed and stored channel sets)
the decoded mask results must equal the oracle's.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.modelcheck.por import (
    EMPTY_SLEEP,
    merged_sleep_for_requeue,
    successor_sleep,
)
from repro.protocols.spvp import space_for

from tests.oracles import transient_reference as reference
from tests.property.test_transient_por import gadget_scenarios
from tests.test_rpvp_spvp import GadgetInstance
from tests.test_transient import _fat_tree_bgp_instance


@lru_cache(maxsize=None)
def _fat_tree(k):
    return _fat_tree_bgp_instance(k)


def _encode(space, channels):
    mask = 0
    for channel in channels:
        mask |= space.channel_bit[channel]
    return mask


def _decode(space, mask):
    return frozenset(channel for channel in space.channels if mask & space.channel_bit[channel])


@st.composite
def sleep_draws(draw):
    """An instance, a transition, and sleep / executed / stored / reached
    channel sets over it (sparse lists or dense random masks)."""
    kind = draw(st.sampled_from(("gadget", "fat-tree k=4", "fat-tree k=6")))
    if kind == "gadget":
        edge_map, preferences, _flap = draw(gadget_scenarios())
        instance = GadgetInstance("o", edge_map, preferences)
    else:
        instance = _fat_tree(int(kind[-1]))
    space = space_for(instance)
    channels = space.channels
    subsets = st.one_of(
        st.lists(st.sampled_from(channels), unique=True, max_size=12).map(frozenset),
        st.integers(min_value=0, max_value=(1 << len(channels)) - 1).map(
            lambda mask: _decode(space, mask)
        ),
    )
    sleep = draw(subsets, label="sleep")
    executed = draw(
        st.lists(st.sampled_from(channels), unique=True, max_size=12), label="executed"
    )
    transition = draw(st.sampled_from(channels), label="transition")
    stored = draw(subsets, label="stored")
    reached = draw(
        st.one_of(subsets, subsets.map(lambda extra: stored | extra)), label="reached"
    )
    return instance, sleep, executed, transition, stored, reached


class TestSleepMasksAgainstSetOracle:
    @given(draw=sleep_draws())
    @settings(max_examples=2_000, deadline=None, derandomize=True, database=None)
    def test_mask_rules_decode_to_the_set_rules(self, draw):
        instance, sleep, executed, transition, stored, reached = draw
        space = space_for(instance)

        # The receiver's in-mask is exactly the channels dependent on it.
        in_mask = space.in_mask[transition[1]]
        for channel in space.channels:
            assert bool(in_mask & space.channel_bit[channel]) == (
                not reference.independent(channel, transition)
            )

        successor = successor_sleep(
            space, _encode(space, sleep), _encode(space, executed), transition
        )
        expected = reference.successor_sleep(sleep, executed, transition)
        assert _decode(space, successor) == expected
        assert (successor == EMPTY_SLEEP) == (not expected)

        for reached_with in (reached, expected):
            merged = merged_sleep_for_requeue(
                _encode(space, stored), _encode(space, reached_with)
            )
            oracle = reference.merged_sleep_for_requeue(stored, reached_with)
            if oracle is None:
                assert merged is None
            else:
                assert merged is not None and _decode(space, merged) == oracle
