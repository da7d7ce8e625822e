"""Sleep sets for the SPVP transient exploration (Godefroid).

Ample sets prune *states*; sleep sets prune the *commuting permutations*
ample sets miss.  Each frontier entry carries a sleep set: deliveries whose
interleaving with everything executed here is already covered by a sibling
branch.  When a state expands transitions ``t1 .. tk`` in order, the
successor via ``ti`` inherits

    ``{ t in sleep(state) ∪ {t1 .. t(i-1)} : independent(t, ti) }``

— the earlier siblings (and the inherited sleepers) that commute with
``ti`` need not be re-executed after it, because executing them *before*
``ti`` reaches the same states.  Transitions found in the sleep set are
skipped at expansion time.

A sleep set is an ``int`` mask over the instance's channel index (bit ``i``
is channel ``i`` of :func:`~repro.protocols.spvp.space_for`'s layout, as in
a state's pending mask).  Same-receiver deliveries are the only dependent
pairs (:attr:`~repro.protocols.spvp._SpvpSpace.in_mask`), so the filter above is
one mask operation: clear the bits of the channels into ``ti``'s receiver.

Combining sleep sets with a visited set needs one extra rule to stay sound
(state matching can otherwise lose states): a state re-reached with a sleep
set that is *not a superset* of the one it was first explored with may have
fresh outgoing behaviour, so it is re-queued for expansion with the
intersection of the two sleep sets.  Such re-expansions never re-count the
state (the budget and the property checks see every state exactly once);
with the rule in place sleep sets prune transitions, not reachable states.
"""

from __future__ import annotations

from typing import Optional

from repro.protocols.spvp import Channel

#: The empty sleep set.
EMPTY_SLEEP = 0


def successor_sleep(
    space,
    sleep: int,
    executed_before: int,
    transition: Channel,
) -> int:
    """The sleep set of the successor reached via ``transition``: the
    inherited sleepers and earlier siblings (``executed_before``, a mask)
    whose receiver is not ``transition``'s.  ``space`` is the instance's
    slot layout (:func:`~repro.protocols.spvp.space_for`)."""
    return (sleep | executed_before) & ~space.in_mask[transition[1]]


def merged_sleep_for_requeue(stored: int, reached_with: int) -> Optional[int]:
    """The sleep set to re-expand a revisited state with, or None to skip.

    ``None`` means ``reached_with`` is subsumed: everything this visit would
    explore was (or will be) explored by the first visit.  Otherwise the
    intersection is the weakest sleep set covering both visits, and the
    state must be re-queued with it (the state-matching soundness rule).
    """
    if not stored & ~reached_with:
        return None
    return stored & reached_with
