"""POR-aware minimisation of transient counterexample witnesses.

A transient violation's witness is the BFS delivery sequence that reached
the violating state.  Breadth-first order makes it short in *depth*, but it
still interleaves deliveries that have nothing to do with the violation —
convergence activity at distant routers that happened to be queued first.
This module shrinks a witness after the fact:

1. Compute the violation's **receiver chain**: walking the witness
   backwards from the violating state, a delivery is *relevant* when its
   receiver is one of the nodes implicated in the violation (the
   forwarding cycle / dead end) or the sender of a later relevant delivery
   — the same dependency notion the partial-order reduction uses
   (same-receiver deliveries conflict; a delivery can enable a later one
   only by making its receiver re-advertise).
2. Try dropping every delivery *outside* that chain at once, then keep
   greedily dropping single deliveries while the shortened sequence still
   **replays**: every delivery must be enabled in turn from the root, and
   the final state must violate the same property with the same message.

Replay validation makes the minimisation sound regardless of how sharp the
receiver-chain heuristic is: a drop that changes enabledness or the
violation is rejected.  The result is a witness that is a subsequence of
the original, replays from the same root, and ends in a state exhibiting
the same violation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.exceptions import ProtocolError
from repro.protocols.spvp import Channel, SpvpEvent, SpvpState, SpvpStepper
from repro.transient.properties import TransientForwarding, TransientProperty


def _replay(
    stepper: SpvpStepper, root: SpvpState, channels: Sequence[Channel]
) -> Optional[SpvpState]:
    """Deliver ``channels`` in order from ``root``; None when one is not enabled."""
    state = root
    channel_bit = root._space.channel_bit
    for channel in channels:
        if not state.pending & channel_bit.get(channel, 0):
            return None
        try:
            _event, state = stepper.deliver(state, channel)
        except ProtocolError:
            return None
    return state


def _violates(
    prop: TransientProperty, state: SpvpState, message: str
) -> bool:
    """Whether ``state`` exhibits the original violation (same message)."""
    return prop.check(TransientForwarding.of_state(state), state.is_converged()) == message


def violation_nodes(state: SpvpState) -> Set[str]:
    """The nodes implicated in ``state``'s forwarding anomaly.

    The forwarding cycle when one exists, plus every dead-ended node —
    covering the shipped transient properties.  Callers fall back to all
    nodes when the set comes back empty (an unknown property shape).
    """
    forwarding = TransientForwarding.of_state(state)
    implicated: Set[str] = set(forwarding.find_cycle() or ())
    implicated.update(forwarding.dead_ends())
    return implicated


def receiver_chain_indices(
    events: Sequence[SpvpEvent], relevant: Set[str]
) -> Set[int]:
    """Indices of witness deliveries on the violation's receiver chain.

    Walking backwards, a delivery is kept when its receiver is already
    relevant (it may have produced the receiver's final best path, or made
    it re-advertise toward another relevant node); its sender then becomes
    relevant too, because the delivered message had to be queued by one of
    the sender's own earlier best-path changes.
    """
    needed: Set[str] = set(relevant)
    kept: Set[int] = set()
    for index in range(len(events) - 1, -1, -1):
        event = events[index]
        if event.node in needed:
            kept.add(index)
            needed.add(event.peer)
    return kept


def minimize_witness(
    stepper: SpvpStepper,
    root: SpvpState,
    violating: SpvpState,
    prop: TransientProperty,
    message: str,
) -> SpvpState:
    """The violating state of a minimised replay of ``violating``'s witness.

    Returns a state whose :meth:`~repro.protocols.spvp.SpvpState.
    witness_events` chain is a (possibly equal) subsequence of the original
    witness, replays from ``root``, and violates ``prop`` with ``message``.
    The original state is returned unchanged when nothing can be dropped.
    """
    # The violating state's parent chain runs back through ``root`` to the
    # cold-start initial state, so its witness includes the deliveries of
    # any initial events (a pre-flap Converge() drain).  Only the suffix
    # explored *from the root* is up for minimisation — the prefix is the
    # perturbation setup, not interleaving choice.
    events = violating.witness_events()[len(root.witness_events()) :]
    if not events:
        return violating
    channels: List[Channel] = [(event.peer, event.node) for event in events]

    relevant = violation_nodes(violating)
    best_state = violating
    best_channels = channels

    def attempt(candidate: List[Channel]) -> bool:
        nonlocal best_state, best_channels
        final = _replay(stepper, root, candidate)
        if final is None or not _violates(prop, final, message):
            return False
        best_state = final
        best_channels = candidate
        return True

    # Fast path: drop everything off the receiver chain in one go.
    if relevant:
        kept = receiver_chain_indices(events, relevant)
        if len(kept) < len(channels):
            attempt([channels[i] for i in sorted(kept)])

    # Greedy fixpoint: keep dropping single deliveries while the witness
    # still replays to the same violation.  A successful drop at ``index``
    # leaves the positions below it untouched, so the downward scan
    # continues instead of restarting; the outer loop re-scans only until
    # nothing changes (a drop can unlock an earlier-failed one).  Witnesses
    # are depth-bounded, so the quadratic replay cost stays small.
    changed = True
    while changed:
        changed = False
        index = len(best_channels) - 1
        while index >= 0:
            candidate = best_channels[:index] + best_channels[index + 1 :]
            if attempt(candidate):
                changed = True
            index -= 1
    return best_state
