"""Ample-set selection for the SPVP transient exploration (paper §4, POR).

At each state the explorer may expand a subset of the pending deliveries —
an *ample set* — instead of all of them, provided the classic provisos hold
(Clarke/Grumberg/Peled; Godefroid's persistent sets):

* **C0** the ample set is empty only when nothing is enabled;
* **C1** no transition *dependent* on an ample member can fire, in the full
  graph, before an ample member fires;
* **C2** a proper-subset ample set contains only *invisible* transitions
  (deliveries that do not change the forwarding relation the transient
  properties read);
* **C3** no cycle of the reduced graph consists solely of states expanded
  with a proper subset (the "ignoring" proviso).

The selector picks per-receiver ample sets: the candidate set for receiver
``d`` is *all* of ``d``'s enabled in-deliveries.  Same-receiver deliveries
are the only dependent pairs (:class:`~repro.modelcheck.por.independence.
ChannelIndependence`), so C1 reduces to: no currently-*empty* in-channel of
``d`` may receive a message before the ample fires.  A node only sends when
its best path changes, so this is established with one per-state fixpoint:

    ``Active`` = the least set containing every receiver with a *dangerous*
    queued message (one that could change its best path) and closed under
    "an active node's out-peers are active" (an active node may re-advertise
    arbitrary routes to everyone it can message).

A receiver ``d ∉ Active`` has a frozen best path in the entire future cone
of the state: every message already queued to it is harmless against a best
path that never changes, and no new message can arrive because every node
with a channel into ``d`` would itself be active.  That gives all four
provisos at once — C1 as above, C2 because harmless deliveries never change
a best path (they are invisible to the forwarding relation), and C3 because
an invisible delivery triggers no re-advertisement, so every reduced step
strictly decreases the total number of queued messages and no cycle can
consist of reduced expansions.  The explorer still re-checks C2 on the
actual successors and widens to the full set if a delivery surprises it
(``proviso_fallbacks`` in the statistics) — the danger analysis is an
over-approximation, so this is a defensive belt, not a correctness crutch.

The danger test mirrors the SPVP selection rule exactly (including the
Appendix A tie-break that keeps the incumbent): a queued message for ``d``
via ``p`` is *harmless* when its import equals ``d``'s current best (it
rewrites a holder slot with the same route), or it neither outranks the
current best, nor withdraws/overwrites the rib-in slot currently backing it,
nor gives a routeless ``d`` its first route.  Harmlessness is stable under
other harmless deliveries: they only ever add holder slots for the incumbent
or rewrite non-holder slots with routes that do not outrank it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.modelcheck.por.independence import ChannelIndependence
from repro.protocols.spvp import Channel, SpvpState, space_for


@dataclass(frozen=True)
class AmpleChoice:
    """One selection: the channels to expand and whether that is a reduction."""

    channels: Tuple[Channel, ...]
    #: True when the selection is a proper subset of the enabled deliveries
    #: (the expansion must then uphold the visibility proviso).
    reduced: bool
    #: The receiver whose in-deliveries form the ample set (None = full).
    receiver: Optional[str] = None


class AmpleSelector:
    """Per-state ample-set selection over one SPVP instance.

    ``rank_immunity`` enables the per-session refinement of the activity
    closure: an active node's out-session into ``d`` is skipped when the
    instance's static :meth:`~repro.protocols.base.PathVectorInstance.
    session_rank_bound` proves no route importable over that session can
    *strictly* outrank ``d``'s current best — and the session is not the one
    backing that best (``best.path.head``), so neither a better route nor a
    dislodging withdrawal can arrive over it.  ``reduction`` receives the
    ``rank_immune_sessions`` tally when provided: per state, the sessions
    leading from an active node to a receiver the closure left inactive —
    a function of the active set, so no traversal order enters it.

    A search visits many interleavings of few distinct routes, so each
    analysis is a look-up on the exact interned ids it is a function of,
    in memos that live and die with the selector (keys are id tuples and id
    bytes, never fingerprints — a hit cannot be a collision):

    * rank immunity on ``(receiver, sender, receiver's best id)``;
    * the danger verdict of a pending channel on ``(rib slot, queue id,
      receiver's best id, rib-in id == best id)`` — everything
      :meth:`_message_is_dangerous` reads of the state;
    * the activity closure on ``(best-slot bytes, seed set)`` — immunity and
      the frozen origin read best slots only — giving the active set and the
      immune tally.

    A miss runs the analysis itself (:meth:`_message_is_dangerous`, the
    closure loop), which is therefore also the oracle the memos are pinned
    to (``tests/property/test_transient_por.py``).
    """

    def __init__(
        self,
        instance,
        independence: Optional[ChannelIndependence] = None,
        rank_immunity: bool = True,
        reduction=None,
    ) -> None:
        self.instance = instance
        self.space = space_for(instance)
        self.independence = independence or ChannelIndependence(instance)
        self.rank_immunity = rank_immunity
        self.reduction = reduction
        #: With a single origin, every advertisement reaching it is
        #: loop-rejected (the stepper's ``path.contains(receiver)`` check), so
        #: *while its best is its own origin route* that best can never change
        #: and it never re-advertises: the activity closure neither seeds at
        #: it nor propagates into it.  The condition is forward-invariant but
        #: NOT unconditional — a lifecycle event (node crash) can leave the
        #: origin with ``best = None``, and then any delivery to it resurrects
        #: the origin route and triggers a re-advertisement — so freezing is
        #: decided per state in :meth:`frozen_nodes_of`, not at construction.
        origins = tuple(instance.origins())
        self._solo_origin = origins[0] if len(origins) == 1 else None
        self._solo_origin_rid: Optional[int] = None
        #: (receiver, sender, best route id) -> immunity verdict.  Keyed on
        #: the intern id of the receiver's best route, so across the search
        #: the rank comparison runs once per distinct (session, best) pair.
        self._immune_memo: Dict[Tuple[str, str, int], bool] = {}
        #: channel -> (receiver, its best slot, the rib slot the channel
        #: writes, the channel's own slot): where the danger test reads.
        space = self.space
        self._rows: Dict[Channel, Tuple[str, int, int, int]] = {
            (sender, receiver): (
                receiver,
                space.best_slot[receiver],
                space.rib_slot[(receiver, sender)],
                slot,
            )
            for (sender, receiver), slot in space.channel_slot.items()
        }
        #: (rib slot, queue id, best id, rib-in id == best id) -> whether any
        #: message queued on the channel is dangerous.
        self._danger_memo: Dict[Tuple[int, int, int, bool], bool] = {}
        #: Each node's position in ``instance.nodes()``: the deterministic
        #: tie-break between equally small receiver groups.
        self._order: Dict[str, int] = {node: index for index, node in enumerate(space.nodes)}
        #: (best-slot bytes, seed set) -> (active set, immune tally).
        self._closure_memo: Dict[
            Tuple[bytes, FrozenSet[str]], Tuple[FrozenSet[str], int]
        ] = {}

    # ------------------------------------------------------------------ frozen nodes
    def frozen_nodes_of(self, state: SpvpState) -> frozenset:
        """Nodes whose best path provably never changes from ``state`` on.

        Only the solo origin qualifies, and only while it currently holds its
        own origin route: from such a state every future import into it is
        loop-rejected, so its best is fixed and it never re-advertises.
        """
        origin = self._solo_origin
        if origin is None:
            return frozenset()
        rid = self._solo_origin_rid
        if rid is None:
            rid = self.space.table.route_id(self.instance.origin_route(origin))
            self._solo_origin_rid = rid
        if state._ids[self.space.best_slot[origin]] == rid:
            return frozenset((origin,))
        return frozenset()

    # ------------------------------------------------------------------ rank immunity
    def _session_immune(self, state: SpvpState, sender: str, receiver: str) -> bool:
        """Whether deliveries over ``sender -> receiver`` can never change
        ``receiver``'s current best path.

        Requires a decided receiver, a session that is not backing the
        incumbent (a withdrawal over the backing session dislodges it), and a
        static bound proving every importable route ranks no better than the
        incumbent — on ties Appendix A keeps the incumbent, so "no better"
        suffices.
        """
        best_rid = state._ids[self.space.best_slot[receiver]]
        if not best_rid:
            return False
        key = (receiver, sender, best_rid)
        cached = self._immune_memo.get(key)
        if cached is not None:
            return cached
        result = False
        bound = self.instance.session_rank_bound(receiver, sender)
        if bound is not None:
            best = self.space.table.route(best_rid)
            if best.path.head != sender:
                result = not (bound < self.instance.cached_rank(receiver, best))
        self._immune_memo[key] = result
        return result

    # ------------------------------------------------------------------ danger analysis
    def _message_is_dangerous(
        self,
        state: SpvpState,
        receiver: str,
        sender: str,
        message,
        best,
    ) -> bool:
        """Whether delivering ``message`` could change ``receiver``'s best path."""
        instance = self.instance
        imported = (
            None
            if message is None
            else instance.cached_import(receiver, sender, message)
        )
        if imported is not None and imported.path.contains(receiver):
            imported = None
        if best is None:
            if receiver in self.space.origin_set:
                # A routeless origin (post-crash) re-selects its origin route
                # on *any* delivery — even a loop-rejected one — because the
                # selection rule always includes the local origin candidate.
                return True
            # A routeless receiver acquires a best path from any accepted route.
            return imported is not None
        if imported == best:
            # Rewrites (or re-establishes) a holder slot with the incumbent.
            return False
        if state.rib_in_of(receiver, sender) == best:
            # Withdraws or overwrites a rib-in slot backing the incumbent.
            return True
        if imported is None:
            # Withdrawal of a non-backing rib-in entry: the incumbent stays.
            return False
        return instance.cached_rank(receiver, imported) < instance.cached_rank(receiver, best)

    def active_nodes(
        self, state: SpvpState, pending: Sequence[Channel]
    ) -> FrozenSet[str]:
        """Nodes whose best path might still change in this state's future.

        Seeds: receivers with a dangerous queued message.  Closure: an active
        node may re-advertise, so everything it can message is active too.
        """
        frozen = self.frozen_nodes_of(state)
        ids = state._ids
        rows = self._rows
        danger_memo = self._danger_memo
        dangerous: Set[str] = set()
        for channel in pending:
            receiver, best_slot, rib_slot, channel_slot = rows[channel]
            if receiver in dangerous or receiver in frozen:
                continue
            best_rid = ids[best_slot]
            key = (rib_slot, ids[channel_slot], best_rid, ids[rib_slot] == best_rid)
            verdict = danger_memo.get(key)
            if verdict is None:
                best = self.space.table.route(best_rid)
                verdict = any(
                    self._message_is_dangerous(state, receiver, channel[0], message, best)
                    for message in state.buffer_of(channel)
                )
                danger_memo[key] = verdict
            if verdict:
                dangerous.add(receiver)
        closure_key = (state.best_key(), frozenset(dangerous))
        closed = self._closure_memo.get(closure_key)
        if closed is None:
            closed = self._closure_memo[closure_key] = self._close(state, dangerous, frozen)
        active, immune = closed
        if self.reduction is not None:
            self.reduction.rank_immune_sessions += immune
        return active

    def _close(
        self, state: SpvpState, seeds: Set[str], frozen: frozenset
    ) -> Tuple[FrozenSet[str], int]:
        """The activity closure of ``seeds`` and its immune-session tally."""
        active = set(seeds)
        stack = list(seeds)
        out_peers = self.independence.out_peers
        rank_immunity = self.rank_immunity
        skipped: List[str] = []
        while stack:
            node = stack.pop()
            for peer in out_peers.get(node, ()):
                if peer in active or peer in frozen:
                    continue
                if rank_immunity and self._session_immune(state, node, peer):
                    # The active node may re-advertise anything over this
                    # session, but nothing importable can dislodge the
                    # receiver's best — the edge does not propagate activity.
                    skipped.append(peer)
                    continue
                active.add(peer)
                stack.append(peer)
        # A receiver skipped over one session may still have been activated
        # over another, sooner or later depending on the order of the walk.
        # Counting only the skips whose receiver stayed inactive — the
        # sessions from the active set into the rest, whichever way the walk
        # went — makes the tally a function of the (unique) closure.
        immune = sum(1 for peer in skipped if peer not in active)
        return frozenset(active), immune

    # ------------------------------------------------------------------ selection
    def select(self, state: SpvpState, enabled: Sequence[Channel]) -> AmpleChoice:
        """Pick an ample set for ``state`` (``enabled`` in canonical order).

        Preference order: the valid receiver with the fewest enabled
        in-deliveries (singletons first — maximal reduction), ties broken by
        node order so the exploration stays deterministic.  When no receiver
        passes the provisos the full enabled set is returned.
        """
        if len(enabled) <= 1:
            return AmpleChoice(tuple(enabled), reduced=False)
        by_receiver: Dict[str, List[Channel]] = {}
        for channel in enabled:
            by_receiver.setdefault(channel[1], []).append(channel)
        if len(by_receiver) == 1:
            return AmpleChoice(tuple(enabled), reduced=False)
        active = self.active_nodes(state, enabled)
        order = self._order
        choice: Optional[Tuple[Tuple[int, int], str]] = None
        for receiver, group in by_receiver.items():
            if receiver in active:
                continue
            key = (len(group), order[receiver])
            if choice is None or key < choice[0]:
                choice = (key, receiver)
        if choice is None:
            return AmpleChoice(tuple(enabled), reduced=False)
        receiver = choice[1]
        return AmpleChoice(
            tuple(by_receiver[receiver]), reduced=True, receiver=receiver
        )
