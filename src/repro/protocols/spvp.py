"""Extended SPVP: the message-passing reference model (paper Appendix A).

SPVP is the faithful abstraction of real BGP message exchange: every node
keeps a ``rib-in`` per peer, peers exchange advertisements over reliable FIFO
buffers, and a node that changes its best path re-advertises it.  Plankton
does *not* model check SPVP — it checks RPVP, which Theorem 1 proves reaches
the same converged states — but SPVP is implemented here for three reasons:

* the soundness/completeness relationship between the two models is validated
  experimentally by the test suite (every SPVP converged state is also found
  by the RPVP search, and vice versa, on the paper's example gadgets);
* the Batfish-style simulation baseline (`repro.baselines.simulation`) is one
  arbitrary SPVP execution, which is exactly how simulation misses violations
  that only some orderings expose (BGP wedgies);
* divergent configurations (BAD GADGET) can be demonstrated on it.

The state lives in :class:`SpvpState`, the id-array kernel of
:mod:`repro.protocols.interning` (the one :class:`RpvpState` is built on)
over one slot layout per instance (:class:`_SpvpSpace`): the node block of
the instance's node space — one best-route id per node, in the same sorted
order and intern table as an RPVP state, so the best block *is* an
:class:`RpvpState` — followed by the rib-in and channel blocks (route ids in
best/rib slots, queue ids in channel slots).  Equality between states of one
instance is an integer array compare; the visited-set fingerprint is an
O(changed-slots) Zobrist XOR over ``(slot, id)`` components.
:class:`SpvpStepper` is the stateless transition function over those
states, generating successors through id-keyed import/export/rank memos;
:class:`SpvpSimulator` is a thin mutable wrapper (current state + RNG +
history) that keeps the historic simulation API.  The dict/deque simulator
this core replaced is not shipped: it lives in
``tests/oracles/spvp_reference.py`` as the oracle the property tests step in
lockstep with it.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.exceptions import ProtocolError
from repro.protocols.base import EPSILON, Path, PathVectorInstance, Route
from repro.protocols.interning import IdArrayState, node_space_for
from repro.protocols.rpvp import RpvpState


@dataclass(frozen=True)
class SpvpEvent:
    """One SPVP step: ``node`` processed an advertisement from ``peer``."""

    node: str
    peer: str
    advertised: Optional[Route]
    new_best: Optional[Route]

    def describe(self) -> str:
        adv = self.advertised.describe() if self.advertised else "withdraw"
        best = self.new_best.describe() if self.new_best else "<no route>"
        return f"{self.node} processed {adv} from {self.peer}; best is now {best}"


#: A directed message channel: (sender, receiver).
Channel = Tuple[str, str]


class _SpvpSpace:
    """The shared slot layout of all SPVP states over one protocol instance.

    Every state of one instance assigns values to the same slots, so the slot
    numbering (and the per-node peer/slot adjacency the stepper needs) lives
    here exactly once:

    * slots ``[0, len(nodes))`` — per-node best route: the node block of the
      instance's node space, in its sorted-name order;
    * the next block — per-(node, peer) rib-in entry;
    * the final block, from :attr:`buffer_base` — per-(sender, receiver)
      channel FIFO, stored as the intern id of the queued-advertisement tuple.

    Ids resolve through the node space's intern table (:attr:`table`), the
    one every RPVP state over the same nodes uses.

    :attr:`nodes` (and with it :attr:`best_slot`'s iteration order) and the
    rib and channel blocks follow ``for node in nodes(): for peer in
    peers(node)`` — the insertion order of the original dict-based simulator
    — so channel enumeration (and with it seeded simulations and exploration
    order) is unchanged by the representation.
    """

    __slots__ = (
        "nodes",
        "origin_set",
        "best_slot",
        "rib_slot",
        "channels",
        "channel_slot",
        "rib_slots_of",
        "out_slots_of",
        "in_peers",
        "out_peers",
        "buffer_base",
        "total_slots",
        "node_space",
        "table",
    )

    def __init__(self, instance: PathVectorInstance) -> None:
        self.node_space = node_space_for(instance)
        self.table = self.node_space.table
        self.nodes: Tuple[str, ...] = tuple(instance.nodes())
        self.origin_set: FrozenSet[str] = frozenset(instance.origins())
        slot_of = self.node_space.slot_of
        self.best_slot: Dict[str, int] = {node: slot_of[node] for node in self.nodes}
        self.rib_slot: Dict[Tuple[str, str], int] = {}
        self.channels: List[Channel] = []
        self.channel_slot: Dict[Channel, int] = {}
        next_slot = len(self.nodes)
        for node in self.nodes:
            for peer in instance.peers(node):
                self.rib_slot[(node, peer)] = next_slot
                next_slot += 1
        self.buffer_base = next_slot
        for node in self.nodes:
            for peer in instance.peers(node):
                channel = (peer, node)
                self.channels.append(channel)
                self.channel_slot[channel] = next_slot
                next_slot += 1
        self.total_slots = next_slot
        #: (peer, rib slot) pairs of each node, in peers() order — the
        #: candidate enumeration order of best-path selection.
        self.rib_slots_of: Dict[str, Tuple[Tuple[str, int], ...]] = {
            node: tuple(
                (peer, self.rib_slot[(node, peer)]) for peer in instance.peers(node)
            )
            for node in self.nodes
        }
        #: (peer, channel, channel slot) triples of each node's outgoing
        #: channels, in peers() order — the re-advertisement fan-out.
        self.out_slots_of: Dict[str, Tuple[Tuple[str, Channel, int], ...]] = {
            node: tuple(
                (peer, (node, peer), self.channel_slot[(node, peer)])
                for peer in instance.peers(node)
            )
            for node in self.nodes
        }
        #: Channel adjacency, in canonical slot order: who each node can
        #: message (``out_peers``) and be messaged by (``in_peers``).  The
        #: partial-order-reduction machinery reasons over these.
        self.out_peers: Dict[str, Tuple[str, ...]] = {
            node: tuple(peer for peer, _channel, _slot in self.out_slots_of[node])
            for node in self.nodes
        }
        in_peers: Dict[str, List[str]] = {node: [] for node in self.nodes}
        for sender, receiver in self.channels:
            in_peers[receiver].append(sender)
        self.in_peers: Dict[str, Tuple[str, ...]] = {
            node: tuple(senders) for node, senders in in_peers.items()
        }


def _space_for(instance: PathVectorInstance) -> _SpvpSpace:
    """The (memoised) slot layout of ``instance``."""
    space = getattr(instance, "_spvp_space", None)
    if space is None:
        space = _SpvpSpace(instance)
        instance._spvp_space = space  # type: ignore[attr-defined]
    return space


#: Public name for the memoised slot layout: the partial-order-reduction
#: subsystem (repro.modelcheck.por) derives its channel adjacency from it.
space_for = _space_for


class SpvpState(IdArrayState):
    """An immutable SPVP network state: best routes, rib-ins, FIFO buffers.

    The state proper is one flat ``array('i')`` of intern ids over the
    instance's shared :class:`_SpvpSpace`: best/rib-in slots hold route ids,
    channel slots hold queue ids (id 0 is None / the empty queue).  Equality
    between states of one instance is therefore a C-level integer array
    compare and hashing never touches a route.  A delivery touches a handful
    of slots (the drained channel, the receiver's rib-in and best, and — on a
    best-path change — the receiver's outgoing channels); a derived state
    copies the id array and records the ``(slot, old_id, new_id)`` deltas,
    which makes its Zobrist visited-set fingerprint an O(changed-slots) XOR
    off its parent's instead of a full-state hash.  Each derived state also
    keeps its parent and the :class:`SpvpEvent` that produced it, so
    explorers reconstruct witness event sequences from the parent chain
    instead of copying histories.

    Fingerprints key on ``(slot, id)``; route attributes are a deterministic
    function of the path for a fixed instance, so this identifies exactly
    the states the reference explorer's path-keyed visited-set signature
    does.
    """

    __slots__ = ("event", "pending")

    def _init(
        self,
        space: _SpvpSpace,
        ids: array,
        pending: FrozenSet[Channel],
        parent: Optional["SpvpState"] = None,
        delta: Tuple[Tuple[int, int, int], ...] = (),
        event: Optional[SpvpEvent] = None,
    ) -> "SpvpState":
        self._init_ids(space, ids, parent, delta)
        #: Channels with at least one queued advertisement (delta-maintained:
        #: one delivery removes at most the drained channel and adds the
        #: receiver's out-channels; no buffer rescan ever happens).
        self.pending = pending
        #: The delivery that produced this state from its parent.
        self.event = event
        return self

    # ------------------------------------------------------------------ access
    def best_of(self, node: str) -> Optional[Route]:
        """The current best route of ``node`` (None = the paper's ⊥)."""
        try:
            slot = self._space.best_slot[node]
        except KeyError:
            raise ProtocolError(f"node {node!r} not part of this SPVP state") from None
        return self._space.table.route(self._ids[slot])

    def rib_in_of(self, node: str, peer: str) -> Optional[Route]:
        """The rib-in entry ``node`` holds for ``peer``."""
        try:
            slot = self._space.rib_slot[(node, peer)]
        except KeyError:
            raise ProtocolError(
                f"({node!r}, {peer!r}) is not a session of this SPVP state"
            ) from None
        return self._space.table.route(self._ids[slot])

    def buffer_of(self, channel: Channel) -> Tuple[Optional[Route], ...]:
        """The queued advertisements of ``channel``, oldest first."""
        try:
            slot = self._space.channel_slot[channel]
        except KeyError:
            raise ProtocolError(f"channel {channel!r} not part of this SPVP state") from None
        table = self._space.table
        return tuple(table.route(rid) for rid in table.queue(self._ids[slot]))

    def best_map(self) -> Dict[str, Optional[Route]]:
        """The node -> best route assignment as a mutable dict, in
        ``instance.nodes()`` order."""
        table = self._space.table
        ids = self._ids
        return {
            node: table.route(ids[slot])
            for node, slot in self._space.best_slot.items()
        }

    def best_key(self) -> bytes:
        """The best-path assignment as the raw bytes of its id slots.

        Equal between two states of one instance iff every node holds the
        same best route — the memo key of whatever is a function of the
        best paths alone (the forwarding relation, the activity closure).
        The bytes of :meth:`converged_rpvp`'s id array.
        """
        return self._ids[: len(self._space.nodes)].tobytes()

    def rib_in_map(self) -> Dict[Tuple[str, str], Optional[Route]]:
        """The (node, peer) -> rib-in assignment as a mutable dict."""
        table = self._space.table
        ids = self._ids
        return {
            key: table.route(ids[slot]) for key, slot in self._space.rib_slot.items()
        }

    def buffer_map(self) -> Dict[Channel, Tuple[Optional[Route], ...]]:
        """The channel -> queued advertisements map (tuples, oldest first)."""
        return {channel: self.buffer_of(channel) for channel in self._space.channels}

    def pending_channels(self) -> List[Channel]:
        """Pending channels in the canonical (slot) enumeration order."""
        if not self.pending:
            return []
        slot_of = self._space.channel_slot
        return sorted(self.pending, key=slot_of.__getitem__)

    def is_converged(self) -> bool:
        """True when every buffer is empty (the SPVP convergence condition)."""
        return not self.pending

    def converged_rpvp(self) -> RpvpState:
        """The current best-path assignment as an :class:`RpvpState`.

        The best block is laid out as the node space's RPVP id vector, so
        this is a slice of the id array: nothing is decoded or interned.
        """
        space = self._space
        return RpvpState.__new__(RpvpState)._init(
            space.node_space, self._ids[: len(space.nodes)]
        )

    def witness_events(self) -> List[SpvpEvent]:
        """The delivery sequence from the root to this state (parent chain)."""
        events: List[SpvpEvent] = []
        state: Optional[SpvpState] = self
        while state is not None:
            if state.event is not None:
                events.append(state.event)
            state = state.parent
        events.reverse()
        return events

    # ------------------------------------------------------------------ derive
    def _derive(
        self,
        updates: List[Tuple[int, int]],
        pending: FrozenSet[Channel],
        event: Optional[SpvpEvent],
    ) -> "SpvpState":
        """A new state with ``updates`` (slot, new id) applied."""
        ids = array("i", self._ids)
        delta: List[Tuple[int, int, int]] = []
        for slot, new in updates:
            old = ids[slot]
            if old == new:
                continue
            ids[slot] = new
            delta.append((slot, old, new))
        return SpvpState.__new__(SpvpState)._init(
            self._space,
            ids,
            pending,
            parent=self,
            delta=tuple(delta),
            event=event,
        )

    def __repr__(self) -> str:
        return (
            f"SpvpState({len(self._space.nodes)} nodes, "
            f"{len(self.pending)} pending channel(s))"
        )


class SpvpStepper:
    """The stateless SPVP transition function over :class:`SpvpState`.

    One stepper serves one protocol instance; it owns no mutable protocol
    state, so any number of explorations/simulations can share it and a
    single state can be expanded along every pending channel without copying
    the rest of the world.
    """

    def __init__(self, instance: PathVectorInstance) -> None:
        self.instance = instance
        self.space = _space_for(instance)
        self.table = self.space.table
        # Lifecycle overlays (scenario events, src/repro/scenarios/).  These
        # live on the stepper, not the state: events are applied once, to the
        # root of an exploration, so every state expanded by this stepper is
        # governed by the same overlay — exactly as the reference simulator
        # (tests/oracles/spvp_reference.py) carries its own sets into every
        # clone.
        #: Drained nodes: keep their RIB and answer nothing — a quiesced node
        #: never re-advertises a changed best path.
        self.quiesced: Set[str] = set()
        #: Gray-failed directed sessions: route UPDATEs out of ``(a, b)`` are
        #: silently dropped at send time.  Transport-level session teardown
        #: (``fail_session``, ``crash_node``) still passes.
        self.suppressed: Set[Channel] = set()
        # Id-keyed memos over the space's intern table.  SPVP explores a very
        # large number of interleavings of a small set of distinct routes, so
        # after warm-up a delivery is dict lookups on small-int keys end to
        # end — no route hashing on the hot path.  Memo values may legally be
        # id 0 (None route / empty queue): misses test ``is None``.
        #: (rib slot, advertised rid) -> imported rid (post loop-check).
        self._import_ids: Dict[Tuple[int, int], int] = {}
        #: (out channel slot, best rid) -> advertised rid.
        self._export_ids: Dict[Tuple[int, int], int] = {}
        #: (node, rid) -> rank tuple.
        self._rank_ids: Dict[Tuple[str, int], Tuple] = {}
        #: node -> rid of its origin route.
        self._origin_ids: Dict[str, int] = {}

    def _origin_id(self, node: str) -> int:
        rid = self._origin_ids.get(node)
        if rid is None:
            rid = self.table.route_id(self.instance.origin_route(node))  # type: ignore[attr-defined]
            self._origin_ids[node] = rid
        return rid

    def _rank_of(self, node: str, rid: int) -> Tuple:
        rank = self._rank_ids.get((node, rid))
        if rank is None:
            rank = self.instance.cached_rank(node, self.table.route(rid))
            self._rank_ids[(node, rid)] = rank
        return rank

    # ------------------------------------------------------------------ roots
    def initial_state(self) -> SpvpState:
        """The SPVP initial state: origins hold and advertise their route."""
        space = self.space
        instance = self.instance
        table = self.table
        ids = array("i", bytes(4 * space.total_slots))
        pending: List[Channel] = []
        for node in space.nodes:
            if node not in space.origin_set:
                continue
            route = instance.origin_route(node)  # type: ignore[attr-defined]
            ids[space.best_slot[node]] = table.route_id(route)
            # Origins advertise their path to every peer up front (Appendix A).
            for peer, channel, slot in space.out_slots_of[node]:
                advertisement = instance.cached_export(node, peer, route)
                ids[slot] = table.queue_id((table.route_id(advertisement),))
                pending.append(channel)
        return SpvpState.__new__(SpvpState)._init(space, ids, frozenset(pending))

    def state_from_maps(
        self,
        best: Dict[str, Optional[Route]],
        rib_in: Dict[Tuple[str, str], Optional[Route]],
        buffers: Dict[Channel, Iterable[Optional[Route]]],
    ) -> SpvpState:
        """Build a state from explicit maps (oracle tests, reconstruction)."""
        space = self.space
        table = self.table
        ids = array("i", bytes(4 * space.total_slots))
        for node, slot in space.best_slot.items():
            ids[slot] = table.route_id(best[node])
        for key, slot in space.rib_slot.items():
            ids[slot] = table.route_id(rib_in[key])
        pending: List[Channel] = []
        for channel in space.channels:
            queue = tuple(buffers[channel])
            ids[space.channel_slot[channel]] = table.queue_id(
                tuple(table.route_id(route) for route in queue)
            )
            if queue:
                pending.append(channel)
        return SpvpState.__new__(SpvpState)._init(space, ids, frozenset(pending))

    # ------------------------------------------------------------------ stepping
    def deliver(self, state: SpvpState, channel: Channel) -> Tuple[SpvpEvent, SpvpState]:
        """Process the oldest advertisement queued on ``channel``.

        Returns the event and the successor state; raises
        :class:`ProtocolError` when the channel has nothing pending.
        """
        space = self.space
        table = self.table
        channel_slot = space.channel_slot.get(channel)
        if channel_slot is None:
            raise ProtocolError(f"channel {channel} has no pending message")
        qid = state._ids[channel_slot]
        if not qid:
            raise ProtocolError(f"channel {channel} has no pending message")
        queue_rids = table.queue(qid)
        sender, receiver = channel
        advertised_rid = queue_rids[0]
        remaining_qid = table.queue_id(queue_rids[1:])
        updates: List[Tuple[int, int]] = [(channel_slot, remaining_qid)]

        rib_slot = space.rib_slot[(receiver, sender)]
        imported_rid = self._import_ids.get((rib_slot, advertised_rid))
        if imported_rid is None:
            advertised = table.route(advertised_rid)
            imported = (
                None
                if advertised is None
                else self.instance.cached_import(receiver, sender, advertised)
            )
            if imported is not None and imported.path.contains(receiver):
                imported = None
            imported_rid = table.route_id(imported)
            self._import_ids[(rib_slot, advertised_rid)] = imported_rid
        updates.append((rib_slot, imported_rid))

        best_slot = space.best_slot[receiver]
        current_rid = state._ids[best_slot]
        new_best_rid = self._select_best_id(
            state, receiver, sender, imported_rid, current_rid
        )
        updates.append((best_slot, new_best_rid))
        event = SpvpEvent(
            node=receiver,
            peer=sender,
            advertised=table.route(advertised_rid),
            new_best=table.route(new_best_rid),
        )

        pending = state.pending
        if not remaining_qid:
            pending = pending - {channel}
        if (
            table.path_id(current_rid) != table.path_id(new_best_rid)
            and receiver not in self.quiesced
        ):
            # The receiver re-advertises its (possibly withdrawn) best path.
            added: List[Channel] = []
            export_ids = self._export_ids
            for peer, out_channel, out_slot in space.out_slots_of[receiver]:
                if out_channel in self.suppressed:
                    continue
                advertisement_rid = export_ids.get((out_slot, new_best_rid))
                if advertisement_rid is None:
                    advertisement_rid = table.route_id(
                        self.instance.cached_export(
                            receiver, peer, table.route(new_best_rid)
                        )
                    )
                    export_ids[(out_slot, new_best_rid)] = advertisement_rid
                out_qid = (
                    remaining_qid if out_slot == channel_slot else state._ids[out_slot]
                )
                updates.append(
                    (out_slot, table.queue_id(table.queue(out_qid) + (advertisement_rid,)))
                )
                added.append(out_channel)
            pending = pending | frozenset(added)
        return event, state._derive(updates, pending, event)

    def _select_best_id(
        self,
        state: SpvpState,
        node: str,
        updated_peer: str,
        updated_rid: int,
        current_rid: int,
    ) -> int:
        """Recompute ``node``'s best route (as an intern id) from its rib-in."""
        ids = state._ids
        best_rid = 0
        best_rank = None
        current_in = False
        if node in self.space.origin_set:
            best_rid = self._origin_id(node)
            best_rank = self._rank_of(node, best_rid)
            current_in = best_rid == current_rid
        for peer, slot in self.space.rib_slots_of[node]:
            rid = updated_rid if peer == updated_peer else ids[slot]
            if not rid:
                continue
            if rid == current_rid:
                current_in = True
            rank = self._rank_of(node, rid)
            if best_rank is None or rank < best_rank:
                best_rid = rid
                best_rank = rank
        if best_rank is None:
            return 0
        if current_rid and current_in:
            # Appendix A: if the best rib-in entry ties with the still-valid
            # current best path, the best path does not change.
            if self._rank_of(node, current_rid) == best_rank:
                return current_rid
        return best_rid

    def drain(self, state: SpvpState, max_steps: int = 100_000) -> SpvpState:
        """Deliver pending messages in canonical (slot) order until converged.

        One deterministic execution — the first pending channel is always
        delivered next — so every caller (steady-state construction before a
        perturbation, oracle comparisons) reaches the same fixed point.
        Raises :class:`ProtocolError` after ``max_steps`` deliveries
        (divergent configurations).
        """
        steps = 0
        while not state.is_converged():
            if steps >= max_steps:
                raise ProtocolError(
                    f"SPVP did not converge within {max_steps} steps for "
                    f"{self.instance.name} (possibly a divergent configuration)"
                )
            _event, state = self.deliver(state, state.pending_channels()[0])
            steps += 1
        return state

    def fail_session(self, state: SpvpState, a: str, b: str) -> SpvpState:
        """Drop the buffers between ``a`` and ``b`` and deliver ⊥ to both peers.

        Appendix A: when a session fails, queued messages are lost and each
        peer sees a withdraw.
        """
        space = self.space
        withdraw_qid = self.table.queue_id((0,))
        updates: List[Tuple[int, int]] = []
        added: List[Channel] = []
        for channel in ((a, b), (b, a)):
            slot = space.channel_slot.get(channel)
            if slot is None:
                continue
            updates.append((slot, withdraw_qid))
            added.append(channel)
        return state._derive(updates, state.pending | frozenset(added), None)

    # ------------------------------------------------------------------ lifecycle
    def crash_node(self, state: SpvpState, node: str) -> SpvpState:
        """``node`` crashes: its RIB is lost, every adjacent session drops.

        SPVP has no down-state, so a crash is modeled as crash-recovery: the
        node rejoins cold (``best = None``, empty rib-ins — even an origin,
        which lazily re-selects its origin route on the next delivery to it),
        in-flight messages towards it are lost, and each peer sees a
        transport-level ⊥ (delivered even on gray-failed sessions).
        """
        space = self.space
        table = self.table
        withdraw_qid = table.queue_id((0,))
        updates: List[Tuple[int, int]] = [(space.best_slot[node], 0)]
        added: List[Channel] = []
        removed: List[Channel] = []
        for _peer, slot in space.rib_slots_of[node]:
            updates.append((slot, 0))
        for peer, out_channel, out_slot in space.out_slots_of[node]:
            updates.append((out_slot, withdraw_qid))
            added.append(out_channel)
            in_channel = (peer, node)
            updates.append((space.channel_slot[in_channel], 0))
            removed.append(in_channel)
        pending = (state.pending - frozenset(removed)) | frozenset(added)
        return state._derive(updates, pending, None)

    def restart_node(self, state: SpvpState, node: str) -> SpvpState:
        """``node`` boots: sessions bounce, then both sides re-advertise.

        The restarting node comes up with only its locally-originated route
        (if any) and advertises it; each peer answers session re-establishment
        by re-sending its current best.  Gray-failed directions drop the route
        updates but still carry the transport ⊥.
        """
        space = self.space
        table = self.table
        instance = self.instance
        boot_rid = self._origin_id(node) if node in space.origin_set else 0
        updates: List[Tuple[int, int]] = [(space.best_slot[node], boot_rid)]
        added: List[Channel] = []
        removed: List[Channel] = []
        for _peer, slot in space.rib_slots_of[node]:
            updates.append((slot, 0))
        for peer, out_channel, out_slot in space.out_slots_of[node]:
            out_queue: Tuple[int, ...] = (0,)
            if boot_rid and out_channel not in self.suppressed:
                out_queue += (
                    table.route_id(
                        instance.cached_export(node, peer, table.route(boot_rid))
                    ),
                )
            updates.append((out_slot, table.queue_id(out_queue)))
            added.append(out_channel)
            in_channel = (peer, node)
            in_slot = space.channel_slot[in_channel]
            if in_channel in self.suppressed or peer in self.quiesced:
                updates.append((in_slot, 0))
                removed.append(in_channel)
            else:
                peer_best_rid = state._ids[space.best_slot[peer]]
                updates.append(
                    (
                        in_slot,
                        table.queue_id(
                            (
                                table.route_id(
                                    instance.cached_export(
                                        peer, node, table.route(peer_best_rid)
                                    )
                                ),
                            )
                        ),
                    )
                )
                added.append(in_channel)
        pending = (state.pending - frozenset(removed)) | frozenset(added)
        return state._derive(updates, pending, None)

    def quiesce_node(self, state: SpvpState, node: str) -> SpvpState:
        """Maintenance drain: ``node`` gracefully withdraws and goes quiet.

        The node keeps its RIB (it can still forward) but appends a ⊥ to every
        outbound session and — via the ``quiesced`` overlay — stops
        re-advertising best-path changes until :meth:`return_to_service`.
        """
        self.quiesced.add(node)
        table = self.table
        updates: List[Tuple[int, int]] = []
        added: List[Channel] = []
        for _peer, channel, slot in self.space.out_slots_of[node]:
            if channel in self.suppressed:
                continue
            updates.append((slot, table.queue_id(table.queue(state._ids[slot]) + (0,))))
            added.append(channel)
        return state._derive(updates, state.pending | frozenset(added), None)

    def return_to_service(self, state: SpvpState, node: str) -> SpvpState:
        """End a maintenance drain: ``node`` re-advertises its current best."""
        self.quiesced.discard(node)
        space = self.space
        table = self.table
        best_rid = state._ids[space.best_slot[node]]
        export_ids = self._export_ids
        updates: List[Tuple[int, int]] = []
        added: List[Channel] = []
        for peer, channel, slot in space.out_slots_of[node]:
            if channel in self.suppressed:
                continue
            advertisement_rid = export_ids.get((slot, best_rid))
            if advertisement_rid is None:
                advertisement_rid = table.route_id(
                    self.instance.cached_export(node, peer, table.route(best_rid))
                )
                export_ids[(slot, best_rid)] = advertisement_rid
            updates.append(
                (slot, table.queue_id(table.queue(state._ids[slot]) + (advertisement_rid,)))
            )
            added.append(channel)
        return state._derive(updates, state.pending | frozenset(added), None)

    def suppress_session(self, state: SpvpState, exporter: str, importer: str) -> SpvpState:
        """Gray failure: the ``exporter → importer`` direction silently drops
        route updates from now on; queued updates are lost, and the importer's
        rib-in stays stale — that silent staleness is the gray part."""
        channel = (exporter, importer)
        self.suppressed.add(channel)
        slot = self.space.channel_slot.get(channel)
        if slot is None:
            return state
        return state._derive([(slot, 0)], state.pending - {channel}, None)


class SpvpSimulator:
    """An executable extended-SPVP instance over a :class:`PathVectorInstance`.

    A thin mutable wrapper over the persistent core: the current
    :class:`SpvpState`, an RNG for non-deterministic channel picks, and the
    event history.  ``step`` picks a pending message (non-deterministically
    via the supplied RNG) and processes it atomically, as in Appendix A.
    Channel enumeration order matches the original dict-based simulator, so
    seeded runs reproduce the same executions.
    """

    def __init__(self, instance: PathVectorInstance, seed: int = 0) -> None:
        self.instance = instance
        self.rng = random.Random(seed)
        self.stepper = SpvpStepper(instance)
        self.state = self.stepper.initial_state()
        self.history: List[SpvpEvent] = []
        self.steps = 0

    # ------------------------------------------------------------------ views
    @property
    def best(self) -> Dict[str, Optional[Route]]:
        """The per-node best routes of the current state."""
        return self.state.best_map()

    @property
    def rib_in(self) -> Dict[Tuple[str, str], Optional[Route]]:
        """The per-(node, peer) rib-in entries of the current state."""
        return self.state.rib_in_map()

    @property
    def buffers(self) -> Dict[Channel, Tuple[Optional[Route], ...]]:
        """The per-channel message queues of the current state."""
        return self.state.buffer_map()

    # ------------------------------------------------------------------ stepping
    def pending_messages(self) -> List[Channel]:
        """(sender, receiver) pairs with at least one queued advertisement."""
        return self.state.pending_channels()

    def is_converged(self) -> bool:
        """True when every buffer is empty (the SPVP convergence condition)."""
        return self.state.is_converged()

    def step(self, channel: Optional[Channel] = None) -> Optional[SpvpEvent]:
        """Process one queued advertisement; returns the event or None if idle."""
        pending = self.state.pending_channels()
        if not pending:
            return None
        if channel is None:
            channel = self.rng.choice(pending)
        event, self.state = self.stepper.deliver(self.state, channel)
        self.steps += 1
        self.history.append(event)
        return event

    # ------------------------------------------------------------------ running
    def run(self, max_steps: int = 100_000) -> RpvpState:
        """Run until convergence (or raise after ``max_steps``); return the state."""
        while not self.is_converged():
            if self.steps >= max_steps:
                raise ProtocolError(
                    f"SPVP did not converge within {max_steps} steps for "
                    f"{self.instance.name} (possibly a divergent configuration)"
                )
            self.step()
        return self.converged_state()

    def converged_state(self) -> RpvpState:
        """The current best-path assignment as an :class:`RpvpState`."""
        return self.state.converged_rpvp()

    def fail_session(self, a: str, b: str) -> None:
        """Drop the buffers between ``a`` and ``b`` and deliver ⊥ to both peers."""
        self.state = self.stepper.fail_session(self.state, a, b)

    # ------------------------------------------------------------------ lifecycle
    def crash_node(self, node: str) -> None:
        """Crash ``node`` (see :meth:`SpvpStepper.crash_node`)."""
        self.state = self.stepper.crash_node(self.state, node)

    def restart_node(self, node: str) -> None:
        """Boot ``node`` (see :meth:`SpvpStepper.restart_node`)."""
        self.state = self.stepper.restart_node(self.state, node)

    def quiesce_node(self, node: str) -> None:
        """Drain ``node`` for maintenance (see :meth:`SpvpStepper.quiesce_node`)."""
        self.state = self.stepper.quiesce_node(self.state, node)

    def return_to_service(self, node: str) -> None:
        """End ``node``'s drain (see :meth:`SpvpStepper.return_to_service`)."""
        self.state = self.stepper.return_to_service(self.state, node)

    def suppress_session(self, exporter: str, importer: str) -> None:
        """Gray-fail ``exporter → importer`` (see :meth:`SpvpStepper.suppress_session`)."""
        self.state = self.stepper.suppress_session(self.state, exporter, importer)
