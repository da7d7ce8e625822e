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
  arbitrary SPVP execution (:meth:`SpvpStepper.drain` with a seeded channel
  choice), which is exactly how simulation misses violations that only some
  orderings expose (BGP wedgies);
* divergent configurations (BAD GADGET) can be demonstrated on it.

The state lives in :class:`SpvpState`, the id-array kernel of
:mod:`repro.protocols.interning` (the one :class:`RpvpState` is built on)
over one slot layout per instance (:class:`_SpvpSpace`): the node block of
the instance's node space — one best-route id per node, in the same sorted
order and intern table as an RPVP state, so the best block *is* an
:class:`RpvpState` — followed by the rib-in and channel blocks (route ids in
best/rib slots, queue ids in channel slots).  A derived state records its
delta and builds its array only when something reads the whole state — a
delivery or lifecycle event out of it, or an accessor — so a search pays no
array for the states it admits and never expands.  Equality between states
of one instance is an integer array compare; the visited-set fingerprint is
an O(changed-slots) Zobrist XOR over ``(slot, id)`` components.
The same layout holds the instance's transfer memos — import (loop check
included), export, rank and origin id, keyed on slots and intern ids — so
every stepper and ample selector over one instance evaluates each transfer
once.  :class:`SpvpStepper` is the stateless transition function over those
states, and its :meth:`~SpvpStepper.drain` is the one single-execution
runner.  The dict/deque simulator this core replaced is not shipped: it
lives in ``tests/oracles/spvp_reference.py`` as the oracle the property
tests step in lockstep with it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

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

    The channel block also numbers the channels densely: channel ``i`` is
    :attr:`channels` ``[i]`` at slot ``buffer_base + i``, and bit ``i`` of
    a channel-set mask (:attr:`channel_bit`) stands for it.  A state's
    pending set and every sleep set of the reduction are such ``int``
    masks, so ascending bits follow the canonical slot order.

    Ids resolve through the node space's intern table (:attr:`table`), the
    one every RPVP state over the same nodes uses.

    The layout is also where the instance's transfers are memoised, by id:
    :meth:`import_id`, :meth:`export_id`, :meth:`rank_of` and
    :meth:`origin_id`.  SPVP explores a very large number of interleavings
    of a small set of distinct routes, so after warm-up a delivery is dict
    look-ups on small-int keys end to end, and since :func:`space_for`
    memoises the layout per instance, every stepper, ample selector and
    drain over the instance — the runs of one transient task, its shared
    start states, a steady state, a simulation — fills one set of memos.
    Memo values may legally be id 0 (None route / empty queue): misses test
    ``is None``.

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
        "channel_bit",
        "rib_slots_of",
        "out_slots_of",
        "in_mask",
        "out_peers",
        "buffer_base",
        "total_slots",
        "node_space",
        "table",
        "instance",
        "sessions",
        "import_ids",
        "export_ids",
        "rank_ids",
        "origin_ids",
    )

    def __init__(self, instance: PathVectorInstance) -> None:
        self.instance = instance
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
        #: channel -> its bit in a channel-set mask: ``1 << i`` for
        #: ``channels[i]``.
        self.channel_bit: Dict[Channel, int] = {
            channel: 1 << index for index, channel in enumerate(self.channels)
        }
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
        #: Channel adjacency: who each node can message (``out_peers``, in
        #: canonical slot order) and the mask of the channels into it
        #: (``in_mask``).  The partial-order-reduction machinery reasons
        #: over these.
        #:
        #: ``in_mask`` is the independence relation over deliveries (paper
        #: §4.1.3, Appendix A).  A delivery on channel ``(sender, receiver)``
        #: drains that channel's head, rewrites the receiver's rib-in entry
        #: and best path, and (only on a best-path change) appends one
        #: advertisement to each of the receiver's outgoing channels.  Two
        #: deliveries with *distinct receivers* therefore touch disjoint best
        #: and rib-in slots, and the only slot they can share is a channel
        #: one of them pops and the other appends to (when one receiver is
        #: the other's sender) — and a head pop commutes with a tail append
        #: on a non-empty FIFO, with the appended advertisement depending
        #: only on the appender's own (untouched) state.  Deliveries to the
        #: *same* receiver race on its rib-in/best selection and are
        #: dependent: the deliveries dependent on one into ``d`` are exactly
        #: the bits of ``in_mask[d]``, which is how the sleep sets
        #: (:mod:`repro.modelcheck.por.sleep`) apply it.  ``out_peers`` is
        #: what the ample selector reasons over to decide which
        #: currently-*disabled* dependent deliveries could become enabled
        #: (:mod:`repro.modelcheck.por.ample`).
        self.out_peers: Dict[str, Tuple[str, ...]] = {
            node: tuple(peer for peer, _channel, _slot in self.out_slots_of[node])
            for node in self.nodes
        }
        self.in_mask: Dict[str, int] = dict.fromkeys(self.nodes, 0)
        for channel, bit in self.channel_bit.items():
            self.in_mask[channel[1]] |= bit
        #: The (node, peer) session of each rib slot, in slot order.
        self.sessions: Tuple[Tuple[str, str], ...] = tuple(self.rib_slot)
        #: (rib slot, advertised rid) -> imported rid (post loop-check).
        self.import_ids: Dict[Tuple[int, int], int] = {}
        #: (out channel slot, best rid) -> advertised rid.
        self.export_ids: Dict[Tuple[int, int], int] = {}
        #: (node, rid) -> rank tuple.
        self.rank_ids: Dict[Tuple[str, int], Tuple] = {}
        #: node -> rid of its origin route.
        self.origin_ids: Dict[str, int] = {}

    def origin_id(self, node: str) -> int:
        """The id of ``node``'s locally originated route."""
        rid = self.origin_ids.get(node)
        if rid is None:
            rid = self.origin_ids[node] = self.table.route_id(
                self.instance.origin_route(node)  # type: ignore[attr-defined]
            )
        return rid

    def rank_of(self, node: str, rid: int) -> Tuple:
        """``node``'s rank of the route with id ``rid`` (lower is preferred)."""
        rank = self.rank_ids.get((node, rid))
        if rank is None:
            rank = self.rank_ids[(node, rid)] = self.instance.cached_rank(
                node, self.table.route(rid)
            )
        return rank

    def import_id(self, rib_slot: int, rid: int) -> int:
        """What the session of ``rib_slot`` stores for an advertisement of
        ``rid``: the import filter's answer, or None (id 0) when it rejects
        the route or the path already contains the receiver."""
        imported = self.import_ids.get((rib_slot, rid))
        if imported is None:
            receiver, sender = self.sessions[rib_slot - len(self.nodes)]
            route = (
                self.instance.import_(receiver, sender, self.table.route(rid)) if rid else None
            )
            if route is not None and route.path.contains(receiver):
                route = None
            imported = self.import_ids[(rib_slot, rid)] = self.table.route_id(route)
        return imported

    def export_id(self, channel_slot: int, rid: int) -> int:
        """What the sender of the channel at ``channel_slot`` advertises on
        it while its best route has id ``rid`` (0 = nothing, a withdrawal)."""
        advertised = self.export_ids.get((channel_slot, rid))
        if advertised is None:
            exporter, importer = self.channels[channel_slot - self.buffer_base]
            advertised = self.export_ids[(channel_slot, rid)] = self.table.route_id(
                self.instance.export(exporter, importer, self.table.route(rid))
            )
        return advertised


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
    records the ``(slot, old_id, new_id)`` deltas, read off its parent's
    array, and builds its own array (:meth:`ids`) only when it is stepped or
    read whole.  Its Zobrist visited-set fingerprint is an O(changed-slots)
    XOR off its parent's, and :meth:`best_key` is the parent's best block
    with the delta patched in, so neither the visited set nor the property
    and closure memos ever build an array.  Each derived state also keeps
    its parent and the :class:`SpvpEvent` that produced it, so explorers
    reconstruct witness event sequences from the parent chain instead of
    copying histories.

    Fingerprints key on ``(slot, id)``; route attributes are a deterministic
    function of the path for a fixed instance, so this identifies exactly
    the states the reference explorer's path-keyed visited-set signature
    does.

    :attr:`pending` — the channels with a queued advertisement — is an
    ``int`` mask over the layout's channel index: bit ``i`` set means
    ``channels[i]`` is non-empty.
    """

    __slots__ = ("event", "pending")

    def _init(
        self,
        space: _SpvpSpace,
        ids: Optional[array],
        pending: int,
        parent: Optional["SpvpState"] = None,
        delta: Tuple[Tuple[int, int, int], ...] = (),
        event: Optional[SpvpEvent] = None,
    ) -> "SpvpState":
        self._init_ids(space, ids, parent, delta)
        #: The mask of the channels with at least one queued advertisement
        #: (delta-maintained: one delivery clears at most the drained
        #: channel's bit and sets the receiver's out-channels'; no buffer
        #: rescan ever happens).
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
        return self._space.table.route(self.ids()[slot])

    def best_map(self) -> Dict[str, Optional[Route]]:
        """The node -> best route assignment as a mutable dict, in
        ``instance.nodes()`` order (read off the best block: no array is
        built)."""
        table = self._space.table
        ids = self.head_ids(len(self._space.nodes))
        return {
            node: table.route(ids[slot])
            for node, slot in self._space.best_slot.items()
        }

    def best_key(self) -> bytes:
        """The best-path assignment as the raw bytes of its id slots.

        Equal between two states of one instance iff every node holds the
        same best route — the memo key of whatever is a function of the
        best paths alone (the forwarding relation, the activity closure).
        The bytes of :meth:`converged_rpvp`'s id array; an unbuilt state
        patches its delta into the nearest built ancestor's best block.
        """
        return self.head_ids(len(self._space.nodes)).tobytes()

    def pending_channels(self) -> List[Channel]:
        """Pending channels in the canonical (slot) enumeration order."""
        mask = self.pending
        channels = self._space.channels
        pending: List[Channel] = []
        while mask:
            low = mask & -mask
            pending.append(channels[low.bit_length() - 1])
            mask ^= low
        return pending

    def is_converged(self) -> bool:
        """True when every buffer is empty (the SPVP convergence condition)."""
        return not self.pending

    def converged_rpvp(self) -> RpvpState:
        """The current best-path assignment as an :class:`RpvpState`.

        The best block is laid out as the node space's RPVP id vector, so
        this is a slice of the id array (:meth:`head_ids`): nothing is
        decoded or interned.
        """
        space = self._space
        return RpvpState.__new__(RpvpState)._init(
            space.node_space, self.head_ids(len(space.nodes))
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
        pending: int,
        event: Optional[SpvpEvent],
    ) -> "SpvpState":
        """A new state with ``updates`` (slot, new id) applied.

        The child records the slots that change, old ids read off this
        state's array, and leaves its own array unbuilt.  A slot updated
        twice keeps its last id (one triple).
        """
        ids = self.ids()
        delta = tuple(
            (slot, ids[slot], new) for slot, new in dict(updates).items() if ids[slot] != new
        )
        return SpvpState.__new__(SpvpState)._init(
            self._space,
            None,
            pending,
            parent=self,
            delta=delta,
            event=event,
        )

    def __repr__(self) -> str:
        return (
            f"SpvpState({len(self._space.nodes)} nodes, "
            f"{self.pending.bit_count()} pending channel(s))"
        )


class SpvpStepper:
    """The stateless SPVP transition function over :class:`SpvpState`.

    One stepper serves one protocol instance; it owns no mutable protocol
    state, so any number of explorations/simulations can share it and a
    single state can be expanded along every pending channel without copying
    the rest of the world.  Its only state is the lifecycle overlays; the
    transfer memos are the instance's (:class:`_SpvpSpace`), so a stepper
    built after another one over the same instance starts warm.
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

    # ------------------------------------------------------------------ roots
    def initial_state(self) -> SpvpState:
        """The SPVP initial state: origins hold and advertise their route."""
        space = self.space
        table = self.table
        ids = array("i", bytes(4 * space.total_slots))
        pending = 0
        for node in space.nodes:
            if node not in space.origin_set:
                continue
            rid = ids[space.best_slot[node]] = space.origin_id(node)
            # Origins advertise their path to every peer up front (Appendix A).
            for _peer, channel, slot in space.out_slots_of[node]:
                ids[slot] = table.queue_id((space.export_id(slot, rid),))
                pending |= space.channel_bit[channel]
        return SpvpState.__new__(SpvpState)._init(space, ids, pending)

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
        ids = state.ids()
        qid = ids[channel_slot]
        if not qid:
            raise ProtocolError(f"channel {channel} has no pending message")
        queue_rids = table.queue(qid)
        sender, receiver = channel
        advertised_rid = queue_rids[0]
        remaining_qid = table.queue_id(queue_rids[1:])
        updates: List[Tuple[int, int]] = [(channel_slot, remaining_qid)]

        rib_slot = space.rib_slot[(receiver, sender)]
        imported_rid = space.import_id(rib_slot, advertised_rid)
        updates.append((rib_slot, imported_rid))

        best_slot = space.best_slot[receiver]
        current_rid = ids[best_slot]
        new_best_rid = self._select_best_id(ids, receiver, sender, imported_rid, current_rid)
        updates.append((best_slot, new_best_rid))
        event = SpvpEvent(
            node=receiver,
            peer=sender,
            advertised=table.route(advertised_rid),
            new_best=table.route(new_best_rid),
        )

        pending = state.pending
        if not remaining_qid:
            pending &= ~space.channel_bit[channel]
        if (
            table.path_id(current_rid) != table.path_id(new_best_rid)
            and receiver not in self.quiesced
        ):
            # The receiver re-advertises its (possibly withdrawn) best path.
            channel_bit = space.channel_bit
            for _peer, out_channel, out_slot in space.out_slots_of[receiver]:
                if out_channel in self.suppressed:
                    continue
                out_qid = remaining_qid if out_slot == channel_slot else ids[out_slot]
                advertisement_rid = space.export_id(out_slot, new_best_rid)
                updates.append(
                    (out_slot, table.queue_id(table.queue(out_qid) + (advertisement_rid,)))
                )
                pending |= channel_bit[out_channel]
        return event, state._derive(updates, pending, event)

    def _select_best_id(
        self,
        ids: array,
        node: str,
        updated_peer: str,
        updated_rid: int,
        current_rid: int,
    ) -> int:
        """Recompute ``node``'s best route (as an intern id) from its rib-in
        (``ids``: the id array of the state being stepped)."""
        space = self.space
        rank_of = space.rank_of
        best_rid = 0
        best_rank = None
        current_in = False
        if node in space.origin_set:
            best_rid = space.origin_id(node)
            best_rank = rank_of(node, best_rid)
            current_in = best_rid == current_rid
        for peer, slot in space.rib_slots_of[node]:
            rid = updated_rid if peer == updated_peer else ids[slot]
            if not rid:
                continue
            if rid == current_rid:
                current_in = True
            rank = rank_of(node, rid)
            if best_rank is None or rank < best_rank:
                best_rid = rid
                best_rank = rank
        if best_rank is None:
            return 0
        if current_rid and current_in:
            # Appendix A: if the best rib-in entry ties with the still-valid
            # current best path, the best path does not change.
            if rank_of(node, current_rid) == best_rank:
                return current_rid
        return best_rid

    def drain(
        self,
        state: SpvpState,
        max_steps: int = 100_000,
        choose: Optional[Callable[[List[Channel]], Channel]] = None,
    ) -> SpvpState:
        """Deliver pending messages until converged: one SPVP execution.

        ``choose(pending)`` picks the next channel among the pending ones in
        canonical (slot) order.  By default the first is always delivered, so
        every caller (steady-state construction before a perturbation, oracle
        comparisons) reaches the same fixed point; a seeded
        ``random.Random(seed).choice`` is the simulation baseline's one
        arbitrary message order.  The returned state's parent chain holds the
        execution (:meth:`SpvpState.witness_events`).  Raises
        :class:`ProtocolError` after ``max_steps`` deliveries (divergent
        configurations).
        """
        steps = 0
        while not state.is_converged():
            if steps >= max_steps:
                raise ProtocolError(
                    f"SPVP did not converge within {max_steps} steps for "
                    f"{self.instance.name} (possibly a divergent configuration)"
                )
            pending = state.pending_channels()
            _event, state = self.deliver(
                state, pending[0] if choose is None else choose(pending)
            )
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
        pending = state.pending
        for channel in ((a, b), (b, a)):
            slot = space.channel_slot.get(channel)
            if slot is None:
                continue
            updates.append((slot, withdraw_qid))
            pending |= space.channel_bit[channel]
        return state._derive(updates, pending, None)

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
        added = 0
        for _peer, slot in space.rib_slots_of[node]:
            updates.append((slot, 0))
        for peer, out_channel, out_slot in space.out_slots_of[node]:
            updates.append((out_slot, withdraw_qid))
            added |= space.channel_bit[out_channel]
            updates.append((space.channel_slot[(peer, node)], 0))
        pending = (state.pending & ~space.in_mask[node]) | added
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
        boot_rid = space.origin_id(node) if node in space.origin_set else 0
        updates: List[Tuple[int, int]] = [(space.best_slot[node], boot_rid)]
        channel_bit = space.channel_bit
        added = 0
        for _peer, slot in space.rib_slots_of[node]:
            updates.append((slot, 0))
        for peer, out_channel, out_slot in space.out_slots_of[node]:
            out_queue: Tuple[int, ...] = (0,)
            if boot_rid and out_channel not in self.suppressed:
                out_queue += (space.export_id(out_slot, boot_rid),)
            updates.append((out_slot, table.queue_id(out_queue)))
            added |= channel_bit[out_channel]
            in_channel = (peer, node)
            in_slot = space.channel_slot[in_channel]
            if in_channel in self.suppressed or peer in self.quiesced:
                updates.append((in_slot, 0))
            else:
                peer_best_rid = state.ids()[space.best_slot[peer]]
                updates.append(
                    (in_slot, table.queue_id((space.export_id(in_slot, peer_best_rid),)))
                )
                added |= channel_bit[in_channel]
        pending = (state.pending & ~space.in_mask[node]) | added
        return state._derive(updates, pending, None)

    def quiesce_node(self, state: SpvpState, node: str) -> SpvpState:
        """Maintenance drain: ``node`` gracefully withdraws and goes quiet.

        The node keeps its RIB (it can still forward) but appends a ⊥ to every
        outbound session and — via the ``quiesced`` overlay — stops
        re-advertising best-path changes until :meth:`return_to_service`.
        """
        self.quiesced.add(node)
        space = self.space
        table = self.table
        updates: List[Tuple[int, int]] = []
        pending = state.pending
        for _peer, channel, slot in space.out_slots_of[node]:
            if channel in self.suppressed:
                continue
            updates.append((slot, table.queue_id(table.queue(state.ids()[slot]) + (0,))))
            pending |= space.channel_bit[channel]
        return state._derive(updates, pending, None)

    def return_to_service(self, state: SpvpState, node: str) -> SpvpState:
        """End a maintenance drain: ``node`` re-advertises its current best."""
        self.quiesced.discard(node)
        space = self.space
        table = self.table
        ids = state.ids()
        best_rid = ids[space.best_slot[node]]
        updates: List[Tuple[int, int]] = []
        pending = state.pending
        for _peer, channel, slot in space.out_slots_of[node]:
            if channel in self.suppressed:
                continue
            advertisement_rid = space.export_id(slot, best_rid)
            updates.append(
                (slot, table.queue_id(table.queue(ids[slot]) + (advertisement_rid,)))
            )
            pending |= space.channel_bit[channel]
        return state._derive(updates, pending, None)

    def suppress_session(self, state: SpvpState, exporter: str, importer: str) -> SpvpState:
        """Gray failure: the ``exporter → importer`` direction silently drops
        route updates from now on; queued updates are lost, and the importer's
        rib-in stays stale — that silent staleness is the gray part."""
        channel = (exporter, importer)
        self.suppressed.add(channel)
        slot = self.space.channel_slot.get(channel)
        if slot is None:
            return state
        return state._derive(
            [(slot, 0)], state.pending & ~self.space.channel_bit[channel], None
        )

