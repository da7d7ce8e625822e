"""The dict/deque SPVP simulator the persistent state core is pinned to.

:class:`ReferenceSpvpSimulator` is the mutable implementation
:class:`repro.protocols.spvp.SpvpState` / ``SpvpStepper`` replaced, moved
here unchanged: plain dictionaries for best/rib-in, ``deque`` buffers,
in-place mutation, and the *uncached* ``import_``/``export``/``rank``
instance methods, so a memoisation bug in the product cannot hide from the
comparison.  ``tests/property/test_spvp_state.py`` steps it in lockstep with
the product; :mod:`tests.oracles.transient_reference` explores over it.

The one thing added is :meth:`ReferenceSpvpSimulator.clone`, the fork the
reference explorer takes per successor.  The protocol instance, every
:class:`~repro.protocols.base.Route` and every
:class:`~repro.protocols.spvp.SpvpEvent` are immutable and shared; every
container the simulator mutates is copied.
``tests/property/test_reference_clone.py`` pins it against ``copy.deepcopy``.

:func:`apply_reference` gives the lifecycle vocabulary
(:mod:`repro.scenarios.events`) its second, independent semantics on this
simulator — the product's events only know the persistent stepper.

:func:`eager_ids` is the id array of a product state the way the state
kernel used to hold it: a copy of the root's array with every ancestor's
delta applied in order, never reading an array a derived state built.
``tests/property/test_lazy_spvp_arrays.py`` pins the late-built arrays to it.
"""

from __future__ import annotations

import random
from array import array
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.exceptions import ProtocolError
from repro.protocols.base import PathVectorInstance, Route
from repro.protocols.rpvp import RpvpState
from repro.protocols.spvp import Channel, SpvpEvent, SpvpState
from repro.scenarios.events import (
    Converge,
    FailSession,
    GrayFailure,
    MaintenanceDrain,
    NodeCrash,
    NodeRestart,
    ReturnToService,
    Scenario,
)


class ReferenceSpvpSimulator:
    """The original mutable dict/deque SPVP simulator."""

    def __init__(self, instance: PathVectorInstance, seed: int = 0) -> None:
        self.instance = instance
        self.rng = random.Random(seed)
        self.best: Dict[str, Optional[Route]] = {}
        self.rib_in: Dict[Tuple[str, str], Optional[Route]] = {}
        self.buffers: Dict[Channel, Deque[Optional[Route]]] = {}
        self.history: List[SpvpEvent] = []
        self.steps = 0
        # Lifecycle overlays, mirroring SpvpStepper's.  Every clone carries
        # its own copy, which matches the stepper's constant-per-exploration
        # overlay because events only fire at roots.
        self.quiesced: Set[str] = set()
        self.suppressed: Set[Channel] = set()
        self._initialise()

    def clone(self) -> "ReferenceSpvpSimulator":
        """An independent copy sharing only immutable values."""
        twin = ReferenceSpvpSimulator.__new__(ReferenceSpvpSimulator)
        twin.instance = self.instance
        twin.rng = random.Random()
        twin.rng.setstate(self.rng.getstate())
        twin.best = dict(self.best)
        twin.rib_in = dict(self.rib_in)
        twin.buffers = {channel: deque(queue) for channel, queue in self.buffers.items()}
        twin.history = list(self.history)
        twin.steps = self.steps
        twin.quiesced = set(self.quiesced)
        twin.suppressed = set(self.suppressed)
        return twin

    # ------------------------------------------------------------------ setup
    def _initialise(self) -> None:
        origin_set = set(self.instance.origins())
        for node in self.instance.nodes():
            self.best[node] = (
                self.instance.origin_route(node)  # type: ignore[attr-defined]
                if node in origin_set
                else None
            )
            for peer in self.instance.peers(node):
                self.rib_in[(node, peer)] = None
                self.buffers[(peer, node)] = deque()
        for origin in origin_set:
            self._advertise(origin)

    def _advertise(self, sender: str) -> None:
        """Queue ``sender``'s current best path to all of its peers."""
        for peer in self.instance.peers(sender):
            if (sender, peer) in self.suppressed:
                continue
            advertisement = self.instance.export(sender, peer, self.best[sender])
            self.buffers[(sender, peer)].append(advertisement)

    # ------------------------------------------------------------------ stepping
    def pending_messages(self) -> List[Channel]:
        """(sender, receiver) pairs with at least one queued advertisement."""
        return [key for key, queue in self.buffers.items() if queue]

    def is_converged(self) -> bool:
        """True when every buffer is empty (the SPVP convergence condition)."""
        return not self.pending_messages()

    def step(self, channel: Optional[Channel] = None) -> Optional[SpvpEvent]:
        """Process one queued advertisement; returns the event or None if idle."""
        pending = self.pending_messages()
        if not pending:
            return None
        if channel is None:
            channel = self.rng.choice(pending)
        elif channel not in pending or not self.buffers[channel]:
            raise ProtocolError(f"channel {channel} has no pending message")
        sender, receiver = channel
        advertised = self.buffers[channel].popleft()
        self.steps += 1

        imported = (
            None
            if advertised is None
            else self.instance.import_(receiver, sender, advertised)
        )
        if imported is not None and imported.path.contains(receiver):
            imported = None
        self.rib_in[(receiver, sender)] = imported

        new_best = self._select_best(receiver)
        event = SpvpEvent(node=receiver, peer=sender, advertised=advertised, new_best=new_best)
        self.history.append(event)
        if self._paths_differ(self.best[receiver], new_best) and receiver not in self.quiesced:
            self.best[receiver] = new_best
            self._advertise(receiver)
        else:
            self.best[receiver] = new_best
        return event

    @staticmethod
    def _paths_differ(old: Optional[Route], new: Optional[Route]) -> bool:
        old_path = old.path if old is not None else None
        new_path = new.path if new is not None else None
        return old_path != new_path

    def _select_best(self, node: str) -> Optional[Route]:
        """Recompute ``node``'s best route from its rib-in and local origin."""
        candidates: List[Route] = []
        if node in set(self.instance.origins()):
            candidates.append(self.instance.origin_route(node))  # type: ignore[attr-defined]
        for peer in self.instance.peers(node):
            stored = self.rib_in.get((node, peer))
            if stored is not None:
                candidates.append(stored)
        if not candidates:
            return None
        current = self.best[node]
        best = min(candidates, key=lambda route: self.instance.rank(node, route))
        if current is not None and current in candidates:
            if self.instance.rank(node, current) == self.instance.rank(node, best):
                return current
        return best

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
        return RpvpState.from_dict(dict(self.best))

    def fail_session(self, a: str, b: str) -> None:
        """Drop the buffers between ``a`` and ``b`` and deliver ⊥ to both peers."""
        for sender, receiver in ((a, b), (b, a)):
            if (sender, receiver) in self.buffers:
                self.buffers[(sender, receiver)].clear()
                self.buffers[(sender, receiver)].append(None)

    # ------------------------------------------------------------------ lifecycle
    def crash_node(self, node: str) -> None:
        """Crash ``node`` (mirror of :meth:`SpvpStepper.crash_node`)."""
        self.best[node] = None
        for peer in self.instance.peers(node):
            self.rib_in[(node, peer)] = None
            out = self.buffers[(node, peer)]
            out.clear()
            out.append(None)
            self.buffers[(peer, node)].clear()

    def restart_node(self, node: str) -> None:
        """Boot ``node`` (mirror of :meth:`SpvpStepper.restart_node`)."""
        origin = node in set(self.instance.origins())
        boot = self.instance.origin_route(node) if origin else None  # type: ignore[attr-defined]
        self.best[node] = boot
        for peer in self.instance.peers(node):
            self.rib_in[(node, peer)] = None
            out = self.buffers[(node, peer)]
            out.clear()
            out.append(None)
            if boot is not None and (node, peer) not in self.suppressed:
                out.append(self.instance.export(node, peer, boot))
            inbound = self.buffers[(peer, node)]
            inbound.clear()
            if (peer, node) not in self.suppressed and peer not in self.quiesced:
                inbound.append(self.instance.export(peer, node, self.best[peer]))

    def quiesce_node(self, node: str) -> None:
        """Drain ``node`` (mirror of :meth:`SpvpStepper.quiesce_node`)."""
        self.quiesced.add(node)
        for peer in self.instance.peers(node):
            if (node, peer) not in self.suppressed:
                self.buffers[(node, peer)].append(None)

    def return_to_service(self, node: str) -> None:
        """End ``node``'s drain (mirror of :meth:`SpvpStepper.return_to_service`)."""
        self.quiesced.discard(node)
        self._advertise(node)

    def suppress_session(self, exporter: str, importer: str) -> None:
        """Gray-fail ``exporter → importer`` (mirror of
        :meth:`SpvpStepper.suppress_session`)."""
        channel = (exporter, importer)
        self.suppressed.add(channel)
        if channel in self.buffers:
            self.buffers[channel].clear()


def apply_reference(simulator: ReferenceSpvpSimulator, event: object) -> None:
    """Apply one initial event of the lifecycle vocabulary to ``simulator``."""
    if isinstance(event, Scenario):
        for staged in event.events:
            apply_reference(simulator, staged)
    elif isinstance(event, Converge):
        # Mirrors SpvpStepper.drain (first pending channel next) without
        # touching the persistent core; the lockstep flap property test pins
        # the two against each other, the divergence ProtocolError included.
        steps = 0
        while not simulator.is_converged():
            if steps >= event.max_steps:
                raise ProtocolError(
                    f"SPVP did not converge within {event.max_steps} steps for "
                    f"{simulator.instance.name} (possibly a divergent configuration)"
                )
            simulator.step(simulator.pending_messages()[0])
            steps += 1
    elif isinstance(event, FailSession):
        simulator.fail_session(event.a, event.b)
    elif isinstance(event, NodeCrash):
        simulator.crash_node(event.node)
    elif isinstance(event, NodeRestart):
        simulator.restart_node(event.node)
    elif isinstance(event, MaintenanceDrain):
        simulator.quiesce_node(event.node)
    elif isinstance(event, ReturnToService):
        simulator.return_to_service(event.node)
    elif isinstance(event, GrayFailure):
        simulator.suppress_session(event.exporter, event.importer)
    else:
        raise TypeError(f"initial event {event!r} has no reference semantics")


def eager_ids(state: SpvpState) -> "array[int]":
    """``state``'s id array by eager copy-and-apply: the root's array (the
    state with no parent, which always holds one), then each derived
    ancestor's ``(slot, old, new)`` delta from the root down.  Every ``old``
    must be the slot's current id, so a delta that misreads its parent
    fails here too."""
    chain: List[SpvpState] = []
    while state.parent is not None:
        chain.append(state)
        state = state.parent
    ids = array("i", state._ids)
    for derived in reversed(chain):
        for slot, old, new in derived.delta:
            assert ids[slot] == old, (slot, ids[slot], old)
            ids[slot] = new
    return ids
