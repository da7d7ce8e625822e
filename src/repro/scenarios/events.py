"""The event vocabulary: every initial event a transient exploration applies.

Every event is a frozen, picklable dataclass with the initial-event protocol
the transient explorer speaks:

* ``apply(stepper, state) -> SpvpState`` — the semantics, on the persistent
  core (:class:`~repro.protocols.spvp.SpvpStepper` carries the lifecycle
  primitives),
* ``describe() -> str`` — the human/cache-facing description,
* ``sets_overlay`` — whether ``apply`` changes the stepper's lifecycle
  overlays (``quiesced`` / ``suppressed``) as well as the state.  A state
  built by overlay-free events alone is the same on every stepper of its
  instance, so a campaign builds it once and starts many explorations from
  it (:func:`split_at_overlay`).

The package ships this one model of each event.  The second, independent
one — the same vocabulary on the dict/deque reference simulator — lives
with the tests (``tests/oracles/spvp_reference.py::apply_reference``), where
``tests/property/test_scenario_events.py`` pins the two bit-identical on
randomized instances: the same oracle discipline the state core itself was
built under.

Event semantics, in SPVP terms:

``Converge``
    Drain every buffer along one canonical execution: the steady state a
    perturbation starts from.

``FailSession``
    A session flap (Appendix A): queued messages on the session are lost
    and each peer sees a withdrawal.

``NodeCrash``
    Crash-recovery: the node's RIB is lost, adjacent sessions drop (peers
    see a transport ⊥, in-flight messages towards the node are lost), and
    the node rejoins cold — even an origin, which lazily re-selects its
    origin route on the next delivery to it.

``NodeRestart``
    A clean boot: sessions bounce (⊥), the node advertises only its
    locally-originated route, and every peer re-sends its current best as
    the sessions re-establish.

``MaintenanceDrain``
    Graceful quiesce: the node sends ⊥ everywhere and stops re-advertising
    best-path changes, but keeps its RIB (it still forwards).

``ReturnToService``
    Ends a drain: the node re-advertises its current best to all peers.

``GrayFailure``
    A filter silently dropping updates in one direction: queued updates on
    the ``exporter → importer`` direction are lost and nothing further is
    sent over it, while the importer's rib-in stays silently stale.

``Scenario``
    A named, staged sequence of the above (events applied in order) that is
    itself an initial event — campaigns, the CLI and the cache all traffic
    in ``Scenario`` values.

The package builds its scenarios in one place: a descriptor such as
``("crash", node)`` or ``("flap", a, b)`` names one event sequence, and
:func:`repro.scenarios.enumerator.scenario_from_descriptor` builds it —
for the enumerator and the ``--scenario`` specs alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Tuple

from repro.protocols.spvp import SpvpState, SpvpStepper

__all__ = [
    "Converge",
    "FailSession",
    "GrayFailure",
    "MaintenanceDrain",
    "NodeCrash",
    "NodeRestart",
    "ReturnToService",
    "Scenario",
    "split_at_overlay",
]


@dataclass(frozen=True)
class Converge:
    """Initial event: drain all buffers along one canonical execution.

    Always delivers the first pending channel (slot order; see
    :meth:`SpvpStepper.drain`), so every exploration — the test suite's
    reference explorer included — starts its perturbed search from the same
    steady state.  Raises
    :class:`ProtocolError` when the instance does not converge within
    ``max_steps`` (divergent configurations).
    """

    sets_overlay: ClassVar[bool] = False

    max_steps: int = 100_000

    def apply(self, stepper: SpvpStepper, state: SpvpState) -> SpvpState:
        return stepper.drain(state, max_steps=self.max_steps)

    def describe(self) -> str:
        return "converge (canonical delivery order)"


@dataclass(frozen=True)
class FailSession:
    """Initial event: flap the session between ``a`` and ``b`` (Appendix A).

    Queued messages on the session are lost and each peer sees a withdrawal
    — the root of every withdrawal/flap transient exploration.
    """

    sets_overlay: ClassVar[bool] = False

    a: str
    b: str

    def apply(self, stepper: SpvpStepper, state: SpvpState) -> SpvpState:
        return stepper.fail_session(state, self.a, self.b)

    def describe(self) -> str:
        return f"fail-session {self.a}<->{self.b}"


@dataclass(frozen=True)
class NodeCrash:
    """Initial event: ``node`` crashes and rejoins cold."""

    sets_overlay: ClassVar[bool] = False

    node: str

    def apply(self, stepper: SpvpStepper, state: SpvpState) -> SpvpState:
        return stepper.crash_node(state, self.node)

    def describe(self) -> str:
        return f"crash {self.node}"


@dataclass(frozen=True)
class NodeRestart:
    """Initial event: ``node`` reboots cleanly and sessions re-establish."""

    sets_overlay: ClassVar[bool] = False

    node: str

    def apply(self, stepper: SpvpStepper, state: SpvpState) -> SpvpState:
        return stepper.restart_node(state, self.node)

    def describe(self) -> str:
        return f"restart {self.node}"


@dataclass(frozen=True)
class MaintenanceDrain:
    """Initial event: ``node`` is drained (quiesced) for maintenance."""

    sets_overlay: ClassVar[bool] = True

    node: str

    def apply(self, stepper: SpvpStepper, state: SpvpState) -> SpvpState:
        return stepper.quiesce_node(state, self.node)

    def describe(self) -> str:
        return f"drain {self.node}"


@dataclass(frozen=True)
class ReturnToService:
    """Initial event: a drained ``node`` returns to service."""

    sets_overlay: ClassVar[bool] = True

    node: str

    def apply(self, stepper: SpvpStepper, state: SpvpState) -> SpvpState:
        return stepper.return_to_service(state, self.node)

    def describe(self) -> str:
        return f"return {self.node}"


@dataclass(frozen=True)
class GrayFailure:
    """Initial event: the ``exporter → importer`` direction silently drops
    route updates from now on (the importer keeps forwarding on stale state)."""

    sets_overlay: ClassVar[bool] = True

    exporter: str
    importer: str

    def apply(self, stepper: SpvpStepper, state: SpvpState) -> SpvpState:
        return stepper.suppress_session(state, self.exporter, self.importer)

    def describe(self) -> str:
        return f"gray {self.exporter}->{self.importer}"


@dataclass(frozen=True)
class Scenario:
    """A named, staged sequence of initial events — itself an initial event."""

    events: Tuple[object, ...] = ()
    name: str = ""

    def apply(self, stepper: SpvpStepper, state: SpvpState) -> SpvpState:
        for event in self.events:
            state = event.apply(stepper, state)
        return state

    def describe(self) -> str:
        if self.name:
            return self.name
        if not self.events:
            return "steady state"
        return "; ".join(event.describe() for event in self.events)


def split_at_overlay(events) -> Tuple[Tuple[object, ...], Tuple[object, ...]]:
    """``events``, every :class:`Scenario` replaced by its own events, split
    before the first event that sets a stepper overlay.

    The head leaves the stepper's overlays empty, so the state it builds is
    the same on any fresh stepper of the instance and can be shared; the
    tail must run on the stepper that explores from it.  An event class
    that does not declare ``sets_overlay`` is taken to set one.
    """
    flat: list = []

    def walk(sequence) -> None:
        for event in sequence:
            if isinstance(event, Scenario):
                walk(event.events)
            else:
                flat.append(event)

    walk(events)
    for index, event in enumerate(flat):
        if getattr(event, "sets_overlay", True):
            return tuple(flat[:index]), tuple(flat[index:])
    return tuple(flat), ()
