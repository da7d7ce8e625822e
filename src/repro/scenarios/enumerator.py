"""k-event scenario enumeration with symmetry-based deduplication.

A campaign over lifecycle events asks: "for every sequence of up to *k*
operational events, does the transient property still hold?"  Enumerating
every ordered sequence over every device and session explodes quickly, and —
exactly as for link failures (§4.3) — most sequences are equivalent to one
another.  Two reductions are applied, both *before* any exploration runs:

* **DEC/LEC symmetry** (the §4.3 reduction, re-targeted at events): at each
  extension step the Device Equivalence Classes are recomputed with every
  node already touched by the chosen prefix pinned into a singleton class,
  and only one representative device per DEC (respectively one
  representative session per LEC) is offered for the next event.  Crashing any
  member of a device class reaches a root state isomorphic to crashing the
  representative, so the verdict set is preserved whenever the colours
  capture everything that breaks symmetry (per-node origination, policy
  sources — the same contract :func:`~repro.topology.failures.
  reduced_failure_scenarios` operates under).  Session events are drawn
  from the BGP session graph, not from the links: a LEC offers one of its
  links that carries a session, and a session no link carries (iBGP over
  the IGP) has no LEC, so every one of them is offered.

* **Commuting-order canonicalisation**: two adjacent events whose
  session-closed touch sets are disjoint write and read disjoint slots of
  the SPVP state (every lifecycle primitive only writes slots incident to
  its touched nodes and reads at most their BGP peers' bests and the
  stepper overlays of its own nodes), so swapping them reaches the *same*
  root state.  Sequences are therefore sorted to a canonical interleaving by
  bubbling commuting adjacent pairs, and only canonical sequences are
  emitted — (crash a, crash z) and (crash z, crash a) collapse when a and z
  are far apart.

The descriptor is the one representation of a lifecycle scenario: the
enumerator emits descriptor tuples, the ``--scenario`` specs parse to them, :func:`check_descriptor` checks them against the
network, and :func:`scenario_from_descriptor` turns them into
:class:`~repro.scenarios.events.Scenario` values.  Non-empty scenarios lead
with a :class:`~repro.scenarios.events.Converge` so each one perturbs the
canonical steady state, mirroring the established session-flap workflow.
:class:`ScenarioLedger` records how much the reduction pruned against the
unreduced enumeration, which itself lives with the tests
(``tests/oracles/scenario_reference.py``) as the oracle the suite pins the
reduction to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.exceptions import SpecError, TopologyError
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
from repro.topology.failures import DeviceEquivalence
from repro.topology.graph import Link, Topology

#: The one scenario grammar: every descriptor kind and the events it builds
#: (after the ``Converge`` a non-empty scenario leads with).  A node kind
#: names one device, a session kind the two ends of a BGP session (``gray``
#: from exporter to importer).  The spec strings of ``--scenario`` parse to
#: these descriptors too.
_NODE_EVENTS = {
    "crash": lambda node: (NodeCrash(node),),
    "restart": lambda node: (NodeRestart(node),),
    "drain": lambda node: (MaintenanceDrain(node),),
    "return": lambda node: (ReturnToService(node),),
    # Drained and back with no settle in between.
    "drain-return": lambda node: (MaintenanceDrain(node), ReturnToService(node)),
    # Drained, settled, back in service.
    "maintenance": lambda node: (MaintenanceDrain(node), Converge(), ReturnToService(node)),
}
_SESSION_EVENTS = {
    "flap": lambda a, b: (FailSession(a, b),),
    "gray": lambda exporter, importer: (GrayFailure(exporter, importer),),
}
_EVENTS = {**_NODE_EVENTS, **_SESSION_EVENTS}

#: The kinds the enumerator draws from.  ``gray`` enumerates both directions
#: of a session.  ``return`` and ``maintenance`` are spelled only in a spec:
#: a return answers a drain (the enumerator offers the pair as
#: ``drain-return``), and the settle inside a maintenance reads the whole
#: network, so it commutes with nothing.
EVENT_KINDS = ("crash", "restart", "drain", "drain-return", "flap", "gray")

#: The default campaign vocabulary (all of them).
DEFAULT_EVENT_KINDS = EVENT_KINDS

#: A descriptor is the picklable, comparable identity of one atomic event:
#: ``(kind, node)`` for node kinds, ``(kind, a, b)`` for session kinds.
Descriptor = Tuple[str, ...]

#: The BGP session graph the session kinds are drawn from and the
#: commutation cone reads: per device, the devices it holds a session with
#: (:meth:`~repro.config.objects.NetworkConfig.bgp_peers`).
Peers = Mapping[str, FrozenSet[str]]


@dataclass
class ScenarioLedger:
    """Accounting of one enumeration: how much did the reduction prune?"""

    #: Size of the atomic event universe (all kinds, all devices/sessions).
    universe: int = 0
    #: Sequences the unreduced brute-force enumeration would emit.
    brute: int = 0
    #: Sequences actually emitted after both reductions.
    emitted: int = 0

    @property
    def pruned(self) -> int:
        return self.brute - self.emitted

    def as_dict(self) -> Dict[str, int]:
        return {
            "universe": self.universe,
            "brute": self.brute,
            "emitted": self.emitted,
            "pruned": self.pruned,
        }


def check_kinds(kinds: Sequence[str]) -> Tuple[str, ...]:
    """``kinds`` as a tuple, or :class:`TopologyError` naming the first
    word that is not an event kind (the one check of a kind list)."""
    kinds = tuple(kinds)
    for kind in kinds:
        if kind not in EVENT_KINDS:
            raise TopologyError(
                f"unknown event kind {kind!r}; choose from {EVENT_KINDS}"
            )
    return kinds


def _touched(descriptor: Descriptor) -> Tuple[str, ...]:
    """The devices an event operates on (in descriptor order)."""
    return descriptor[1:]


def describe_descriptor(descriptor: Descriptor) -> str:
    kind = descriptor[0]
    if kind in _NODE_EVENTS:
        return f"{kind} {descriptor[1]}"
    if kind == "flap":
        return f"flap {descriptor[1]}<->{descriptor[2]}"
    return f"gray {descriptor[1]}->{descriptor[2]}"


def check_descriptor(network, descriptor: Descriptor) -> None:
    """Refuse, with a :class:`SpecError`, a descriptor the grammar cannot
    build on ``network``: an unknown kind, the wrong number of devices, an
    unknown device, or a session event whose two devices do not both
    configure the BGP session between them (the sessions the SPVP explorer
    fails; an iBGP session needs no link)."""
    kind, names = descriptor[0], descriptor[1:]
    if kind not in _EVENTS:
        raise SpecError(f"unknown scenario kind {kind!r}; choose from {', '.join(_EVENTS)}")
    if kind in _NODE_EVENTS and len(names) != 1:
        raise SpecError(f"scenario {kind} expects one device, e.g. {kind}:a")
    if kind in _SESSION_EVENTS and len(names) != 2:
        raise SpecError(f"scenario {kind} expects two devices, e.g. {kind}:a,b")
    for name in names:
        if name not in network.topology:
            raise SpecError(f"unknown device {name!r} in scenario")
    if kind in _SESSION_EVENTS:
        a, b = names
        if not network.bgp_session(a, b):
            raise SpecError(f"scenario {kind} names no session: {a} and {b} do not peer over BGP")


def _descriptor_events(descriptor: Descriptor) -> Tuple[object, ...]:
    return _EVENTS[descriptor[0]](*descriptor[1:])


def scenario_from_descriptor(descriptors: Sequence[Descriptor]) -> Scenario:
    """Build the :class:`Scenario` of an (ordered) descriptor sequence: a
    ``Converge`` to the steady state, then each descriptor's events."""
    descriptors = tuple(descriptors)
    events: Tuple[object, ...] = (Converge(),) if descriptors else ()
    for descriptor in descriptors:
        events += _descriptor_events(descriptor)
    name = "; ".join(describe_descriptor(d) for d in descriptors) or "steady state"
    return Scenario(events=events, name=name)


def _carries_session(peers: Peers, link: Link) -> bool:
    return link.b in peers.get(link.a, ())


def _linked_sessions(peers: Peers, links: Iterable[Link]) -> List[Tuple[str, str]]:
    """The BGP sessions ``links`` carry, in link order, once per device pair
    (its two names sorted)."""
    sessions: Dict[Tuple[str, str], None] = {}
    for link in links:
        if _carries_session(peers, link):
            sessions.setdefault((min(link.a, link.b), max(link.a, link.b)), None)
    return list(sessions)


def _unlinked_sessions(topology: Topology, peers: Peers) -> List[Tuple[str, str]]:
    """The BGP sessions no link carries (iBGP over the IGP), sorted."""
    return sorted(
        (a, b)
        for a, members in peers.items()
        for b in members
        if a < b and not topology.links_between(a, b)
    )


def _descriptors(
    kinds: Sequence[str], nodes: Sequence[str], sessions: Sequence[Tuple[str, str]]
) -> List[Descriptor]:
    """The descriptors of ``kinds`` over ``nodes`` (kind-major) and then over
    ``sessions`` (session-major; ``gray`` in both directions)."""
    descriptors = [(kind, node) for kind in kinds if kind in _NODE_EVENTS for node in nodes]
    for a, b in sessions:
        for kind in kinds:
            if kind == "flap":
                descriptors.append(("flap", a, b))
            elif kind == "gray":
                descriptors += [("gray", a, b), ("gray", b, a)]
    return descriptors


def event_universe(
    topology: Topology, peers: Peers, kinds: Sequence[str] = DEFAULT_EVENT_KINDS
) -> List[Descriptor]:
    """Every atomic event descriptor for the given kinds: node kinds over the
    devices of ``topology``, session kinds over the sessions of ``peers`` —
    those a link carries first, in link order, then the others, sorted."""
    sessions = _linked_sessions(peers, topology.links) + _unlinked_sessions(topology, peers)
    return _descriptors(check_kinds(kinds), sorted(topology.nodes), sessions)


# --------------------------------------------------------------------------- commutation
def _influence(peers: Peers, descriptor: Descriptor) -> FrozenSet[str]:
    """Touched nodes plus their BGP peers (the event's read cone)."""
    touched = _touched(descriptor)
    return frozenset(touched).union(*(peers.get(name, ()) for name in touched))


def _commute(
    peers: Peers,
    a: Descriptor,
    b: Descriptor,
    influence: Dict[Descriptor, FrozenSet[str]],
) -> bool:
    """Whether adjacent events ``a`` and ``b`` provably reach the same state
    in either order: each one's touched set is outside the other's read cone
    (every primitive writes only slots incident to its touched nodes)."""
    cone_a = influence.setdefault(a, _influence(peers, a))
    cone_b = influence.setdefault(b, _influence(peers, b))
    touched_a = set(_touched(a))
    touched_b = set(_touched(b))
    return touched_a.isdisjoint(cone_b) and touched_b.isdisjoint(cone_a)


def _canonical(
    peers: Peers,
    sequence: Tuple[Descriptor, ...],
    influence: Dict[Descriptor, FrozenSet[str]],
) -> Tuple[Descriptor, ...]:
    """Bubble commuting adjacent events into lexicographic order."""
    items = list(sequence)
    changed = True
    while changed:
        changed = False
        for index in range(len(items) - 1):
            left, right = items[index], items[index + 1]
            if right < left and _commute(peers, left, right, influence):
                items[index], items[index + 1] = right, left
                changed = True
    return tuple(items)


# --------------------------------------------------------------------------- enumeration
def _sequence_count(universe: int, max_events: int) -> int:
    """Ordered sequences of distinct descriptors with length 0..max_events."""
    total = 1  # the empty scenario
    term = 1
    for length in range(1, max_events + 1):
        term *= max(universe - (length - 1), 0)
        total += term
    return total


def enumerate_event_scenarios(
    topology: Topology,
    peers: Peers,
    max_events: int,
    kinds: Sequence[str] = DEFAULT_EVENT_KINDS,
    colors: Optional[Dict[str, object]] = None,
    ledger: Optional[ScenarioLedger] = None,
) -> List[Scenario]:
    """Event scenarios up to ``max_events`` long, symmetry-reduced.

    Mirrors :func:`~repro.topology.failures.reduced_failure_scenarios`: at
    each extension the equivalence classes are recomputed with the prefix's
    touched nodes pinned (each gets a colour recording its exact role in the
    prefix), one representative device per DEC / session link per LEC (and
    every session no link carries) is offered per kind, and non-canonical
    interleavings of commuting events are dropped.  ``peers`` is the BGP
    session graph, ``topology`` the one the classes are worked out on.
    The empty (steady-state) scenario always comes first.  ``ledger``, when
    given, receives the universe/brute/emitted accounting.
    """
    if max_events < 0:
        raise TopologyError(f"max_events must be non-negative, got {max_events}")
    kinds = check_kinds(kinds)
    base_colors: Dict[str, object] = dict(colors or {})
    influence: Dict[Descriptor, FrozenSet[str]] = {}
    session_kinds = any(kind in _SESSION_EVENTS for kind in kinds)
    unlinked = _unlinked_sessions(topology, peers) if session_kinds else []
    results: List[Tuple[Descriptor, ...]] = [()]
    seen: Set[Tuple[Descriptor, ...]] = {()}

    def candidates(prefix: Tuple[Descriptor, ...]) -> List[Descriptor]:
        marks = dict(base_colors)
        roles: Dict[str, List[Tuple[int, int]]] = {}
        for position, descriptor in enumerate(prefix):
            for slot, name in enumerate(_touched(descriptor)):
                roles.setdefault(name, []).append((position, slot))
        for name, role in roles.items():
            marks[name] = ("touched", base_colors.get(name), tuple(role))
        equivalence = DeviceEquivalence(topology, marks)
        sessions: List[Tuple[str, str]] = []
        if session_kinds:
            # Per LEC, its first link (in id order) that carries a session.
            links = []
            for members in equivalence.link_classes().values():
                for link in map(topology.link, members):
                    if _carries_session(peers, link):
                        links.append(link)
                        break
            links.sort(key=lambda link: link.link_id)
            sessions = _linked_sessions(peers, links) + unlinked
        return _descriptors(
            kinds,
            sorted(members[0] for members in equivalence.class_members().values()),
            sessions,
        )

    def extend(prefix: Tuple[Descriptor, ...], remaining: int) -> None:
        if remaining == 0:
            return
        for descriptor in candidates(prefix):
            if descriptor in prefix:
                continue
            sequence = _canonical(peers, prefix + (descriptor,), influence)
            if sequence in seen:
                continue
            seen.add(sequence)
            results.append(sequence)
            extend(sequence, remaining - 1)

    extend((), max_events)
    if ledger is not None:
        ledger.universe = len(event_universe(topology, peers, kinds))
        ledger.brute = _sequence_count(ledger.universe, max_events)
        ledger.emitted = len(results)
    return [scenario_from_descriptor(seq) for seq in results]
