"""PEC impact analysis: which PECs can a config delta affect?

Two complementary views of the same question live here:

* :func:`network_slice` and :func:`config_slice` — the *forward* view:
  together, the canonical serialisation of every construct one PEC's
  verification result can read.  The network slice is the part every PEC
  reads alike; the config slice is the PEC and what is scoped to it.  This
  is what the per-PEC fingerprints of :mod:`repro.incremental.cache` hash
  (the network slice once per network): if both slices (plus the policy,
  the options, the task shape and the slices of dependency PECs) are
  unchanged, the PEC's result is unchanged.  PRAXIS-style attribution works
  the same way in reverse: the slices name the constructs a PEC's outcome
  is attributable to.
* :func:`impacted_pecs` — the *backward* view: map a
  :class:`~repro.incremental.delta.ConfigDelta` onto the set of dirty PEC
  indices using the PEC partition and the dependency graph.  A changed
  filter dirties the PECs whose prefix ranges its changed clauses can
  match, a changed link or session dirties every PEC whose exploration
  can traverse it, and the result is closed transitively over the PEC
  dependency edges (a dirty upstream dirties every dependent).

The backward view is intentionally an over-approximation of "slice
changed": the service uses it to invalidate proactively and to explain a
push, while cache *hits* are always gated on fingerprint equality, so an
impact-analysis bug can cost recomputation but never staleness.

A slice holds construct *values* — the :mod:`repro.config.objects`
dataclasses themselves, whose fields are the one list of what a construct
is — scoped to the PEC where a construct names prefixes.  What goes in
(and why):

* in the network slice, the **whole topology** — OSPF shortest paths,
  failure-scenario enumeration and Link-Equivalence-Class reduction read
  every link;
* in the network slice, the **OSPF settings of every device** (the
  process's fields but its networks: interfaces, redistribution) — costs
  shape the IGP for every destination — and in the config slice, the
  device's OSPF networks restricted to the PEC: an OSPF ``network``
  statement for a prefix outside the PEC cannot influence it;
* in the network slice, the **BGP settings and sessions of every device**
  — any session can carry the PEC's advertisements — and in the config
  slice, the BGP networks restricted to the PEC;
* in the config slice, the **route maps referenced by sessions**,
  restricted per PEC prefix to the clauses whose prefix conditions it
  passes (:func:`repro.protocols.filters.clause_matches_prefix`, the test
  route-map evaluation itself runs; community/AS-path conditions are left
  to run time), in sequence order — a clause that cannot match any of the
  PEC's prefixes can never fire for them under first-match evaluation;
* in the network slice, the per-device **maximum assignable local
  preference** over *all* route maps (referenced or not) — the §4.1.2
  deterministic-node bounds read it
  (:func:`repro.protocols.filters.maximum_local_pref`), so an edit to an
  otherwise-unreferenced map can still change exploration statistics;
* in the config slice, the **static routes** covering the PEC.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.config.objects import DeviceConfig, NetworkConfig, process_settings
from repro.incremental.delta import ConfigDelta
from repro.netaddr import Prefix
from repro.pec.classes import PacketEquivalenceClass, pec_covering_prefix
from repro.pec.dependencies import PecDependencyGraph
from repro.protocols.filters import clause_matches_prefix, maximum_local_pref


# --------------------------------------------------------------------------- route-map slices
def _route_map_slice(device: DeviceConfig, map_name: str, prefixes: Sequence[Prefix]) -> Tuple:
    """The per-PEC view of one referenced route map: can-match clauses only.

    Each kept clause carries its *per-prefix* match vector beside its value:
    runtime evaluation gates on the clause's prefix conditions per
    advertised prefix (:func:`~repro.protocols.filters.clause_matches_prefix`,
    the test :func:`~repro.protocols.filters.apply_route_map` runs first), so
    an edit that flips matchability for one of the PEC's prefixes (e.g. a
    ``le`` bound change in a referenced prefix list) must change the slice
    even when the clause itself is unchanged.  The route conditions
    (communities, AS path) are left to run time: a clause passing the prefix
    test may fire.
    """
    route_map = device.route_maps.get(map_name)
    if route_map is None:
        return ("missing",)
    kept: List[Tuple] = []
    for clause in route_map.sorted_clauses():
        match_vector = tuple(clause_matches_prefix(clause, device, prefix) for prefix in prefixes)
        if any(match_vector):
            kept.append((match_vector, clause))
    return tuple(kept)


# --------------------------------------------------------------------------- topology token
def _topology_token(network: NetworkConfig) -> Tuple:
    """Everything the verifier reads from the topology, in iteration order.

    Node order matters (it fixes protocol-instance slot layouts and hence
    exploration order), so it is serialised as-is rather than sorted.
    """
    topology = network.topology
    nodes = tuple(
        (
            name,
            topology.node(name).role,
            str(topology.node(name).loopback) if topology.node(name).loopback else None,
        )
        for name in topology.nodes
    )
    links = tuple(
        (link.link_id, link.a, link.b, link.weight_ab, link.weight_ba)
        for link in topology.links
    )
    return (nodes, links)


# --------------------------------------------------------------------------- device slices
def _device_settings(device: DeviceConfig) -> Optional[Tuple]:
    """What one device contributes to every PEC alike (None when nothing):
    its OSPF and BGP settings, its sessions, and the maximum local
    preference over all its maps."""
    parts: List[Tuple] = []
    if device.ospf is not None:
        parts.append(("ospf", process_settings(device.ospf)))
    if device.bgp is not None:
        bgp = device.bgp
        parts.append(
            (
                "bgp",
                process_settings(bgp),
                tuple(sorted(bgp.neighbors, key=lambda session: session.peer)),
                # The §4.1.2 bounds read the max local-pref over *all* maps.
                maximum_local_pref(device, bgp.default_local_pref),
            )
        )
    return tuple(parts) or None


def _device_slice(device: DeviceConfig, pec: PacketEquivalenceClass) -> Optional[Tuple]:
    """One device's PEC-scoped contribution (None when empty): its static
    routes and OSPF/BGP networks restricted to the PEC, and the slice of
    each route map its sessions name, by name."""

    def in_pec(prefix: Prefix) -> bool:
        return pec.address_range.overlaps(prefix.to_range())

    parts: List[Tuple] = []
    statics = tuple(route for route in device.static_routes if in_pec(route.prefix))
    if statics:
        parts.append(("static", statics))
    if device.ospf is not None:
        parts.append(("ospf", tuple(sorted(filter(in_pec, device.ospf.networks)))))
    if device.bgp is not None:
        bgp = device.bgp
        named = {
            name
            for session in bgp.neighbors
            for name in (session.import_map, session.export_map)
            if name is not None
        }
        maps = tuple(
            (name, _route_map_slice(device, name, pec.prefixes)) for name in sorted(named)
        )
        parts.append(("bgp", tuple(sorted(filter(in_pec, bgp.networks))), maps))
    return tuple(parts) or None


def _devices(network: NetworkConfig, part: Callable[[DeviceConfig], Optional[Tuple]]) -> Tuple:
    """``(name, part(device))`` for each device in topology order that has one."""
    return tuple(
        (name, value)
        for name in network.topology.nodes
        for value in (part(network.devices.get(name, DeviceConfig(name=name))),)
        if value is not None
    )


def network_slice(network: NetworkConfig) -> Tuple:
    """The part of every PEC's slice that does not depend on the PEC: the
    topology and each device's settings and sessions."""
    return (_topology_token(network), _devices(network, _device_settings))


def config_slice(network: NetworkConfig, pec: PacketEquivalenceClass) -> Tuple:
    """The canonical serialisation of what ``pec``'s result reads beyond
    :func:`network_slice`: the PEC itself and each device's PEC-scoped
    constructs.

    Dependency PECs are *not* folded in here — the fingerprint layer
    composes slices along the dependency closure — so the slice of a PEC
    changes only when a construct it directly reads changes.
    """
    return (
        pec.index,
        (pec.address_range.low, pec.address_range.high),
        tuple(str(prefix) for prefix in pec.prefixes),
        tuple((str(prefix), devices_) for prefix, devices_ in pec.ospf_origins),
        tuple((str(prefix), devices_) for prefix, devices_ in pec.bgp_origins),
        tuple((str(prefix), devices_) for prefix, devices_ in pec.static_devices),
        _devices(network, lambda device: _device_slice(device, pec)),
    )


# --------------------------------------------------------------------------- delta -> dirty PECs
def impacted_pecs(
    delta: ConfigDelta,
    network: NetworkConfig,
    pecs: Sequence[PacketEquivalenceClass],
    dependency_graph: PecDependencyGraph,
) -> Set[int]:
    """The indices of PECs (in the *new* partition) the delta can affect.

    The mapping follows the slice structure: topology changes dirty every
    PEC; session and BGP-process changes dirty every BGP-bearing PEC;
    filter changes dirty the PECs whose prefix ranges the changed clauses
    can match (or every BGP PEC for unconstrained clauses); static and
    announcement changes dirty the PECs covering their prefixes.  The
    result is closed over the dependency graph's *dependent* edges.
    """
    if delta.is_empty:
        return set()
    dirty: Set[int] = set()
    all_indices = {pec.index for pec in pecs}

    if delta.touches_topology:
        return set(all_indices)

    def pecs_for(prefix: Prefix) -> List[PacketEquivalenceClass]:
        return pec_covering_prefix(pecs, prefix)

    bgp_pecs = {pec.index for pec in pecs if pec.has_bgp()}

    if delta.session_changes or delta.bgp_process_changes:
        dirty.update(bgp_pecs)

    if delta.ospf_process_changes:
        # Interface costs and redistribution shape the IGP for every
        # destination; OSPF process changes therefore dirty every PEC that
        # uses OSPF or consumes IGP costs (conservatively: all of them).
        dirty.update(all_indices)

    for change in delta.filter_changes:
        if change.matches_everything:
            dirty.update(bgp_pecs)
            continue
        for prefix in change.match_prefixes:
            dirty.update(pec.index for pec in pecs_for(prefix))

    for _device, prefix in delta.static_changes:
        dirty.update(pec.index for pec in pecs_for(prefix))

    for _device, _protocol, prefix in delta.announce_changes:
        dirty.update(pec.index for pec in pecs_for(prefix))

    # Transitive closure over dependents: a dirty upstream invalidates the
    # merged outcomes every dependent explored against.
    frontier = list(dirty)
    while frontier:
        index = frontier.pop()
        for dependent in dependency_graph.dependents_of(index):
            if dependent not in dirty:
                dirty.add(dependent)
                frontier.append(dependent)
    return dirty & all_indices
