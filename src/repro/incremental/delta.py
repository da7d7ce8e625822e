"""Structural diff of two network configurations (the *config delta*).

A configuration push changes a handful of constructs — a route-map clause, a
BGP session, a link weight — and the incremental re-verification service
needs to know *which* constructs changed to decide which Packet Equivalence
Classes must be recomputed.  :func:`diff_networks` compares two
:class:`~repro.config.objects.NetworkConfig`\\ s down to per-device
constructs and returns a :class:`ConfigDelta`:

* **topology** — links added/removed/reweighted, nodes added/removed,
  loopback changes (all of these can reroute any PEC, because shortest
  paths and failure-scenario enumeration read the whole graph);
* **sessions** — BGP sessions added/removed or with changed attributes,
  plus BGP process-level changes (each setting of the process by name);
* **filters** — route maps and prefix lists whose definition changed,
  with the prefixes their changed clauses can match (so the impact
  analysis can scope the damage to the PECs those prefixes cover);
* **static routes** and **announced prefixes** — added/removed/changed,
  keyed by the prefixes they cover.

Constructs compare as values: the :mod:`repro.config.objects` dataclasses
are the one list of a construct's fields, so a field added there is diffed
here without an edit (sessions as :class:`~repro.config.objects.BgpNeighbor`
values keyed by peer, static routes as a multiset of
:class:`~repro.config.objects.StaticRoute` values, prefix lists by their
entries, route maps by their clauses in sequence order, and the OSPF/BGP
process settings through :func:`~repro.config.objects.process_settings`).

The delta is *descriptive*: it names what changed and carries enough
prefix information for :mod:`repro.incremental.impact` to map the change
onto PECs.  Correctness of cache reuse never rests on the diff alone — the
per-PEC fingerprints of :mod:`repro.incremental.cache` re-derive the
config slice on every run — but the delta is what a service reports to
operators ("this push dirtied 2 of 96 PECs because route-map EXPORT_OWN on
edge0_0 changed").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.config.objects import (
    BgpConfig,
    DeviceConfig,
    NetworkConfig,
    OspfConfig,
    process_settings,
)
from repro.netaddr import Prefix


@dataclass
class FilterChange:
    """One changed route map or prefix list on one device.

    ``match_prefixes`` lists the prefixes the changed clauses/entries can
    match; ``matches_everything`` is True when any changed clause has no
    prefix constraint (it can fire for any advertised prefix).
    """

    device: str
    kind: str  # "route-map" | "prefix-list"
    name: str
    match_prefixes: Tuple[Prefix, ...] = ()
    matches_everything: bool = False

    def describe(self) -> str:
        scope = (
            "any prefix"
            if self.matches_everything
            else ", ".join(str(p) for p in self.match_prefixes) or "no prefix"
        )
        return f"{self.device}: {self.kind} {self.name} (matches {scope})"


@dataclass
class ConfigDelta:
    """Everything that differs between two network configurations."""

    #: Links added/removed/reweighted, described as sorted endpoint pairs.
    link_changes: List[Tuple[str, str]] = field(default_factory=list)
    #: Devices added/removed or with a changed loopback.
    node_changes: List[str] = field(default_factory=list)
    #: BGP sessions added/removed/modified, as (device, peer) pairs.
    session_changes: List[Tuple[str, str]] = field(default_factory=list)
    #: BGP process-level changes (ASN, default local-pref, redistribution).
    bgp_process_changes: List[str] = field(default_factory=list)
    #: OSPF process/interface changes (costs, passive flags, redistribution).
    ospf_process_changes: List[str] = field(default_factory=list)
    #: Route maps / prefix lists whose definitions changed.
    filter_changes: List[FilterChange] = field(default_factory=list)
    #: Static routes added/removed/changed, as (device, prefix) pairs.
    static_changes: List[Tuple[str, Prefix]] = field(default_factory=list)
    #: Prefix announcements added/withdrawn, as (device, protocol, prefix).
    announce_changes: List[Tuple[str, str, Prefix]] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        """True when the two configurations are structurally identical."""
        return not (
            self.link_changes
            or self.node_changes
            or self.session_changes
            or self.bgp_process_changes
            or self.ospf_process_changes
            or self.filter_changes
            or self.static_changes
            or self.announce_changes
        )

    @property
    def touches_topology(self) -> bool:
        """True when links or nodes changed (every PEC may be affected)."""
        return bool(self.link_changes or self.node_changes)

    def summary(self) -> str:
        """One line naming the change counts (for reports and the CLI)."""
        if self.is_empty:
            return "no configuration changes"
        parts: List[str] = []
        for label, entries in (
            ("link", self.link_changes),
            ("node", self.node_changes),
            ("session", self.session_changes),
            ("bgp-process", self.bgp_process_changes),
            ("ospf-process", self.ospf_process_changes),
            ("filter", self.filter_changes),
            ("static-route", self.static_changes),
            ("announcement", self.announce_changes),
        ):
            if entries:
                parts.append(f"{len(entries)} {label} change(s)")
        return ", ".join(parts)

    def describe(self) -> str:
        """Multi-line human-readable delta."""
        if self.is_empty:
            return "no configuration changes"
        lines: List[str] = [self.summary()]
        for a, b in self.link_changes:
            lines.append(f"  link {a} -- {b}")
        for name in self.node_changes:
            lines.append(f"  node {name}")
        for device, peer in self.session_changes:
            lines.append(f"  session {device} -> {peer}")
        for entry in self.bgp_process_changes:
            lines.append(f"  bgp {entry}")
        for entry in self.ospf_process_changes:
            lines.append(f"  ospf {entry}")
        for change in self.filter_changes:
            lines.append(f"  filter {change.describe()}")
        for device, prefix in self.static_changes:
            lines.append(f"  static {device}: {prefix}")
        for device, protocol, prefix in self.announce_changes:
            lines.append(f"  announce {device}: {protocol} {prefix}")
        return "\n".join(lines)


# --------------------------------------------------------------------------- topology diff
def _link_key(link) -> Tuple[Tuple[str, str], int, int]:
    """A direction-normalised identity+weight key for one link."""
    if link.a <= link.b:
        return ((link.a, link.b), link.weight_ab, link.weight_ba)
    return ((link.b, link.a), link.weight_ba, link.weight_ab)


def _diff_topology(delta: ConfigDelta, old: NetworkConfig, new: NetworkConfig) -> None:
    old_nodes = {
        name: (old.topology.node(name).loopback, old.topology.node(name).role)
        for name in old.topology.nodes
    }
    new_nodes = {
        name: (new.topology.node(name).loopback, new.topology.node(name).role)
        for name in new.topology.nodes
    }
    for name in sorted(set(old_nodes) | set(new_nodes)):
        if old_nodes.get(name) != new_nodes.get(name):
            delta.node_changes.append(name)

    def link_multiset(topology) -> Dict[Tuple, int]:
        counts: Dict[Tuple, int] = {}
        for link in topology.links:
            key = _link_key(link)
            counts[key] = counts.get(key, 0) + 1
        return counts

    old_links = link_multiset(old.topology)
    new_links = link_multiset(new.topology)
    changed_pairs: Set[Tuple[str, str]] = set()
    for key in set(old_links) | set(new_links):
        if old_links.get(key, 0) != new_links.get(key, 0):
            changed_pairs.add(key[0])
    delta.link_changes.extend(sorted(changed_pairs))


# --------------------------------------------------------------------------- filter diff
def _clause_scope(clause, device: DeviceConfig) -> Tuple[Tuple[Prefix, ...], bool]:
    """The prefixes one route-map clause can match (or "everything")."""
    match = clause.match
    prefixes: List[Prefix] = list(match.prefixes)
    if match.prefix_list is not None:
        plist = device.prefix_lists.get(match.prefix_list)
        if plist is not None:
            prefixes.extend(entry.prefix for entry in plist.entries)
    if not prefixes:
        # No prefix constraint (pure community/length/AS-path or empty
        # match): the clause can fire for any advertised prefix.
        return (), True
    return tuple(prefixes), False


def _diff_filters(delta: ConfigDelta, name: str, old: DeviceConfig, new: DeviceConfig) -> None:
    for map_name in sorted(set(old.route_maps) | set(new.route_maps)):
        old_map = old.route_maps.get(map_name)
        new_map = new.route_maps.get(map_name)
        # Clauses in sequence order: declaration order does not count.
        old_clauses = old_map.sorted_clauses() if old_map is not None else None
        new_clauses = new_map.sorted_clauses() if new_map is not None else None
        if old_clauses == new_clauses:
            continue
        prefixes: List[Prefix] = []
        everything = False
        # Scope the change to the clauses present on either side; a clause
        # present and identical on both sides cannot have changed behaviour.
        for owner, clauses, other in (
            (old, old_clauses or [], new_clauses or []),
            (new, new_clauses or [], old_clauses or []),
        ):
            for clause in clauses:
                if clause in other:
                    continue
                scope, matches_everything = _clause_scope(clause, owner)
                if matches_everything:
                    everything = True
                    break
                prefixes.extend(scope)
            if everything:
                break
        delta.filter_changes.append(
            FilterChange(
                device=name,
                kind="route-map",
                name=map_name,
                match_prefixes=tuple(sorted(set(prefixes))) if not everything else (),
                matches_everything=everything,
            )
        )
    for list_name in sorted(set(old.prefix_lists) | set(new.prefix_lists)):
        old_list = old.prefix_lists.get(list_name)
        new_list = new.prefix_lists.get(list_name)
        old_entries = old_list.entries if old_list is not None else None
        new_entries = new_list.entries if new_list is not None else None
        if old_entries == new_entries:
            continue
        prefixes = [entry.prefix for entry in old_entries or ()]
        prefixes += [entry.prefix for entry in new_entries or ()]
        delta.filter_changes.append(
            FilterChange(
                device=name,
                kind="prefix-list",
                name=list_name,
                match_prefixes=tuple(sorted(set(prefixes))),
            )
        )


# --------------------------------------------------------------------------- bgp diff
def _diff_bgp(delta: ConfigDelta, name: str, old: Optional[BgpConfig], new: Optional[BgpConfig]) -> None:
    if old is None and new is None:
        return
    if (old is None) != (new is None):
        delta.bgp_process_changes.append(f"{name}: process {'added' if old is None else 'removed'}")
        present = new if new is not None else old
        for session in present.neighbors:
            delta.session_changes.append((name, session.peer))
        for prefix in present.networks:
            delta.announce_changes.append((name, "bgp", prefix))
        return
    for (field_name, old_value), (_, new_value) in zip(
        process_settings(old), process_settings(new)
    ):
        if old_value != new_value:
            delta.bgp_process_changes.append(f"{name}: {field_name} {old_value} -> {new_value}")
    old_sessions = {session.peer: session for session in old.neighbors}
    new_sessions = {session.peer: session for session in new.neighbors}
    for peer in sorted(set(old_sessions) | set(new_sessions)):
        if old_sessions.get(peer) != new_sessions.get(peer):
            delta.session_changes.append((name, peer))
    for prefix in sorted(set(old.networks) ^ set(new.networks)):
        delta.announce_changes.append((name, "bgp", prefix))


# --------------------------------------------------------------------------- ospf diff
def _diff_ospf(delta: ConfigDelta, name: str, old: Optional[OspfConfig], new: Optional[OspfConfig]) -> None:
    if old is None and new is None:
        return
    if (old is None) != (new is None):
        delta.ospf_process_changes.append(f"{name}: process {'added' if old is None else 'removed'}")
        present = new if new is not None else old
        for prefix in present.networks:
            delta.announce_changes.append((name, "ospf", prefix))
        return
    if process_settings(old) != process_settings(new):
        delta.ospf_process_changes.append(f"{name}: process settings changed")
    for prefix in sorted(set(old.networks) ^ set(new.networks)):
        delta.announce_changes.append((name, "ospf", prefix))


# --------------------------------------------------------------------------- static diff
def _diff_static(delta: ConfigDelta, name: str, old: DeviceConfig, new: DeviceConfig) -> None:
    old_routes = Counter(old.static_routes)
    new_routes = Counter(new.static_routes)
    changed = {route.prefix for route in (old_routes - new_routes) + (new_routes - old_routes)}
    for prefix in sorted(changed):
        delta.static_changes.append((name, prefix))


# --------------------------------------------------------------------------- entry point
def diff_networks(old: NetworkConfig, new: NetworkConfig) -> ConfigDelta:
    """The structural delta between two network configurations."""
    delta = ConfigDelta()
    _diff_topology(delta, old, new)
    empty = DeviceConfig(name="")
    for name in sorted(set(old.devices) | set(new.devices)):
        old_device = old.devices.get(name, empty)
        new_device = new.devices.get(name, empty)
        if old_device == new_device:
            continue
        _diff_filters(delta, name, old_device, new_device)
        _diff_bgp(delta, name, old_device.bgp, new_device.bgp)
        _diff_ospf(delta, name, old_device.ospf, new_device.ospf)
        _diff_static(delta, name, old_device, new_device)
    return delta
