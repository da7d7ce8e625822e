"""Device configuration objects.

These objects are the verifier's *input*: they carry exactly the information
Plankton extracts from vendor configurations — advertised prefixes, static
routes, OSPF costs, BGP sessions and routing policy (route maps / prefix
lists) — from which the abstract import/export filters and ranking functions
of the protocol models (paper §3.4, Appendix A) are inferred.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.exceptions import ConfigError
from repro.netaddr import Prefix
from repro.topology import Topology

DEFAULT_LOCAL_PREF = 100
DEFAULT_MED = 0
DEFAULT_OSPF_COST = 10
DEFAULT_STATIC_DISTANCE = 1
DEFAULT_OSPF_DISTANCE = 110
DEFAULT_EBGP_DISTANCE = 20
DEFAULT_IBGP_DISTANCE = 200


# --------------------------------------------------------------------------- static
@dataclass(frozen=True)
class StaticRoute:
    """A static route.

    The next hop is either a directly connected neighbour device
    (``next_hop_node``), or an IP address (``next_hop_ip``) which makes the
    route *recursive*: the forwarding behaviour for the destination prefix
    depends on how packets to the next-hop address are themselves routed.
    Recursive static routes are one of the sources of cross-PEC dependencies
    (paper §3.2).
    """

    prefix: Prefix
    next_hop_node: Optional[str] = None
    next_hop_ip: Optional[Prefix] = None
    distance: int = DEFAULT_STATIC_DISTANCE
    drop: bool = False

    def __post_init__(self) -> None:
        if self.drop:
            return
        if self.next_hop_node is None and self.next_hop_ip is None:
            raise ConfigError(
                f"static route for {self.prefix} needs a next hop (node or IP) "
                "or drop=True"
            )
        if self.next_hop_node is not None and self.next_hop_ip is not None:
            raise ConfigError(
                f"static route for {self.prefix} has both a node and an IP next hop"
            )


# --------------------------------------------------------------------------- ospf
@dataclass
class OspfInterface:
    """Per-neighbour OSPF settings (cost override, passive flag)."""

    neighbor: str
    cost: Optional[int] = None
    passive: bool = False


@dataclass
class OspfConfig:
    """OSPF process configuration on one device.

    Attributes:
        networks: Prefixes originated (advertised) into OSPF by this device.
        interfaces: Optional per-neighbour cost overrides; when a neighbour is
            not listed, the topology link weight is used.
        redistribute_static: Whether static routes are redistributed into OSPF
            (as external routes).
    """

    networks: List[Prefix] = field(default_factory=list)
    interfaces: Dict[str, OspfInterface] = field(default_factory=dict)
    redistribute_static: bool = False

    def cost_to(self, neighbor: str, default: int) -> int:
        """The OSPF cost towards ``neighbor`` (interface override or default)."""
        interface = self.interfaces.get(neighbor)
        if interface is not None and interface.cost is not None:
            return interface.cost
        return default

    def is_passive(self, neighbor: str) -> bool:
        """True if the interface towards ``neighbor`` is passive (no adjacency)."""
        interface = self.interfaces.get(neighbor)
        return interface.passive if interface is not None else False


# --------------------------------------------------------------------------- policy
@dataclass(frozen=True)
class PrefixListEntry:
    """One entry of a prefix list: permit/deny a prefix with optional ge/le."""

    prefix: Prefix
    permit: bool = True
    ge: Optional[int] = None
    le: Optional[int] = None

    def matches(self, candidate: Prefix) -> bool:
        """Whether ``candidate`` matches this entry (ignoring permit/deny)."""
        if not self.prefix.contains_prefix(candidate):
            return False
        low = self.ge if self.ge is not None else self.prefix.length
        high = self.le if self.le is not None else (
            32 if self.ge is not None else self.prefix.length
        )
        return low <= candidate.length <= high


@dataclass
class PrefixList:
    """An ordered prefix list; first matching entry decides."""

    name: str
    entries: List[PrefixListEntry] = field(default_factory=list)

    def permits(self, candidate: Prefix) -> bool:
        """True if ``candidate`` is permitted (implicit deny at the end)."""
        for entry in self.entries:
            if entry.matches(candidate):
                return entry.permit
        return False


@dataclass
class MatchConditions:
    """Match part of a route-map clause.  All present conditions must hold
    (a clause with none matches every route)."""

    prefix_list: Optional[str] = None
    prefixes: List[Prefix] = field(default_factory=list)
    communities: List[str] = field(default_factory=list)
    as_path_contains: Optional[int] = None
    min_prefix_length: Optional[int] = None
    max_prefix_length: Optional[int] = None


@dataclass
class SetActions:
    """Set part of a route-map clause (applied when the clause matches)."""

    local_preference: Optional[int] = None
    med: Optional[int] = None
    prepend_count: int = 0
    add_communities: List[str] = field(default_factory=list)
    remove_communities: List[str] = field(default_factory=list)


@dataclass
class RouteMapClause:
    """One numbered permit/deny clause of a route map."""

    sequence: int
    permit: bool = True
    match: MatchConditions = field(default_factory=MatchConditions)
    actions: SetActions = field(default_factory=SetActions)


@dataclass
class RouteMap:
    """An ordered route map; clauses are evaluated by sequence number."""

    name: str
    clauses: List[RouteMapClause] = field(default_factory=list)

    def sorted_clauses(self) -> List[RouteMapClause]:
        """Clauses in sequence order."""
        return sorted(self.clauses, key=lambda clause: clause.sequence)

    def add_clause(self, clause: RouteMapClause) -> "RouteMap":
        """Append a clause; returns self for chaining."""
        self.clauses.append(clause)
        return self


# --------------------------------------------------------------------------- bgp
@dataclass
class BgpNeighbor:
    """One BGP session from the owning device to ``peer``.

    ``peer`` names the remote device.  For iBGP sessions (``remote_asn`` equal
    to the local ASN) the session is assumed to run over the IGP: the peer is
    reached via its loopback address, which creates a PEC dependency.
    """

    peer: str
    remote_asn: int
    import_map: Optional[str] = None
    export_map: Optional[str] = None
    route_reflector_client: bool = False

    def is_ibgp(self, local_asn: int) -> bool:
        """True when this session is iBGP relative to ``local_asn``."""
        return self.remote_asn == local_asn


@dataclass
class BgpConfig:
    """BGP process configuration on one device."""

    asn: int
    networks: List[Prefix] = field(default_factory=list)
    neighbors: List[BgpNeighbor] = field(default_factory=list)
    default_local_pref: int = DEFAULT_LOCAL_PREF

    def neighbor(self, peer: str) -> Optional[BgpNeighbor]:
        """The session towards ``peer``, or None."""
        for session in self.neighbors:
            if session.peer == peer:
                return session
        return None

    def add_neighbor(self, neighbor: BgpNeighbor) -> "BgpConfig":
        """Add a session; replaces any existing session to the same peer."""
        self.neighbors = [n for n in self.neighbors if n.peer != neighbor.peer]
        self.neighbors.append(neighbor)
        return self

    def ibgp_peers(self) -> List[str]:
        """Peers of iBGP sessions."""
        return [n.peer for n in self.neighbors if n.is_ibgp(self.asn)]


def process_settings(process) -> Tuple[Tuple[str, object], ...]:
    """``(field, value)`` for each setting of an OSPF or BGP process.

    The settings are the process's dataclass fields in declaration order,
    except what it announces (``networks``) and its sessions
    (``neighbors``), which the config delta and the PEC slices read per
    prefix and per peer.  A dict-valued setting (the OSPF interfaces) comes
    as its items sorted by key, so the tuple does not depend on the order
    the configuration declared them in.
    """
    return tuple(
        (spec.name, tuple(sorted(value.items())) if isinstance(value, dict) else value)
        for spec in fields(process)
        if spec.name not in ("networks", "neighbors")
        for value in (getattr(process, spec.name),)
    )


# --------------------------------------------------------------------------- device
@dataclass
class DeviceConfig:
    """The full configuration of one device."""

    name: str
    static_routes: List[StaticRoute] = field(default_factory=list)
    ospf: Optional[OspfConfig] = None
    bgp: Optional[BgpConfig] = None
    route_maps: Dict[str, RouteMap] = field(default_factory=dict)
    prefix_lists: Dict[str, PrefixList] = field(default_factory=dict)

    def route_map(self, name: str) -> RouteMap:
        """Look up a route map; raises :class:`ConfigError` if undefined."""
        try:
            return self.route_maps[name]
        except KeyError:
            raise ConfigError(f"{self.name}: undefined route-map {name!r}") from None

    def prefix_list(self, name: str) -> PrefixList:
        """Look up a prefix list; raises :class:`ConfigError` if undefined."""
        try:
            return self.prefix_lists[name]
        except KeyError:
            raise ConfigError(f"{self.name}: undefined prefix-list {name!r}") from None

    def all_referenced_prefixes(self) -> List[Prefix]:
        """Every prefix this configuration mentions (for PEC computation)."""
        prefixes: List[Prefix] = []
        for route in self.static_routes:
            prefixes.append(route.prefix)
            if route.next_hop_ip is not None:
                prefixes.append(route.next_hop_ip)
        if self.ospf is not None:
            prefixes.extend(self.ospf.networks)
        if self.bgp is not None:
            prefixes.extend(self.bgp.networks)
        for plist in self.prefix_lists.values():
            prefixes.extend(entry.prefix for entry in plist.entries)
        for rmap in self.route_maps.values():
            for clause in rmap.clauses:
                prefixes.extend(clause.match.prefixes)
        return prefixes

    def validate(self) -> None:
        """Check internal references (route maps, prefix lists) resolve."""
        if self.bgp is not None:
            for neighbor in self.bgp.neighbors:
                for map_name in (neighbor.import_map, neighbor.export_map):
                    if map_name is not None and map_name not in self.route_maps:
                        raise ConfigError(
                            f"{self.name}: neighbor {neighbor.peer} references "
                            f"undefined route-map {map_name!r}"
                        )
        for rmap in self.route_maps.values():
            for clause in rmap.clauses:
                plist = clause.match.prefix_list
                if plist is not None and plist not in self.prefix_lists:
                    raise ConfigError(
                        f"{self.name}: route-map {rmap.name} clause {clause.sequence} "
                        f"references undefined prefix-list {plist!r}"
                    )


# --------------------------------------------------------------------------- network
class NetworkConfig:
    """The verifier's complete input: a topology plus per-device configs."""

    def __init__(self, topology: Topology, devices: Optional[Dict[str, DeviceConfig]] = None) -> None:
        self.topology = topology
        self.devices: Dict[str, DeviceConfig] = {}
        for name in topology.nodes:
            self.devices[name] = DeviceConfig(name=name)
        if devices:
            for name, config in devices.items():
                self.set_device(config)

    def set_device(self, config: DeviceConfig) -> None:
        """Install ``config``; its device must exist in the topology."""
        if config.name not in self.topology:
            raise ConfigError(f"config for unknown device {config.name!r}")
        self.devices[config.name] = config

    def device(self, name: str) -> DeviceConfig:
        """The configuration of ``name`` (an empty config if never set)."""
        try:
            return self.devices[name]
        except KeyError:
            raise ConfigError(f"unknown device {name!r}") from None

    def bgp_session(self, a: str, b: str) -> bool:
        """Whether ``a`` and ``b`` hold a BGP session: both configure it (a
        session is no link, and an iBGP one needs none)."""
        if a == b or a not in self.devices or b not in self.devices:
            return False
        bgp_a, bgp_b = self.devices[a].bgp, self.devices[b].bgp
        return (
            bgp_a is not None
            and bgp_b is not None
            and bgp_a.neighbor(b) is not None
            and bgp_b.neighbor(a) is not None
        )

    def bgp_peers(self) -> Dict[str, FrozenSet[str]]:
        """The BGP session graph: per device running BGP, the devices it
        holds a session with (:meth:`bgp_session`)."""
        return {
            name: frozenset(
                session.peer
                for session in config.bgp.neighbors
                if self.bgp_session(name, session.peer)
            )
            for name, config in self.devices.items()
            if config.bgp is not None
        }

    def all_referenced_prefixes(self) -> List[Prefix]:
        """Every prefix mentioned anywhere in the network (PEC trie input)."""
        prefixes: List[Prefix] = []
        for config in self.devices.values():
            prefixes.extend(config.all_referenced_prefixes())
        for name in self.topology.nodes:
            loopback = self.topology.node(name).loopback
            if loopback is not None:
                prefixes.append(loopback)
        return prefixes

    def validate(self) -> None:
        """Validate every device config and every BGP session's symmetry.

        A BGP session configured on only one side is reported, as real
        configuration analysis tools do, because it silently never comes up.
        """
        for config in self.devices.values():
            config.validate()
        for name, config in self.devices.items():
            if config.bgp is None:
                continue
            for neighbor in config.bgp.neighbors:
                if neighbor.peer not in self.devices:
                    raise ConfigError(
                        f"{name}: BGP neighbor {neighbor.peer!r} does not exist"
                    )
                peer_cfg = self.devices[neighbor.peer]
                if peer_cfg.bgp is None or peer_cfg.bgp.neighbor(name) is None:
                    raise ConfigError(
                        f"{name}: BGP session to {neighbor.peer} is not configured "
                        "on the remote side"
                    )

    def __repr__(self) -> str:
        return (
            f"NetworkConfig(topology={self.topology.name!r}, "
            f"devices={len(self.devices)})"
        )
