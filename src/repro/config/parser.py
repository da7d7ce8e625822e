"""A small vendor-like configuration DSL and its parser.

Plankton consumes real vendor configurations through Batfish-style parsing;
that frontend is out of scope here, so this module provides a compact,
indentation-insensitive DSL capturing the constructs the verifier models:
OSPF, BGP (sessions, route maps, prefix lists), and static routes.

Example::

    device r1
      ospf
        network 10.0.0.0/24
        redistribute static
        interface r2 cost 5
      bgp 65001
        network 192.168.0.0/16
        neighbor r2 remote-as 65002 import-map FROM_R2
      static 0.0.0.0/0 next-hop-ip 10.0.1.2
      prefix-list CUSTOMERS permit 192.168.0.0/16 le 24
      route-map FROM_R2 permit 10
        match prefix-list CUSTOMERS
        set local-preference 200

    device r2
      ...

Keywords are case-insensitive; ``#`` starts a comment.

Vendor syntax no protocol model reads — ``neighbor … weight``, ``neighbor …
next-hop-self``, ``redistribute`` under ``bgp``, ``set metric`` and ``set
next-hop-self`` — is refused with the construct and its line, so a
configuration that uses it is never verified as if it had none; one comes
back only with its model and a test that reads it.  BGP ``multipath`` is
accepted with a warning: the model keeps one best path per node (paper §6).
"""

from __future__ import annotations

import logging
from typing import List, Optional, Tuple

from repro.exceptions import ConfigParseError
from repro.netaddr import Prefix
from repro.config.objects import (
    BgpConfig,
    BgpNeighbor,
    DeviceConfig,
    NetworkConfig,
    OspfConfig,
    OspfInterface,
    PrefixList,
    PrefixListEntry,
    RouteMap,
    RouteMapClause,
    StaticRoute,
)
from repro.topology import Topology

LOG = logging.getLogger("repro.config")


def _unmodelled(construct: str, line: int) -> ConfigParseError:
    return ConfigParseError(
        f"'{construct}' is not modelled by the verifier; remove it from the configuration",
        line,
    )


def _tokenize(text: str) -> List[Tuple[int, List[str]]]:
    """Split ``text`` into (line number, lowercase-keyword token list) pairs."""
    lines: List[Tuple[int, List[str]]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        lines.append((number, stripped.split()))
    return lines


class _DeviceParser:
    """Parses the body of a single ``device`` block."""

    def __init__(self, name: str) -> None:
        self.config = DeviceConfig(name=name)
        self._current_route_map: Optional[RouteMap] = None
        self._current_clause: Optional[RouteMapClause] = None
        self._in_ospf = False
        self._in_bgp = False

    # ------------------------------------------------------------------ helpers
    def _prefix(self, text: str, line: int) -> Prefix:
        try:
            return Prefix(text)
        except Exception as exc:  # AddressError
            raise ConfigParseError(f"bad prefix {text!r}: {exc}", line) from exc

    def _int(self, text: str, line: int, what: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ConfigParseError(f"expected integer {what}, got {text!r}", line) from None

    def _reset_context(self) -> None:
        self._in_ospf = False
        self._in_bgp = False
        self._current_route_map = None
        self._current_clause = None

    # ------------------------------------------------------------------ dispatch
    def feed(self, line: int, tokens: List[str]) -> None:
        keyword = tokens[0].lower()
        handler = getattr(self, f"_kw_{keyword.replace('-', '_')}", None)
        if handler is not None:
            handler(line, tokens)
            return
        # Inside an OSPF / BGP / route-map block, sub-keywords apply.
        if self._in_ospf and keyword in {"network", "redistribute", "interface"}:
            self._ospf_sub(line, tokens)
        elif self._in_bgp and keyword in {"network", "neighbor", "redistribute", "multipath"}:
            self._bgp_sub(line, tokens)
        elif self._current_clause is not None and keyword in {"match", "set"}:
            self._route_map_sub(line, tokens)
        else:
            raise ConfigParseError(f"unknown keyword {tokens[0]!r}", line)

    # ------------------------------------------------------------------ top level
    def _kw_ospf(self, line: int, tokens: List[str]) -> None:
        self._reset_context()
        if self.config.ospf is None:
            self.config.ospf = OspfConfig()
        self._in_ospf = True

    def _kw_bgp(self, line: int, tokens: List[str]) -> None:
        self._reset_context()
        if len(tokens) < 2:
            raise ConfigParseError("bgp requires an AS number", line)
        asn = self._int(tokens[1], line, "AS number")
        if self.config.bgp is None:
            self.config.bgp = BgpConfig(asn=asn)
        else:
            self.config.bgp.asn = asn
        self._in_bgp = True

    def _kw_static(self, line: int, tokens: List[str]) -> None:
        self._reset_context()
        if len(tokens) < 3:
            raise ConfigParseError(
                "static requires: static <prefix> next-hop <node>|next-hop-ip <ip>|drop",
                line,
            )
        prefix = self._prefix(tokens[1], line)
        mode = tokens[2].lower()
        if mode == "drop":
            self.config.static_routes.append(StaticRoute(prefix=prefix, drop=True))
            return
        if len(tokens) < 4:
            raise ConfigParseError("static next hop missing", line)
        if mode == "next-hop":
            route = StaticRoute(prefix=prefix, next_hop_node=tokens[3])
        elif mode == "next-hop-ip":
            ip_text = tokens[3] if "/" in tokens[3] else tokens[3] + "/32"
            route = StaticRoute(prefix=prefix, next_hop_ip=self._prefix(ip_text, line))
        else:
            raise ConfigParseError(f"unknown static mode {tokens[2]!r}", line)
        if len(tokens) >= 6 and tokens[4].lower() == "distance":
            route = StaticRoute(
                prefix=route.prefix,
                next_hop_node=route.next_hop_node,
                next_hop_ip=route.next_hop_ip,
                distance=self._int(tokens[5], line, "distance"),
            )
        self.config.static_routes.append(route)

    def _kw_prefix_list(self, line: int, tokens: List[str]) -> None:
        self._reset_context()
        if len(tokens) < 4:
            raise ConfigParseError(
                "prefix-list requires: prefix-list <name> permit|deny <prefix> [ge N] [le N]",
                line,
            )
        name = tokens[1]
        action = tokens[2].lower()
        if action not in {"permit", "deny"}:
            raise ConfigParseError(f"expected permit|deny, got {tokens[2]!r}", line)
        prefix = self._prefix(tokens[3], line)
        ge = le = None
        rest = tokens[4:]
        while rest:
            if rest[0].lower() == "ge" and len(rest) >= 2:
                ge = self._int(rest[1], line, "ge length")
                rest = rest[2:]
            elif rest[0].lower() == "le" and len(rest) >= 2:
                le = self._int(rest[1], line, "le length")
                rest = rest[2:]
            else:
                raise ConfigParseError(f"unexpected token {rest[0]!r}", line)
        plist = self.config.prefix_lists.setdefault(name, PrefixList(name=name))
        plist.entries.append(PrefixListEntry(prefix=prefix, permit=action == "permit", ge=ge, le=le))

    def _kw_route_map(self, line: int, tokens: List[str]) -> None:
        self._reset_context()
        if len(tokens) < 4:
            raise ConfigParseError(
                "route-map requires: route-map <name> permit|deny <sequence>", line
            )
        name = tokens[1]
        action = tokens[2].lower()
        if action not in {"permit", "deny"}:
            raise ConfigParseError(f"expected permit|deny, got {tokens[2]!r}", line)
        sequence = self._int(tokens[3], line, "sequence number")
        rmap = self.config.route_maps.setdefault(name, RouteMap(name=name))
        clause = RouteMapClause(sequence=sequence, permit=action == "permit")
        rmap.clauses.append(clause)
        self._current_route_map = rmap
        self._current_clause = clause

    # ------------------------------------------------------------------ sub-blocks
    def _ospf_sub(self, line: int, tokens: List[str]) -> None:
        assert self.config.ospf is not None
        keyword = tokens[0].lower()
        if keyword == "network":
            if len(tokens) < 2:
                raise ConfigParseError("ospf network requires a prefix", line)
            self.config.ospf.networks.append(self._prefix(tokens[1], line))
        elif keyword == "redistribute":
            if len(tokens) >= 2 and tokens[1].lower() == "static":
                self.config.ospf.redistribute_static = True
            else:
                raise ConfigParseError("only 'redistribute static' is supported in ospf", line)
        elif keyword == "interface":
            if len(tokens) < 2:
                raise ConfigParseError("ospf interface requires a neighbour name", line)
            neighbor = tokens[1]
            interface = OspfInterface(neighbor=neighbor)
            rest = tokens[2:]
            while rest:
                if rest[0].lower() == "cost" and len(rest) >= 2:
                    interface.cost = self._int(rest[1], line, "cost")
                    rest = rest[2:]
                elif rest[0].lower() == "passive":
                    interface.passive = True
                    rest = rest[1:]
                else:
                    raise ConfigParseError(f"unexpected token {rest[0]!r}", line)
            self.config.ospf.interfaces[neighbor] = interface

    def _bgp_sub(self, line: int, tokens: List[str]) -> None:
        assert self.config.bgp is not None
        keyword = tokens[0].lower()
        if keyword == "network":
            if len(tokens) < 2:
                raise ConfigParseError("bgp network requires a prefix", line)
            self.config.bgp.networks.append(self._prefix(tokens[1], line))
        elif keyword == "redistribute":
            raise _unmodelled("bgp redistribute", line)
        elif keyword == "multipath":
            LOG.warning(
                "line %d: bgp multipath is ignored: the model keeps one best path per device",
                line,
            )
        elif keyword == "neighbor":
            if len(tokens) < 4 or tokens[2].lower() != "remote-as":
                raise ConfigParseError(
                    "neighbor requires: neighbor <peer> remote-as <asn> [options]", line
                )
            neighbor = BgpNeighbor(peer=tokens[1], remote_asn=self._int(tokens[3], line, "ASN"))
            rest = tokens[4:]
            while rest:
                option = rest[0].lower()
                if option == "import-map" and len(rest) >= 2:
                    neighbor.import_map = rest[1]
                    rest = rest[2:]
                elif option == "export-map" and len(rest) >= 2:
                    neighbor.export_map = rest[1]
                    rest = rest[2:]
                elif option in ("next-hop-self", "weight"):
                    raise _unmodelled(f"neighbor ... {option}", line)
                elif option == "route-reflector-client":
                    neighbor.route_reflector_client = True
                    rest = rest[1:]
                else:
                    raise ConfigParseError(f"unexpected neighbor option {rest[0]!r}", line)
            self.config.bgp.add_neighbor(neighbor)

    def _route_map_sub(self, line: int, tokens: List[str]) -> None:
        assert self._current_clause is not None
        clause = self._current_clause
        keyword = tokens[0].lower()
        if keyword == "match":
            if len(tokens) < 2:
                raise ConfigParseError("empty match statement", line)
            what = tokens[1].lower()
            if what == "prefix-list" and len(tokens) >= 3:
                clause.match.prefix_list = tokens[2]
            elif what == "prefix" and len(tokens) >= 3:
                clause.match.prefixes.append(self._prefix(tokens[2], line))
            elif what == "community" and len(tokens) >= 3:
                clause.match.communities.append(tokens[2])
            else:
                raise ConfigParseError(f"unsupported match {tokens[1]!r}", line)
        elif keyword == "set":
            if len(tokens) < 2:
                raise ConfigParseError("empty set statement", line)
            what = tokens[1].lower()
            if what == "local-preference" and len(tokens) >= 3:
                clause.actions.local_preference = self._int(tokens[2], line, "local-preference")
            elif what == "med" and len(tokens) >= 3:
                clause.actions.med = self._int(tokens[2], line, "MED")
            elif what == "prepend" and len(tokens) >= 3:
                clause.actions.prepend_count = self._int(tokens[2], line, "prepend count")
            elif what == "community" and len(tokens) >= 3:
                clause.actions.add_communities.append(tokens[2])
            elif what in ("metric", "next-hop-self"):
                raise _unmodelled(f"set {what}", line)
            else:
                raise ConfigParseError(f"unsupported set {tokens[1]!r}", line)


def parse_device_config(name: str, text: str) -> DeviceConfig:
    """Parse the body of a single device's configuration (no ``device`` line)."""
    parser = _DeviceParser(name)
    for line, tokens in _tokenize(text):
        parser.feed(line, tokens)
    parser.config.validate()
    return parser.config


def parse_config(topology: Topology, text: str) -> NetworkConfig:
    """Parse a multi-device configuration file into a :class:`NetworkConfig`.

    Every ``device <name>`` line starts a new device block; the device must
    exist in ``topology``.
    """
    network = NetworkConfig(topology)
    current: Optional[_DeviceParser] = None
    for line, tokens in _tokenize(text):
        if tokens[0].lower() == "device":
            if current is not None:
                current.config.validate()
                network.set_device(current.config)
            if len(tokens) < 2:
                raise ConfigParseError("device requires a name", line)
            if tokens[1] not in topology:
                raise ConfigParseError(f"device {tokens[1]!r} not in topology", line)
            current = _DeviceParser(tokens[1])
        else:
            if current is None:
                raise ConfigParseError("configuration before any 'device' line", line)
            current.feed(line, tokens)
    if current is not None:
        current.config.validate()
        network.set_device(current.config)
    network.validate()
    return network
