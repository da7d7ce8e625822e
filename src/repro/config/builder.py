"""Programmatic configuration builders for the paper's workloads.

The evaluation configures networks in a handful of recurring patterns:

* OSPF everywhere with each edge device originating a prefix (Fig. 7a/b/f/g),
* eBGP per RFC 7938 in data-center fat trees (Fig. 7c),
* iBGP over OSPF on ISP topologies (Fig. 7e),
* static routes layered on top, sometimes recursive, to create loops or
  recursive-routing dependencies (Fig. 7a "fail" variants, real-world
  networks in Fig. 7h/i).

These builders construct the corresponding :class:`NetworkConfig` objects so
benchmarks, tests and examples all share one implementation.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence

from repro.exceptions import ConfigError
from repro.netaddr import Prefix
from repro.config.objects import (
    BgpConfig,
    BgpNeighbor,
    DeviceConfig,
    MatchConditions,
    NetworkConfig,
    OspfConfig,
    RouteMap,
    RouteMapClause,
    SetActions,
    StaticRoute,
)
from repro.topology import Topology


class ConfigBuilder:
    """Fluent helper for building a :class:`NetworkConfig` programmatically."""

    def __init__(self, topology: Topology) -> None:
        self.network = NetworkConfig(topology)

    def device(self, name: str) -> DeviceConfig:
        """The (mutable) config of ``name``."""
        return self.network.device(name)

    def enable_ospf(self, name: str, networks: Iterable[Prefix] = ()) -> "ConfigBuilder":
        """Enable OSPF on ``name`` and originate ``networks``."""
        config = self.device(name)
        if config.ospf is None:
            config.ospf = OspfConfig()
        config.ospf.networks.extend(networks)
        return self

    def enable_bgp(self, name: str, asn: int, networks: Iterable[Prefix] = ()) -> "ConfigBuilder":
        """Enable BGP on ``name`` with ``asn`` and originate ``networks``."""
        config = self.device(name)
        if config.bgp is None:
            config.bgp = BgpConfig(asn=asn)
        else:
            config.bgp.asn = asn
        config.bgp.networks.extend(networks)
        return self

    def bgp_session(
        self,
        a: str,
        b: str,
        import_map_a: Optional[str] = None,
        export_map_a: Optional[str] = None,
        import_map_b: Optional[str] = None,
        export_map_b: Optional[str] = None,
    ) -> "ConfigBuilder":
        """Configure a (symmetric) BGP session between ``a`` and ``b``."""
        config_a = self.device(a)
        config_b = self.device(b)
        if config_a.bgp is None or config_b.bgp is None:
            raise ConfigError(f"enable BGP on both {a} and {b} before adding a session")
        config_a.bgp.add_neighbor(
            BgpNeighbor(
                peer=b,
                remote_asn=config_b.bgp.asn,
                import_map=import_map_a,
                export_map=export_map_a,
            )
        )
        config_b.bgp.add_neighbor(
            BgpNeighbor(
                peer=a,
                remote_asn=config_a.bgp.asn,
                import_map=import_map_b,
                export_map=export_map_b,
            )
        )
        return self

    def route_map(self, name: str, device: str, route_map: RouteMap) -> "ConfigBuilder":
        """Install ``route_map`` under ``name`` on ``device``."""
        self.device(device).route_maps[name] = route_map
        return self

    def build(self, validate: bool = True) -> NetworkConfig:
        """Return the finished :class:`NetworkConfig` (validated by default)."""
        if validate:
            self.network.validate()
        return self.network


# --------------------------------------------------------------------- workloads
def edge_prefix(pod: int, index: int) -> Prefix:
    """The /24 prefix originated by edge switch ``(pod, index)`` in fat trees."""
    return Prefix(f"10.{pod}.{index}.0/24")


def ospf_everywhere(
    topology: Topology,
    originate_roles: Sequence[str] = ("edge",),
    prefix_for: Optional[Dict[str, Prefix]] = None,
) -> NetworkConfig:
    """OSPF on every device; devices in ``originate_roles`` originate a prefix.

    This is the Fig. 7(a)/(b) workload: every edge switch originates one
    prefix into OSPF, link weights come from the topology.
    """
    builder = ConfigBuilder(topology)
    counter = 0
    for name in topology.nodes:
        node = topology.node(name)
        networks: List[Prefix] = []
        if prefix_for is not None and name in prefix_for:
            networks.append(prefix_for[name])
        elif node.role in originate_roles:
            pod = int(node.attributes.get("pod", counter // 250))
            index = int(node.attributes.get("index", counter % 250))
            networks.append(edge_prefix(pod % 250, index % 250))
            counter += 1
        builder.enable_ospf(name, networks)
        if node.loopback is not None:
            builder.device(name).ospf.networks.append(node.loopback)
    return builder.build()


def install_loop_inducing_statics(
    network: NetworkConfig,
    prefix: Prefix,
    nodes: Sequence[str],
) -> NetworkConfig:
    """Install static routes that send ``prefix`` around a cycle of ``nodes``.

    Used by the Fig. 7(a) "fail" variant: the static routes override OSPF at
    the listed (core) routers and create a forwarding loop for the prefix.
    """
    if len(nodes) < 2:
        raise ConfigError("a loop needs at least two nodes")
    for position, name in enumerate(nodes):
        next_node = nodes[(position + 1) % len(nodes)]
        if not network.topology.links_between(name, next_node):
            raise ConfigError(f"loop nodes {name} and {next_node} are not adjacent")
        network.device(name).static_routes.append(
            StaticRoute(prefix=prefix, next_hop_node=next_node)
        )
    return network


def ebgp_rfc7938(
    topology: Topology,
    waypoints: Sequence[str] = (),
    steer_through_waypoints: bool = True,
    seed: int = 0,
) -> NetworkConfig:
    """eBGP configuration of a data-center fat tree per RFC 7938 (Fig. 7c).

    Every node must carry an ``asn`` attribute (see
    :func:`repro.topology.generators.bgp_fat_tree`).  Each edge switch
    originates its rack prefix into BGP and peers with the aggregation layer;
    aggregation peers with core.

    When ``steer_through_waypoints`` is True, aggregation switches in
    ``waypoints`` export routes with a higher local preference, steering paths
    through them; when False the network reproduces the paper's
    "misconfiguration" where the outcome depends on non-deterministic
    age-based tie breaking.
    """
    builder = ConfigBuilder(topology)
    for name in topology.nodes:
        node = topology.node(name)
        if "asn" not in node.attributes:
            raise ConfigError(f"node {name} has no 'asn' attribute; use bgp_fat_tree()")
        networks: List[Prefix] = []
        if node.role == "edge":
            own_prefix = edge_prefix(int(node.attributes["pod"]), int(node.attributes["index"]))
            networks.append(own_prefix)
            # Standard data-center practice: a rack (edge) switch only exports
            # its own prefix upstream, never transit routes learned from the
            # fabric.  Without this, anomalous converged states exist where an
            # aggregation switch routes through an edge switch.
            builder.route_map(
                "EXPORT_OWN",
                name,
                RouteMap(
                    name="EXPORT_OWN",
                    clauses=[
                        RouteMapClause(
                            sequence=10,
                            permit=True,
                            match=MatchConditions(prefixes=[own_prefix]),
                        )
                    ],
                ),
            )
        builder.enable_bgp(name, int(node.attributes["asn"]), networks)

    waypoint_set = set(waypoints)
    for link in topology.links:
        role_a = topology.node(link.a).role
        role_b = topology.node(link.b).role
        if {role_a, role_b} == {"edge", "aggregation"} or {role_a, role_b} == {"aggregation", "core"}:
            import_map_a = import_map_b = None
            export_map_a = "EXPORT_OWN" if role_a == "edge" else None
            export_map_b = "EXPORT_OWN" if role_b == "edge" else None
            if steer_through_waypoints:
                # The device importing from a waypoint aggregation switch
                # prefers those routes.
                if link.a in waypoint_set:
                    map_name = f"PREFER_{link.a}"
                    builder.route_map(
                        map_name,
                        link.b,
                        RouteMap(
                            name=map_name,
                            clauses=[
                                RouteMapClause(
                                    sequence=10,
                                    permit=True,
                                    actions=SetActions(local_preference=200),
                                )
                            ],
                        ),
                    )
                    import_map_b = map_name
                if link.b in waypoint_set:
                    map_name = f"PREFER_{link.b}"
                    builder.route_map(
                        map_name,
                        link.a,
                        RouteMap(
                            name=map_name,
                            clauses=[
                                RouteMapClause(
                                    sequence=10,
                                    permit=True,
                                    actions=SetActions(local_preference=200),
                                )
                            ],
                        ),
                    )
                    import_map_a = map_name
            builder.bgp_session(
                link.a,
                link.b,
                import_map_a=import_map_a,
                export_map_a=export_map_a,
                import_map_b=import_map_b,
                export_map_b=export_map_b,
            )
    return builder.build()


def ibgp_over_ospf(
    topology: Topology,
    external_prefixes: Dict[str, Prefix],
    loopback_base: str = "10.255.0.0",
    speakers: Optional[Sequence[str]] = None,
    route_reflectors: Optional[Sequence[str]] = None,
    asn: int = 65000,
) -> NetworkConfig:
    """iBGP over OSPF (Fig. 7e).

    Every device runs OSPF and originates its loopback.  The iBGP speakers
    (default: every device, so hop-by-hop forwarding for the external
    prefixes works without tunnels) run BGP in a single AS; devices appearing
    in ``external_prefixes`` additionally originate that prefix into BGP.

    Session layout: a full mesh among the speakers, unless
    ``route_reflectors`` is given, in which case every other speaker peers
    only with the route reflectors (which peer with each other).

    The loopback prefixes are originated into OSPF, which creates the PEC
    dependency the paper's dependency-aware scheduler exploits: the iBGP PECs
    depend on the loopback PECs.
    """
    builder = ConfigBuilder(topology)
    loopbacks: Dict[str, Prefix] = {}
    base_octets = loopback_base.split(".")
    for index, name in enumerate(topology.nodes):
        third = index // 250
        fourth = (index % 250) + 1
        loopback = Prefix(f"{base_octets[0]}.{base_octets[1]}.{third}.{fourth}/32")
        loopbacks[name] = loopback
        topology.node(name).loopback = loopback
        builder.enable_ospf(name, [loopback])

    speaker_list = sorted(speakers) if speakers is not None else sorted(topology.nodes)
    missing = set(external_prefixes) - set(speaker_list)
    if missing:
        raise ConfigError(f"external prefixes on non-speakers: {sorted(missing)}")
    for name in speaker_list:
        networks = [external_prefixes[name]] if name in external_prefixes else []
        builder.enable_bgp(name, asn, networks)

    if route_reflectors:
        reflectors = sorted(route_reflectors)
        unknown = set(reflectors) - set(speaker_list)
        if unknown:
            raise ConfigError(f"route reflectors that are not speakers: {sorted(unknown)}")
        for position, a in enumerate(reflectors):
            for b in reflectors[position + 1 :]:
                builder.bgp_session(a, b)
        for client in speaker_list:
            if client in reflectors:
                continue
            for reflector in reflectors:
                builder.bgp_session(client, reflector)
                # Mark the client as a route-reflector client on the RR side so
                # iBGP-learned routes are reflected to it.
                reflector_cfg = builder.device(reflector).bgp
                session = reflector_cfg.neighbor(client)
                session.route_reflector_client = True
    else:
        for position, a in enumerate(speaker_list):
            for b in speaker_list[position + 1 :]:
                builder.bgp_session(a, b)
    return builder.build()


def random_waypoint_choice(topology: Topology, fraction: float = 0.5, seed: int = 0) -> List[str]:
    """A deterministic random subset of aggregation switches used as waypoints."""
    rng = random.Random(seed)
    aggregation = topology.nodes_by_role("aggregation")
    count = max(1, int(len(aggregation) * fraction))
    return sorted(rng.sample(aggregation, count))
