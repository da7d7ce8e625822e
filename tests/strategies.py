"""Hypothesis strategies shared by the property suites.

:func:`small_networks` draws the small, *asymmetric* networks every fast path
of the verifier can be pinned on: at most eight devices, link weights drawn
per direction, OSPF with interface cost overrides and passive interfaces,
eBGP (one AS per device) with local-preference and deny clauses on drawn
sessions and, in half the draws, a local-preference ring whose decisions
later updates overturn, static routes, a parallel twin of a link in a third
of the draws, and a failure budget of at most two links.  Each draw comes with a policy to check, so a test over it needs
nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Set

from hypothesis import strategies as st

from repro.config import ConfigBuilder
from repro.config.objects import (
    MatchConditions,
    NetworkConfig,
    OspfInterface,
    RouteMap,
    RouteMapClause,
    SetActions,
    StaticRoute,
)
from repro.netaddr import Prefix
from repro.policies import BlackHoleFreedom, LoopFreedom, Policy, Reachability
from repro.topology import Topology

#: Prefixes the drawn devices originate into OSPF, into BGP, and that only
#: static routes name.
OSPF_PREFIXES = (Prefix("10.0.0.0/24"), Prefix("10.0.1.0/24"))
BGP_PREFIXES = (Prefix("10.1.0.0/24"), Prefix("10.1.1.0/24"))
STATIC_PREFIX = Prefix("10.2.0.0/24")


@dataclass
class DrawnNetwork:
    """One draw of :func:`small_networks`."""

    network: NetworkConfig
    max_failures: int
    policy: Policy

    def __repr__(self) -> str:  # what Hypothesis prints for a falsifying example
        policy = ", ".join(f"{key}={value!r}" for key, value in sorted(vars(self.policy).items()))
        lines = [f"max_failures={self.max_failures} {type(self.policy).__name__}({policy})"]
        for link in self.network.topology.links:
            lines.append(f"link {link.link_id}: {link.a} -{link.weight_ab}/{link.weight_ba}- {link.b}")
        for name, config in sorted(self.network.devices.items()):
            lines.append(f"{name}: {config}")
        return "\n".join(lines)


@st.composite
def _topologies(draw, size: int) -> Topology:
    """A connected graph on ``size`` routers: a random spanning tree plus a
    few chords, each link's weight drawn per direction."""
    names = [f"r{index}" for index in range(size)]
    topology = Topology("drawn")
    for name in names:
        topology.add_node(name)
    weight = st.integers(min_value=1, max_value=4)
    for index in range(1, size):
        anchor = names[draw(st.integers(min_value=0, max_value=index - 1))]
        topology.add_link(anchor, names[index], draw(weight), draw(weight))
    for i in range(size):
        for j in range(i + 1, size):
            if not topology.links_between(names[i], names[j]) and draw(st.integers(0, 4)) == 0:
                topology.add_link(names[i], names[j], draw(weight), draw(weight))
    return topology


def _import_map(draw, name: str, bgp_prefixes: Sequence[Prefix]) -> RouteMap:
    """A local-preference or a deny clause, then permit everything else."""
    if draw(st.booleans()):
        first = RouteMapClause(
            10, actions=SetActions(local_preference=draw(st.sampled_from([50, 150, 300])))
        )
    else:
        denied = draw(st.sampled_from(list(bgp_prefixes)))
        first = RouteMapClause(10, permit=False, match=MatchConditions(prefixes=[denied]))
    return RouteMap(name, [first, RouteMapClause(20)])


def _preference_ring(draw, builder, topology, origin, members):
    """A local-preference ring over the BGP origin ``origin``: each member has
    a session to the origin and to the next member, whose routes it prefers
    (local preference 300).  A strict ring of three (three draws in four) has
    each member take only the next member's *direct* route (it denies what the
    member after that tagged with its community): the BAD GADGET, which has
    no converged state.  Otherwise (DISAGREE and its three-member kin) there
    are several, and a member's first decision is overturned when the next
    one decides.  Missing links are added.  Returns the device pairs it
    configured sessions for."""
    strict = draw(st.integers(0, 3)) > 0
    weight = st.integers(min_value=1, max_value=4)
    imports, exports = {}, {}  # (device, peer) -> the route map it applies
    pairs = set()
    for index, member in enumerate(members):
        following = members[(index + 1) % len(members)]
        after = members[(index + 2) % len(members)]
        for peer in (origin, following):
            if not topology.links_between(member, peer):
                topology.add_link(member, peer, draw(weight), draw(weight))
            pairs.add(frozenset((member, peer)))
        prefer = [RouteMapClause(20, actions=SetActions(local_preference=300))]
        if strict and after != member:
            deny = MatchConditions(communities=[f"ring:{after}"])
            prefer.insert(0, RouteMapClause(10, permit=False, match=deny))
            tag = RouteMapClause(10, actions=SetActions(add_communities=[f"ring:{following}"]))
            exports[(following, member)] = f"TAG_{member}"
            builder.route_map(f"TAG_{member}", following, RouteMap(f"TAG_{member}", [tag]))
        imports[(member, following)] = f"PREFER_{following}"
        builder.route_map(f"PREFER_{following}", member, RouteMap(f"PREFER_{following}", prefer))
    for a, b in sorted(sorted(pair) for pair in pairs):
        builder.bgp_session(
            a, b,
            import_map_a=imports.get((a, b)), export_map_a=exports.get((a, b)),
            import_map_b=imports.get((b, a)), export_map_b=exports.get((b, a)),
        )
    return pairs


@st.composite
def small_networks(draw, max_devices: int = 8) -> DrawnNetwork:
    """A small asymmetric network, a failure budget and a policy.

    * OSPF runs on a drawn subset of the devices (all of them, or islands);
      an interface now and then gets a cost override or is passive.  One or
      two OSPF prefixes are originated, each at one or two OSPF devices.
    * BGP runs on another drawn subset, one AS per device, so every session
      is eBGP.  A session is drawn over a link between two BGP devices, and
      each of its ends imports through a local-preference or deny clause now
      and then.  One or two BGP prefixes are originated.
    * In half the draws, a local-preference ring (:func:`_preference_ring`)
      over the origin of the first BGP prefix, its devices running BGP too.
    * Up to two static routes, each towards a neighbour or dropped, for a
      drawn prefix (also one no protocol originates).
    * The failure budget is 0, 1 or 2 links (0 or 1 with a ring).
    * The policy is loop freedom, blackhole freedom or reachability from one
      or two drawn sources to a drawn destination (with a ring: from its
      members to its prefix).
    """
    size = draw(st.integers(min_value=3, max_value=max_devices))
    topology = draw(_topologies(size))
    names = sorted(topology.nodes)
    builder = ConfigBuilder(topology)

    ospf_devices = [name for name in names if draw(st.integers(0, 3))]
    ospf_prefixes = list(OSPF_PREFIXES[: draw(st.integers(1, 2))]) if ospf_devices else []
    originated = {name: [] for name in ospf_devices}
    for prefix in ospf_prefixes:
        for name in draw(st.lists(st.sampled_from(ospf_devices), min_size=1, max_size=2, unique=True)):
            originated[name].append(prefix)
    for name in ospf_devices:
        builder.enable_ospf(name, originated[name])
        interfaces = builder.device(name).ospf.interfaces
        for neighbor in topology.neighbors(name):
            roll = draw(st.integers(0, 11))
            if roll == 0:
                interfaces[neighbor] = OspfInterface(neighbor=neighbor, passive=True)
            elif roll <= 2:
                interfaces[neighbor] = OspfInterface(neighbor=neighbor, cost=draw(st.integers(1, 5)))

    bgp_devices = [name for name in names if draw(st.booleans())]
    # A preference ring: its origin, then two or three members (all BGP).
    gadget: List[str] = []
    if draw(st.booleans()):
        gadget = draw(st.lists(st.sampled_from(names), min_size=3, max_size=4, unique=True))
        bgp_devices = [name for name in names if name in bgp_devices or name in gadget]
    bgp_prefixes: List[Prefix] = []
    ring: Set[FrozenSet[str]] = set()
    if len(bgp_devices) >= 2:
        bgp_prefixes = list(BGP_PREFIXES[: draw(st.integers(1, 2))])
        for asn, name in enumerate(bgp_devices, start=65001):
            builder.enable_bgp(name, asn)
        origins = [draw(st.sampled_from(bgp_devices)) for _prefix in bgp_prefixes]
        if gadget:
            origins[0] = gadget[0]
            ring = _preference_ring(draw, builder, topology, gadget[0], gadget[1:])
        for prefix, origin in zip(bgp_prefixes, origins):
            builder.device(origin).bgp.networks.append(prefix)
        for position, a in enumerate(bgp_devices):
            for b in bgp_devices[position + 1 :]:
                if frozenset((a, b)) in ring:
                    continue
                if not topology.links_between(a, b) or not draw(st.integers(0, 3)):
                    continue
                maps = {}
                for end, peer in ((a, b), (b, a)):
                    if draw(st.integers(0, 2)) == 0:
                        maps[end] = f"IMPORT_{peer}"
                        builder.route_map(maps[end], end, _import_map(draw, maps[end], bgp_prefixes))
                builder.bgp_session(a, b, import_map_a=maps.get(a), import_map_b=maps.get(b))

    prefixes = ospf_prefixes + bgp_prefixes + [STATIC_PREFIX]
    for _ in range(draw(st.integers(0, 2))):
        device = draw(st.sampled_from(names))
        prefix = draw(st.sampled_from(prefixes))
        if draw(st.integers(0, 4)):
            route = StaticRoute(prefix, next_hop_node=draw(st.sampled_from(topology.neighbors(device))))
        else:
            route = StaticRoute(prefix, drop=True)
        builder.device(device).static_routes.append(route)

    kind = draw(st.sampled_from(["loop", "blackhole", "reachability"]))
    if kind == "loop":
        policy: Policy = LoopFreedom()
    elif kind == "blackhole":
        policy = BlackHoleFreedom()
    else:
        # Where a ring was drawn, its members ask for its prefix: their early
        # decisions are the ones a later update overturns.
        sources, destinations = (gadget[1:], bgp_prefixes[:1]) if gadget else (names, prefixes)
        policy = Reachability(
            sources=draw(st.lists(st.sampled_from(sources), min_size=1, max_size=2, unique=True)),
            destination_prefix=draw(st.sampled_from(destinations)),
            any_branch=draw(st.booleans()),
        )
    # A ring adds up to six links, and the naive side searches every pair
    # of failed links: a ring's budget is one.
    max_failures = draw(st.integers(0, 1 if gadget else 2))
    if draw(st.integers(0, 2)) == 0:
        # A parallel twin of a drawn link, same weights and (the config names
        # neighbours, not links) same configuration: the two fall in one link
        # equivalence class, so the §4.3 reduction fails only one of them.
        twin = draw(st.sampled_from(topology.links))
        topology.add_link(twin.a, twin.b, twin.weight_ab, twin.weight_ba)
    return DrawnNetwork(builder.build(), max_failures, policy)
