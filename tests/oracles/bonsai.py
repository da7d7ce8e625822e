"""Bonsai-style control-plane compression.

Bonsai [Beckett et al., SIGCOMM'18] shrinks the network before verification by
collapsing devices with equivalent control-plane behaviour into abstract
nodes, producing a smaller topology on which any configuration verifier can
run (when the policy is preserved by the abstraction and no failures are being
checked).  Plankton both integrates with Bonsai as a preprocessor
(Figure 7(f)) and borrows its device-equivalence idea for the failure-choice
reduction of §4.3.

The compression here reuses the colour-refinement Device Equivalence Classes
from :mod:`repro.topology.failures` and builds:

* an abstract topology with one node per DEC and one link per Link
  Equivalence Class,
* an abstract configuration in which each abstract node originates the union
  of the prefixes its concrete members originate,
* a mapping in both directions so policies expressed on concrete devices can
  be translated to the abstract network and verdicts mapped back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config.objects import DeviceConfig, NetworkConfig, OspfConfig
from repro.exceptions import VerificationError
from repro.netaddr import Prefix
from repro.topology import Topology
from repro.topology.failures import DeviceEquivalence


@dataclass
class CompressedNetwork:
    """The result of Bonsai-style compression."""

    network: NetworkConfig
    #: concrete device -> abstract device name
    abstraction: Dict[str, str]
    #: abstract device name -> concrete members
    members: Dict[str, List[str]] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def compression_ratio(self) -> float:
        """Concrete devices per abstract device (>= 1)."""
        concrete = len(self.abstraction)
        abstract = len(self.members)
        return concrete / abstract if abstract else 1.0

    def abstract_node(self, concrete: str) -> str:
        """The abstract node a concrete device maps to."""
        try:
            return self.abstraction[concrete]
        except KeyError:
            raise VerificationError(f"unknown device {concrete!r} in abstraction") from None

    def translate_nodes(self, nodes: Sequence[str]) -> List[str]:
        """Translate concrete node names into (deduplicated) abstract names."""
        seen: List[str] = []
        for node in nodes:
            abstract = self.abstract_node(node)
            if abstract not in seen:
                seen.append(abstract)
        return seen


class BonsaiCompressor:
    """Compress an OSPF/static network via device-equivalence classes."""

    def __init__(self, network: NetworkConfig) -> None:
        self.network = network

    def _relevant(self, prefix: Prefix, for_prefix: Optional[Prefix]) -> bool:
        """Whether an originated ``prefix`` matters for a sliced compression."""
        if for_prefix is None:
            return True
        return prefix.to_range().overlaps(for_prefix.to_range())

    def _origin_colors(self, for_prefix: Optional[Prefix] = None) -> Dict[str, object]:
        """Initial colours: the set of prefixes each device originates.

        With ``for_prefix`` given, only origination relevant to that
        destination is distinguished — Bonsai computes one abstraction per
        destination class, under which the (many) devices originating other,
        unrelated prefixes become interchangeable.
        """
        colors: Dict[str, object] = {}
        for name, config in self.network.devices.items():
            ospf_networks = (
                tuple(sorted(str(p) for p in config.ospf.networks if self._relevant(p, for_prefix)))
                if config.ospf
                else ()
            )
            bgp_networks = (
                tuple(sorted(str(p) for p in config.bgp.networks if self._relevant(p, for_prefix)))
                if config.bgp
                else ()
            )
            statics = tuple(
                sorted(
                    f"{r.prefix}->{r.next_hop_node or r.next_hop_ip}"
                    for r in config.static_routes
                    if self._relevant(r.prefix, for_prefix)
                )
            )
            colors[name] = (ospf_networks, bgp_networks, statics, config.ospf is not None)
        return colors

    def compress(
        self,
        keep_distinct: Sequence[str] = (),
        for_prefix: Optional[Prefix] = None,
    ) -> CompressedNetwork:
        """Build the abstract network.

        ``keep_distinct`` lists concrete devices that must stay in singleton
        classes (policy sources, waypoints), mirroring how the verification
        task constrains what Bonsai may merge.  ``for_prefix`` requests a
        destination-sliced abstraction: devices are distinguished only by
        behaviour relevant to that destination prefix, which is where
        Bonsai's compression on symmetric topologies actually comes from —
        without it every edge switch sits in a singleton class because it
        originates its own subnet.
        """
        started = time.perf_counter()
        colors = self._origin_colors(for_prefix)
        for index, name in enumerate(keep_distinct):
            colors[name] = (colors.get(name), "pinned", index)
        equivalence = DeviceEquivalence(self.network.topology, colors)
        members_by_class = equivalence.class_members()

        abstract_topology = Topology(f"{self.network.topology.name}-bonsai")
        abstract_name: Dict[int, str] = {}
        for class_id, members in sorted(members_by_class.items()):
            name = f"abs{class_id}_{members[0]}"
            abstract_name[class_id] = name
            representative = self.network.topology.node(members[0])
            abstract_topology.add_node(name, role=representative.role, members=tuple(members))

        # One abstract link per Link Equivalence Class.
        for (class_a, class_b, weight_ab, weight_ba), _link_ids in sorted(
            equivalence.link_classes().items()
        ):
            name_a = abstract_name[class_a]
            name_b = abstract_name[class_b]
            if name_a == name_b:
                continue  # intra-class links disappear in the abstraction
            if not abstract_topology.links_between(name_a, name_b):
                abstract_topology.add_link(name_a, name_b, weight=weight_ab, weight_ba=weight_ba)

        abstract_network = NetworkConfig(abstract_topology)
        abstraction: Dict[str, str] = {}
        members: Dict[str, List[str]] = {}
        for class_id, concrete_members in members_by_class.items():
            name = abstract_name[class_id]
            members[name] = list(concrete_members)
            for concrete in concrete_members:
                abstraction[concrete] = name
            representative_cfg = self.network.device(concrete_members[0])
            abstract_cfg = DeviceConfig(name=name)
            if representative_cfg.ospf is not None:
                # In a destination-sliced abstraction the representative's
                # irrelevant origins (its own subnets, say) are dropped: all
                # class members agree on the relevant set by construction.
                abstract_cfg.ospf = OspfConfig(
                    networks=[
                        p for p in representative_cfg.ospf.networks
                        if self._relevant(p, for_prefix)
                    ],
                    redistribute_static=representative_cfg.ospf.redistribute_static,
                )
            abstract_cfg.static_routes = []
            for route in representative_cfg.static_routes:
                if not self._relevant(route.prefix, for_prefix):
                    continue
                if route.next_hop_node is not None:
                    abstract_next_hop = abstraction.get(route.next_hop_node)
                    if abstract_next_hop is None:
                        # The next hop's class is named later; resolve afterwards.
                        abstract_next_hop = route.next_hop_node
                    abstract_cfg.static_routes.append(
                        type(route)(prefix=route.prefix, next_hop_node=abstract_next_hop)
                    )
            abstract_network.set_device(abstract_cfg)

        # Second pass: fix static next hops whose classes were named after use.
        for name, config in abstract_network.devices.items():
            fixed = []
            for route in config.static_routes:
                next_hop = route.next_hop_node
                if next_hop is not None and next_hop in abstraction:
                    route = type(route)(prefix=route.prefix, next_hop_node=abstraction[next_hop])
                fixed.append(route)
            config.static_routes = fixed

        return CompressedNetwork(
            network=abstract_network,
            abstraction=abstraction,
            members=members,
            elapsed_seconds=time.perf_counter() - started,
        )
