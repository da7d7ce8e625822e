"""Packet Equivalence Class computation (paper §3.1).

A Packet Equivalence Class (PEC) is a contiguous range of the destination
address space whose packets are treated identically by every construct in the
configuration.  The PECs are computed by inserting every configured prefix
into a :class:`~repro.pec.trie.PrefixTrie` and traversing it; each resulting
range carries the prefixes contributing to it (the prefixes still matter
inside a PEC because prefix lengths participate in route-map matching and in
longest-prefix-match forwarding).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.config.objects import NetworkConfig
from repro.netaddr import AddressRange, Prefix
from repro.pec.trie import PrefixTrie


@dataclass(frozen=True)
class PacketEquivalenceClass:
    """One Packet Equivalence Class.

    Attributes:
        index: Position in the overall partition (stable identifier).
        address_range: The contiguous destination range this PEC covers.
        prefixes: Configured prefixes covering the range, most specific first.
            Plankton executes the control plane once per prefix (§3.3).
        ospf_origins / bgp_origins / static_devices: For each contributing
            prefix, the devices that originate it into the respective protocol
            (the per-PEC "config objects" of the paper's Figure 4).
    """

    index: int
    address_range: AddressRange
    prefixes: Tuple[Prefix, ...]
    ospf_origins: Tuple[Tuple[Prefix, Tuple[str, ...]], ...] = ()
    bgp_origins: Tuple[Tuple[Prefix, Tuple[str, ...]], ...] = ()
    static_devices: Tuple[Tuple[Prefix, Tuple[str, ...]], ...] = ()

    @property
    def is_empty(self) -> bool:
        """True when no configured prefix covers this range (default PEC)."""
        return not self.prefixes

    def representative_address(self) -> int:
        """A witness destination address inside the PEC."""
        return self.address_range.representative()

    def origins_for(self, prefix: Prefix, protocol: str) -> Tuple[str, ...]:
        """Devices originating ``prefix`` into ``protocol`` ('ospf'/'bgp'/'static')."""
        table = {
            "ospf": self.ospf_origins,
            "bgp": self.bgp_origins,
            "static": self.static_devices,
        }[protocol]
        for candidate, devices in table:
            if candidate == prefix:
                return devices
        return ()

    def has_bgp(self) -> bool:
        """True if any contributing prefix is originated into BGP."""
        return any(devices for _prefix, devices in self.bgp_origins)

    def describe(self) -> str:
        parts = [f"PEC#{self.index} {self.address_range}"]
        for prefix in self.prefixes:
            origin_bits = []
            for protocol in ("ospf", "bgp", "static"):
                devices = self.origins_for(prefix, protocol)
                if devices:
                    origin_bits.append(f"{protocol}:{','.join(devices)}")
            parts.append(f"  {prefix} ({'; '.join(origin_bits) if origin_bits else 'no origins'})")
        if not self.prefixes:
            parts.append("  (no configured prefixes)")
        return "\n".join(parts)


def build_trie(network: NetworkConfig) -> PrefixTrie:
    """Insert every prefix the configuration references into a fresh trie."""
    trie = PrefixTrie()
    seen: Set[Prefix] = set()
    for prefix in network.all_referenced_prefixes():
        if prefix in seen:
            continue
        seen.add(prefix)
        trie.insert(prefix)
    return trie


def compute_pecs(
    network: NetworkConfig,
    include_default: bool = False,
) -> List[PacketEquivalenceClass]:
    """Compute the Packet Equivalence Classes of ``network``.

    Args:
        network: The configuration under verification.
        include_default: Also return ranges covered by no configured prefix
            (packets there are dropped everywhere; most policies skip them).
    """
    trie = build_trie(network)
    ospf_by_prefix: Dict[Prefix, List[str]] = {}
    bgp_by_prefix: Dict[Prefix, List[str]] = {}
    static_by_prefix: Dict[Prefix, List[str]] = {}
    for name, config in network.devices.items():
        if config.ospf is not None:
            for prefix in config.ospf.networks:
                ospf_by_prefix.setdefault(prefix, []).append(name)
        if config.bgp is not None:
            for prefix in config.bgp.networks:
                bgp_by_prefix.setdefault(prefix, []).append(name)
        for route in config.static_routes:
            static_by_prefix.setdefault(route.prefix, []).append(name)

    classes: List[PacketEquivalenceClass] = []
    index = 0
    for address_range, covering in trie.partition():
        if not covering and not include_default:
            continue
        pec = PacketEquivalenceClass(
            index=index,
            address_range=address_range,
            prefixes=covering,
            ospf_origins=tuple(
                (prefix, tuple(sorted(ospf_by_prefix.get(prefix, ()))))
                for prefix in covering
            ),
            bgp_origins=tuple(
                (prefix, tuple(sorted(bgp_by_prefix.get(prefix, ()))))
                for prefix in covering
            ),
            static_devices=tuple(
                (prefix, tuple(sorted(static_by_prefix.get(prefix, ()))))
                for prefix in covering
            ),
        )
        classes.append(pec)
        index += 1
    return classes


def pec_covering_prefix(
    classes: Sequence[PacketEquivalenceClass], prefix: Prefix
) -> List[PacketEquivalenceClass]:
    """The PECs whose ranges intersect ``prefix``."""
    target = prefix.to_range()
    return [pec for pec in classes if pec.address_range.overlaps(target)]
