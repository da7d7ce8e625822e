"""Seeded input generators: every workload's `.topo` / `.cfg` text files.

The program under test only ever sees the files written here.  Topology
*shape* comes from ``repro.topology`` (+ ``format_topology``); the
configuration text is written by the benchmark itself, so a change to the
config builders cannot silently change the benchmark's inputs.

What the seed may choose.  A run's cost must not depend on the seed, or the
spread across seeds would be workload variance instead of measurement
noise.  Picking *which* rack a campaign targets is not neutral here (name
order breaks ties, so racks differ by +-6 % in states explored).  So the seed
picks the address plan (first octet, base AS number) - a renaming every
layer has to carry through, with identical state counts - plus the two
choices measured to be cost-neutral: the pod carrying the static loop and
the order in which racks are edited.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from repro.topology import bgp_fat_tree, fat_tree
from repro.topology.io import format_topology


@dataclass(frozen=True)
class Plan:
    """The seeded address plan."""

    octet: int
    base_asn: int

    @staticmethod
    def draw(rng: random.Random) -> "Plan":
        return Plan(octet=rng.randrange(11, 100), base_asn=rng.randrange(64600, 65000))

    def rack_prefix(self, pod: int, index: int) -> str:
        """The /24 the edge switch ``(pod, index)`` originates."""
        return f"{self.octet}.{pod}.{index}.0/24"


def _position(topology, name: str) -> Tuple[int, int]:
    node = topology.node(name)
    return int(node.attributes["pod"]), int(node.attributes["index"])


# --------------------------------------------------------------------------- OSPF fabrics
def ospf_fabric(k: int, plan: Plan) -> Dict[str, str]:
    """OSPF everywhere on a fat tree; every edge switch originates its rack /24."""
    topology = fat_tree(k)
    lines: List[str] = []
    for name in topology.nodes:
        lines.append(f"device {name}")
        lines.append("  ospf")
        if topology.node(name).role == "edge":
            lines.append(f"    network {plan.rack_prefix(*_position(topology, name))}")
    return {"net.topo": format_topology(topology), "net.cfg": "\n".join(lines) + "\n"}


def ospf_loop_fabric(k: int, plan: Plan, rng: random.Random) -> Dict[str, str]:
    """The OSPF fabric plus a 4-node static-route cycle for one rack prefix.

    The cycle agg -> edge -> agg -> edge sits in one pod and carries the
    prefix of a rack in *another* pod, so the statics override OSPF for
    transit traffic: a forwarding loop by construction, before any failure.
    """
    files = ospf_fabric(k, plan)
    loop_pod, victim_pod = rng.sample(range(k), 2)
    prefix = plan.rack_prefix(victim_pod, 0)
    cycle = [f"agg{loop_pod}_0", f"edge{loop_pod}_0", f"agg{loop_pod}_1", f"edge{loop_pod}_1"]
    lines = files["net.cfg"].splitlines()
    for position, name in enumerate(cycle):
        next_hop = cycle[(position + 1) % len(cycle)]
        at = lines.index(f"device {name}") + 1
        while at < len(lines) and not lines[at].startswith("device "):
            at += 1
        lines.insert(at, f"  static {prefix} next-hop {next_hop}")
    files["net.cfg"] = "\n".join(lines) + "\n"
    return files


# --------------------------------------------------------------------------- eBGP fabric
def ebgp_device_body(topology, plan: Plan, name: str, community: str = "") -> str:
    """One device's RFC 7938 eBGP stanza (no ``device`` header line).

    Rack switches export only their own prefix (``EXPORT_OWN``) - which is
    what makes the fabric loop-free under failures; with ``community`` the
    export map additionally tags it (the edit ``serve_edit`` pushes).
    """
    node = topology.node(name)
    lines = [f"  bgp {node.attributes['asn']}"]
    own = None
    if node.role == "edge":
        own = plan.rack_prefix(*_position(topology, name))
        lines.append(f"    network {own}")
    for neighbor in topology.neighbors(name):
        peer = topology.node(neighbor)
        if {node.role, peer.role} not in ({"edge", "aggregation"}, {"aggregation", "core"}):
            continue
        line = f"    neighbor {neighbor} remote-as {peer.attributes['asn']}"
        if own is not None:
            line += " export-map EXPORT_OWN"
        lines.append(line)
    if own is not None:
        lines.append("  route-map EXPORT_OWN permit 10")
        lines.append(f"    match prefix {own}")
        if community:
            lines.append(f"    set community {community}")
    return "\n".join(lines) + "\n"


def ebgp_fabric(k: int, plan: Plan) -> Dict[str, str]:
    """RFC 7938 eBGP on a fat tree: one AS per rack, per pod, and for the core."""
    topology = bgp_fat_tree(k, base_asn=plan.base_asn)
    config = "".join(
        f"device {name}\n{ebgp_device_body(topology, plan, name)}" for name in topology.nodes
    )
    return {"net.topo": format_topology(topology), "net.cfg": config}


class EbgpEdits:
    """An endless sequence of overlay pushes, each re-tagging one rack's
    export map.  Racks are visited in a seeded order and the community value
    differs on every push, so each push is a real delta dirtying one PEC."""

    def __init__(self, k: int, plan: Plan, rng: random.Random) -> None:
        self.topology = bgp_fat_tree(k, base_asn=plan.base_asn)
        self.plan = plan
        self.order = self.topology.nodes_by_role("edge")
        rng.shuffle(self.order)
        self.count = 0

    def next(self) -> Dict[str, str]:
        name = self.order[self.count % len(self.order)]
        community = f"{self.plan.base_asn}:{100 + self.count}"
        self.count += 1
        return {name: ebgp_device_body(self.topology, self.plan, name, community)}


# --------------------------------------------------------------------------- files
def write_inputs(directory: Path, files: Dict[str, str]) -> Dict[str, str]:
    """Write ``files`` under ``directory``; returns name -> SHA-256 so input
    drift between two versions of the benchmark is visible in its output."""
    directory.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, text in files.items():
        (directory / name).write_text(text)
        digests[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests
