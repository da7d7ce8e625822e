"""Topology generators for the paper's evaluation workloads.

The paper evaluates on:

* fat trees of increasing size (§5, Figures 7a/b/c/f/g) — built here by
  :func:`fat_tree`,
* ring topologies for the ablation study (Figure 8) — :func:`ring`,
* RocketFuel AS topologies (Figures 7d/e/g) — substituted by
  :func:`rocketfuel_like`, a synthetic ISP-like generator producing graphs of
  the same published sizes,
* real-world enterprise configurations I-IX and the Stanford dataset
  (Figures 7h/i) — substituted by :func:`enterprise_like`.

All generators are deterministic given their ``seed`` so experiments are
reproducible.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.exceptions import TopologyError
from repro.netaddr import Prefix
from repro.topology.graph import Topology

#: Device counts of the RocketFuel AS topologies used in the paper's Figure 7.
ROCKETFUEL_SIZES: Dict[str, int] = {
    "AS1221": 108,
    "AS1239": 315,
    "AS1755": 87,
    "AS3257": 161,
    "AS3967": 79,
    "AS6461": 141,
}


def fat_tree(k: int, link_weight: int = 10, name: Optional[str] = None) -> Topology:
    """Build a ``k``-ary fat tree (k even).

    The standard 3-layer fat tree has ``k`` pods, each with ``k/2`` edge and
    ``k/2`` aggregation switches, plus ``(k/2)^2`` core switches — a total of
    ``5k^2/4`` devices.  Node roles are ``edge``, ``aggregation`` and ``core``;
    each node records its pod in ``attributes['pod']`` (cores use pod ``-1``).

    Args:
        k: Fat-tree arity; must be an even integer >= 2.
        link_weight: OSPF cost assigned to every link (the paper uses
            identical weights).
        name: Optional topology name.
    """
    if k < 2 or k % 2 != 0:
        raise TopologyError(f"fat tree arity must be an even integer >= 2, got {k}")
    half = k // 2
    topo = Topology(name or f"fattree-k{k}")
    core_names: List[str] = []
    for i in range(half * half):
        node_name = f"core{i}"
        topo.add_node(node_name, role="core", pod=-1, index=i)
        core_names.append(node_name)
    for pod in range(k):
        agg_names = []
        edge_names = []
        for i in range(half):
            agg = f"agg{pod}_{i}"
            topo.add_node(agg, role="aggregation", pod=pod, index=i)
            agg_names.append(agg)
        for i in range(half):
            edge = f"edge{pod}_{i}"
            topo.add_node(edge, role="edge", pod=pod, index=i)
            edge_names.append(edge)
        for agg in agg_names:
            for edge in edge_names:
                topo.add_link(agg, edge, weight=link_weight)
        # Each aggregation switch i connects to cores [i*half, (i+1)*half).
        for i, agg in enumerate(agg_names):
            for j in range(half):
                topo.add_link(agg, core_names[i * half + j], weight=link_weight)
    return topo


def fat_tree_device_count(k: int) -> int:
    """The number of devices in a ``k``-ary fat tree (5k^2/4)."""
    return 5 * k * k // 4


def ring(n: int, link_weight: int = 1, name: Optional[str] = None) -> Topology:
    """A ring of ``n`` routers ``r0 .. r{n-1}`` (used by the Fig. 8 ablations)."""
    if n < 3:
        raise TopologyError(f"ring needs at least 3 nodes, got {n}")
    topo = Topology(name or f"ring-{n}")
    for i in range(n):
        topo.add_node(f"r{i}", role="router", index=i)
    for i in range(n):
        topo.add_link(f"r{i}", f"r{(i + 1) % n}", weight=link_weight)
    return topo


def rocketfuel_like(
    as_name: str = "AS1221",
    size: Optional[int] = None,
    seed: int = 1,
    name: Optional[str] = None,
) -> Topology:
    """A synthetic ISP-like topology standing in for a RocketFuel AS map.

    The paper uses measured RocketFuel topologies with inferred OSPF weights.
    Those traces are not redistributable here, so this generator builds a
    two-level ISP structure with the same device counts: a small, densely
    meshed backbone, and PoP routers attached to 2-3 backbone/PoP routers each
    with heterogeneous link weights.  The resulting graphs are sparse,
    multi-connected and have realistic diameters, which is what the paper's
    failure-reachability experiments exercise.

    Args:
        as_name: One of the keys of :data:`ROCKETFUEL_SIZES`; sets the default
            device count.
        size: Override the number of devices.
        seed: Random seed (deterministic output for a given seed).
        name: Optional topology name.
    """
    if size is None:
        if as_name not in ROCKETFUEL_SIZES:
            raise TopologyError(
                f"unknown AS {as_name!r}; expected one of {sorted(ROCKETFUEL_SIZES)}"
            )
        size = ROCKETFUEL_SIZES[as_name]
    if size < 4:
        raise TopologyError(f"ISP-like topology needs at least 4 devices, got {size}")
    rng = random.Random(seed)
    topo = Topology(name or f"{as_name.lower()}-like")

    backbone_count = max(3, size // 10)
    backbone = [f"bb{i}" for i in range(backbone_count)]
    for node_name in backbone:
        topo.add_node(node_name, role="backbone")
    # Backbone ring plus random chords for redundancy.
    for i in range(backbone_count):
        topo.add_link(
            backbone[i],
            backbone[(i + 1) % backbone_count],
            weight=rng.choice([1, 2, 3, 5]),
        )
    chord_count = max(1, backbone_count // 2)
    for _ in range(chord_count):
        a, b = rng.sample(backbone, 2)
        if not topo.links_between(a, b):
            topo.add_link(a, b, weight=rng.choice([2, 4, 6, 10]))

    pop_count = size - backbone_count
    for i in range(pop_count):
        node_name = f"pop{i}"
        topo.add_node(node_name, role="pop")
        # Every PoP router attaches to 2-3 already-present routers for
        # redundancy, preferring the backbone.
        attach_count = rng.choice([2, 2, 3])
        candidates = backbone + [f"pop{j}" for j in range(i)]
        targets = rng.sample(candidates, min(attach_count, len(candidates)))
        for target in targets:
            topo.add_link(node_name, target, weight=rng.choice([1, 2, 3, 5, 10]))
    return topo


def enterprise_like(
    network_id: str,
    devices: int,
    seed: int = 7,
    recursive_routing: bool = True,
) -> Topology:
    """A synthetic enterprise / campus network.

    Substitutes for the paper's real-world configurations (networks I-IX and
    the Stanford dataset): a core/distribution/access hierarchy with redundant
    uplinks, which is the dominant structure of enterprise networks, plus
    loopbacks on core devices so recursive routing (iBGP / indirect static
    routes) can be configured by the workload builders.

    Args:
        network_id: Label of the network (e.g. ``"II"`` or ``"stanford"``).
        devices: Total number of devices.
        seed: Random seed controlling the access-layer attachment pattern.
        recursive_routing: When True, core devices receive loopback prefixes.
    """
    if devices < 3:
        raise TopologyError(f"enterprise network needs at least 3 devices, got {devices}")
    rng = random.Random(seed)
    topo = Topology(f"enterprise-{network_id}")

    core_count = max(2, devices // 12)
    dist_count = max(2, devices // 4)
    access_count = devices - core_count - dist_count
    if access_count < 0:
        core_count = 2
        dist_count = max(1, devices - 3)
        access_count = devices - core_count - dist_count

    cores = []
    for i in range(core_count):
        loopback = Prefix(f"10.255.{network_hash(network_id) % 200}.{i + 1}/32")
        loop = loopback if recursive_routing else None
        topo.add_node(f"core{i}", role="core", loopback=loop)
        cores.append(f"core{i}")
    for i in range(core_count):
        for j in range(i + 1, core_count):
            topo.add_link(cores[i], cores[j], weight=1)

    dists = []
    for i in range(dist_count):
        node_name = f"dist{i}"
        topo.add_node(node_name, role="distribution")
        dists.append(node_name)
        uplinks = rng.sample(cores, min(2, len(cores)))
        for up in uplinks:
            topo.add_link(node_name, up, weight=rng.choice([1, 2, 5]))

    for i in range(access_count):
        node_name = f"acc{i}"
        topo.add_node(node_name, role="access")
        uplinks = rng.sample(dists, min(2, len(dists)))
        for up in uplinks:
            topo.add_link(node_name, up, weight=rng.choice([1, 2, 5, 10]))
    return topo


def network_hash(label: str) -> int:
    """A small deterministic hash used to derive address blocks from labels."""
    value = 0
    for char in label:
        value = (value * 31 + ord(char)) & 0xFFFF
    return value


def bgp_fat_tree(k: int, base_asn: int = 65000, name: Optional[str] = None) -> Topology:
    """A fat tree annotated with per-node AS numbers per RFC 7938.

    RFC 7938 (Use of BGP for routing in large-scale data centers) assigns one
    AS number per rack (edge switch), one per aggregation group (pod), and a
    common AS to the core.  The paper's Figure 7(c) experiment configures BGP
    this way.  The AS number of every node is stored in
    ``attributes['asn']``.
    """
    topo = fat_tree(k, name=name or f"bgp-fattree-k{k}")
    half = k // 2
    for node_name in topo.nodes:
        node = topo.node(node_name)
        if node.role == "core":
            node.attributes["asn"] = base_asn
        elif node.role == "aggregation":
            pod = int(node.attributes["pod"])
            node.attributes["asn"] = base_asn + 1 + pod
        else:  # edge
            pod = int(node.attributes["pod"])
            index = int(node.attributes["index"])
            node.attributes["asn"] = base_asn + 1 + k + pod * half + index
    return topo
