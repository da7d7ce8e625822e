"""Network topology substrate: graphs, generators and failure scenarios."""

from repro.topology.graph import Link, Node, Topology
from repro.topology.failures import (
    FailureScenario,
    enumerate_failure_scenarios,
    DeviceEquivalence,
    reduced_failure_scenarios,
)
from repro.topology.io import (
    load_topology,
    parse_topology,
    format_topology,
    topology_from_dict,
)
from repro.topology.generators import (
    fat_tree,
    fat_tree_device_count,
    bgp_fat_tree,
    ring,
    rocketfuel_like,
    enterprise_like,
    ROCKETFUEL_SIZES,
)

__all__ = [
    "Link",
    "Node",
    "Topology",
    "FailureScenario",
    "enumerate_failure_scenarios",
    "DeviceEquivalence",
    "reduced_failure_scenarios",
    "load_topology",
    "parse_topology",
    "format_topology",
    "topology_from_dict",
    "fat_tree",
    "fat_tree_device_count",
    "bgp_fat_tree",
    "ring",
    "rocketfuel_like",
    "enterprise_like",
    "ROCKETFUEL_SIZES",
]
