"""Configuration model: device configs, routing-policy objects, parser, builder."""

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
    MatchConditions,
    SetActions,
)
from repro.config.parser import parse_config, parse_device_config
from repro.config.builder import (
    ConfigBuilder,
    ospf_everywhere,
    ebgp_rfc7938,
    ibgp_over_ospf,
)

__all__ = [
    "BgpConfig",
    "BgpNeighbor",
    "DeviceConfig",
    "NetworkConfig",
    "OspfConfig",
    "OspfInterface",
    "PrefixList",
    "PrefixListEntry",
    "RouteMap",
    "RouteMapClause",
    "StaticRoute",
    "MatchConditions",
    "SetActions",
    "parse_config",
    "parse_device_config",
    "ConfigBuilder",
    "ospf_everywhere",
    "ebgp_rfc7938",
    "ibgp_over_ospf",
]
