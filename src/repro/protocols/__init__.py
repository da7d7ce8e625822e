"""Protocol substrate: OSPF, BGP, static routing, SPVP and RPVP models."""

from repro import _exports

#: Public name -> the module that defines it (imported on first access).
_ORIGINS = {
    "EPSILON": "repro.protocols.base",
    "NO_PATH": "repro.protocols.base",
    "Path": "repro.protocols.base",
    "Route": "repro.protocols.base",
    "RouteSource": "repro.protocols.base",
    "PathVectorInstance": "repro.protocols.base",
    "apply_route_map": "repro.protocols.filters",
    "RouteMapResult": "repro.protocols.filters",
    "OspfComputation": "repro.protocols.ospf",
    "OspfRoutingTable": "repro.protocols.ospf",
    "resolve_static_routes": "repro.protocols.static",
    "StaticResolution": "repro.protocols.static",
    "BgpInstance": "repro.protocols.bgp",
    "OspfInstance": "repro.protocols.ospf_instance",
    "RpvpState": "repro.protocols.rpvp",
    "SpvpState": "repro.protocols.spvp",
    "SpvpStepper": "repro.protocols.spvp",
    "SpvpEvent": "repro.protocols.spvp",
}

__all__ = list(_ORIGINS)
__getattr__ = _exports(__name__, _ORIGINS)
