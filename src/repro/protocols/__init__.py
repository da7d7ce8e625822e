"""Protocol substrate: OSPF, BGP, static routing, SPVP and RPVP models."""

from repro.protocols.base import (
    EPSILON,
    NO_PATH,
    Path,
    Route,
    RouteSource,
    PathVectorInstance,
)
from repro.protocols.filters import apply_route_map, RouteMapResult
from repro.protocols.ospf import OspfComputation, OspfRoutingTable
from repro.protocols.static import resolve_static_routes, StaticResolution
from repro.protocols.bgp import BgpInstance, build_bgp_instance
from repro.protocols.ospf_instance import OspfInstance, build_ospf_instance
from repro.protocols.rpvp import (
    RpvpState,
    enabled_nodes,
    is_converged,
    rpvp_successors,
    run_to_convergence,
)
from repro.protocols.spvp import (
    SpvpEvent,
    SpvpSimulator,
    SpvpState,
    SpvpStepper,
)

__all__ = [
    "EPSILON",
    "NO_PATH",
    "Path",
    "Route",
    "RouteSource",
    "PathVectorInstance",
    "apply_route_map",
    "RouteMapResult",
    "OspfComputation",
    "OspfRoutingTable",
    "resolve_static_routes",
    "StaticResolution",
    "BgpInstance",
    "build_bgp_instance",
    "OspfInstance",
    "build_ospf_instance",
    "RpvpState",
    "enabled_nodes",
    "is_converged",
    "rpvp_successors",
    "run_to_convergence",
    "SpvpSimulator",
    "SpvpState",
    "SpvpStepper",
    "SpvpEvent",
]
