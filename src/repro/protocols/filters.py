"""Route-map and prefix-list evaluation.

Route maps are the concrete syntax from which the abstract import/export
filters of the protocol model are inferred (paper §3.4.1 and Appendix B).
:func:`apply_route_map` evaluates an ordered route map against a candidate
route for a given prefix and returns either a transformed route or a denial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config.objects import DeviceConfig, RouteMapClause
from repro.netaddr import Prefix
from repro.protocols.base import Route


@dataclass(frozen=True)
class RouteMapResult:
    """Outcome of evaluating a route map: permitted or not, and the new route."""

    permitted: bool
    route: Optional[Route] = None
    matched_sequence: Optional[int] = None


def clause_matches_prefix(clause: RouteMapClause, device: DeviceConfig, prefix: Prefix) -> bool:
    """Whether ``clause``'s prefix conditions — prefix list, prefix set and
    length bounds — hold for a route advertised for ``prefix``.

    These are the conditions a route's attributes do not enter, so a
    clause failing them can never fire for ``prefix``: the per-PEC config
    slice (:func:`repro.incremental.impact.config_slice`) reads a route map
    through this test.
    """
    match = clause.match
    if match.prefix_list is not None:
        if not device.prefix_list(match.prefix_list).permits(prefix):
            return False
    if match.prefixes:
        if not any(candidate.contains_prefix(prefix) for candidate in match.prefixes):
            return False
    if match.min_prefix_length is not None and prefix.length < match.min_prefix_length:
        return False
    if match.max_prefix_length is not None and prefix.length > match.max_prefix_length:
        return False
    return True


def _clause_matches(
    clause: RouteMapClause,
    device: DeviceConfig,
    prefix: Prefix,
    route: Route,
) -> bool:
    """Whether ``clause`` matches ``route`` advertised for ``prefix``."""
    if not clause_matches_prefix(clause, device, prefix):
        return False
    match = clause.match
    if match.communities:
        if not all(community in route.communities for community in match.communities):
            return False
    if match.as_path_contains is not None:
        # The abstract model tracks AS-path length, not the member ASes; a
        # "contains" match is approximated by requiring a non-empty path.
        if route.as_path_length == 0:
            return False
    return True


def _apply_actions(clause: RouteMapClause, route: Route) -> Route:
    """Apply the clause's set actions to ``route`` and return the new route."""
    actions = clause.actions
    updates = {}
    if actions.local_preference is not None:
        updates["local_pref"] = actions.local_preference
    if actions.med is not None:
        updates["med"] = actions.med
    if actions.prepend_count:
        updates["as_path_length"] = route.as_path_length + actions.prepend_count
    if actions.add_communities or actions.remove_communities:
        communities = set(route.communities)
        communities.update(actions.add_communities)
        communities.difference_update(actions.remove_communities)
        updates["communities"] = frozenset(communities)
    if not updates:
        return route
    from dataclasses import replace

    return replace(route, **updates)


def apply_route_map(
    device: DeviceConfig,
    route_map_name: Optional[str],
    prefix: Prefix,
    route: Route,
) -> RouteMapResult:
    """Evaluate the named route map on ``route`` for ``prefix``.

    A missing route-map name means "no policy": the route is permitted
    unchanged.  Route maps end in an implicit deny, matching vendor
    behaviour.
    """
    if route_map_name is None:
        return RouteMapResult(permitted=True, route=route)
    route_map = device.route_map(route_map_name)
    for clause in route_map.sorted_clauses():
        if _clause_matches(clause, device, prefix, route):
            if not clause.permit:
                return RouteMapResult(permitted=False, matched_sequence=clause.sequence)
            return RouteMapResult(
                permitted=True,
                route=_apply_actions(clause, route),
                matched_sequence=clause.sequence,
            )
    return RouteMapResult(permitted=False)


def maximum_local_pref(device: DeviceConfig, default_local_pref: int) -> int:
    """The highest local preference any import policy on ``device`` can assign."""
    highest = default_local_pref
    for route_map in device.route_maps.values():
        for clause in route_map.clauses:
            if clause.permit and clause.actions.local_preference is not None:
                highest = max(highest, clause.actions.local_preference)
    return highest
