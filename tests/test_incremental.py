"""Tests for the incremental re-verification subsystem (`repro.incremental`)."""

import copy
import dataclasses
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import typing

import pytest

import repro
from repro.config import ebgp_rfc7938, ibgp_over_ospf
from repro.config.objects import (
    BgpConfig,
    BgpNeighbor,
    DeviceConfig,
    MatchConditions,
    NetworkConfig,
    OspfConfig,
    OspfInterface,
    PrefixList,
    PrefixListEntry,
    RouteMap,
    RouteMapClause,
    SetActions,
    StaticRoute,
)
from repro.core.options import PlanktonOptions
from repro.core.verifier import Plankton
from repro.incremental import (
    IncrementalVerifier,
    ResultCache,
    diff_networks,
    impacted_pecs,
    pec_base_fingerprints,
    result_signature,
)
from repro.incremental.cache import (
    CACHE_LAYOUT_SHA256,
    CACHE_SCHEMA_VERSION,
    verification_fingerprints,
)
from repro.exceptions import ConfigError
from repro.netaddr import Prefix
from repro.policies import LoopFreedom, Reachability
from repro.topology import bgp_fat_tree
from repro.topology.generators import ring
from repro.transient import TransientLoopFreedom, TransientOptions
from tests.helpers import add_entry


def fat_tree_network():
    return ebgp_rfc7938(bgp_fat_tree(2))


def edit_route_map(network, device="edge0_0"):
    """Append a clause to the device's EXPORT_OWN map (prefix-scoped change)."""
    edited = copy.deepcopy(network)
    route_map = edited.device(device).route_maps["EXPORT_OWN"]
    own = route_map.clauses[0].match.prefixes[0]
    route_map.add_clause(
        RouteMapClause(
            sequence=20,
            permit=True,
            match=MatchConditions(prefixes=[own]),
            actions=SetActions(med=7),
        )
    )
    return edited


# --------------------------------------------------------------------------- delta
class TestConfigDelta:
    def test_identical_networks_produce_empty_delta(self):
        network = fat_tree_network()
        delta = diff_networks(network, copy.deepcopy(network))
        assert delta.is_empty
        assert delta.summary() == "no configuration changes"

    def test_route_map_edit_is_a_prefix_scoped_filter_change(self):
        network = fat_tree_network()
        edited = edit_route_map(network)
        delta = diff_networks(network, edited)
        assert not delta.is_empty
        assert len(delta.filter_changes) == 1
        change = delta.filter_changes[0]
        assert change.device == "edge0_0"
        assert change.name == "EXPORT_OWN"
        assert not change.matches_everything
        assert Prefix("10.0.0.0/24") in change.match_prefixes

    def test_unconstrained_clause_matches_everything(self):
        network = fat_tree_network()
        edited = copy.deepcopy(network)
        edited.device("edge0_0").route_maps["EXPORT_OWN"].add_clause(
            RouteMapClause(sequence=30, permit=True)
        )
        delta = diff_networks(network, edited)
        assert delta.filter_changes[0].matches_everything

    def test_session_and_process_changes(self):
        network = fat_tree_network()
        edited = copy.deepcopy(network)
        bgp = edited.device("agg0_0").bgp
        session = bgp.neighbor("edge0_0")
        bgp.add_neighbor(
            BgpNeighbor(
                peer=session.peer, remote_asn=session.remote_asn, route_reflector_client=True
            )
        )
        bgp.default_local_pref = 150
        delta = diff_networks(network, edited)
        assert ("agg0_0", "edge0_0") in delta.session_changes
        assert any("default_local_pref" in entry for entry in delta.bgp_process_changes)

    def test_announce_static_and_ospf_changes(self):
        network = fat_tree_network()
        edited = copy.deepcopy(network)
        edited.device("edge0_0").bgp.networks.append(Prefix("10.77.0.0/24"))
        edited.device("core0").static_routes.append(
            StaticRoute(prefix=Prefix("10.0.0.0/24"), drop=True)
        )
        delta = diff_networks(network, edited)
        assert ("edge0_0", "bgp", Prefix("10.77.0.0/24")) in delta.announce_changes
        assert ("core0", Prefix("10.0.0.0/24")) in delta.static_changes

    def test_link_and_node_changes_touch_topology(self):
        from repro.topology import fat_tree

        old = ebgp_rfc7938(bgp_fat_tree(2))
        new_topology = bgp_fat_tree(2)
        # An extra edge-to-edge link (no BGP session rides on it).
        new_topology.add_link("edge0_0", "edge1_0", weight=10)
        new = ebgp_rfc7938(new_topology)
        delta = diff_networks(old, new)
        assert delta.touches_topology
        assert delta.link_changes


# --------------------------------------------------------------------------- impact
class TestImpact:
    def test_route_map_edit_dirties_only_covering_pecs(self):
        network = fat_tree_network()
        edited = edit_route_map(network)
        plankton = Plankton(edited, PlanktonOptions())
        delta = diff_networks(network, edited)
        dirty = impacted_pecs(delta, edited, plankton.pecs, plankton.dependency_graph)
        covering = {
            pec.index
            for pec in plankton.pecs
            if pec.address_range.overlaps(Prefix("10.0.0.0/24").to_range())
        }
        assert dirty == covering
        assert len(dirty) < len(plankton.pecs)

    def test_topology_change_dirties_every_pec(self):
        network = fat_tree_network()
        new_topology = bgp_fat_tree(2)
        new_topology.add_link("edge0_0", "edge1_0", weight=10)
        edited = ebgp_rfc7938(new_topology)
        plankton = Plankton(edited, PlanktonOptions())
        delta = diff_networks(network, edited)
        dirty = impacted_pecs(delta, edited, plankton.pecs, plankton.dependency_graph)
        assert dirty == {pec.index for pec in plankton.pecs}

    def test_session_change_dirties_bgp_pecs(self):
        network = fat_tree_network()
        edited = copy.deepcopy(network)
        bgp = edited.device("agg0_0").bgp
        session = bgp.neighbor("edge0_0")
        bgp.add_neighbor(
            BgpNeighbor(
                peer=session.peer, remote_asn=session.remote_asn, route_reflector_client=True
            )
        )
        plankton = Plankton(edited, PlanktonOptions())
        delta = diff_networks(network, edited)
        dirty = impacted_pecs(delta, edited, plankton.pecs, plankton.dependency_graph)
        assert dirty == {pec.index for pec in plankton.pecs if pec.has_bgp()}

    def test_dirty_upstream_dirties_dependents(self):
        topology = ring(5)
        network = ibgp_over_ospf(topology, {"r0": Prefix("200.0.0.0/24")})
        plankton = Plankton(network, PlanktonOptions())
        # Withdraw a loopback-adjacent announcement: dirty the loopback PEC
        # and check the closure pulls in the iBGP-advertised PEC.
        edited = copy.deepcopy(network)
        loopback = edited.topology.node("r1").loopback
        edited.device("r1").ospf.networks.remove(loopback)
        new_plankton = Plankton(edited, PlanktonOptions())
        delta = diff_networks(network, edited)
        dirty = impacted_pecs(delta, edited, new_plankton.pecs, new_plankton.dependency_graph)
        external = next(
            pec
            for pec in new_plankton.pecs
            if pec.address_range.overlaps(Prefix("200.0.0.0/24").to_range())
        )
        assert external.index in dirty


# --------------------------------------------------------------------------- fingerprints
class TestFingerprints:
    def test_fingerprints_stable_across_equal_configs(self):
        network = fat_tree_network()
        copied = copy.deepcopy(network)
        p1 = Plankton(network, PlanktonOptions())
        p2 = Plankton(copied, PlanktonOptions())
        f1 = pec_base_fingerprints(network, p1.pecs, p1.dependency_graph)
        f2 = pec_base_fingerprints(copied, p2.pecs, p2.dependency_graph)
        assert f1 == f2

    def test_route_map_edit_changes_only_covering_fingerprints(self):
        network = fat_tree_network()
        edited = edit_route_map(network)
        p1 = Plankton(network, PlanktonOptions())
        p2 = Plankton(edited, PlanktonOptions())
        f1 = pec_base_fingerprints(network, p1.pecs, p1.dependency_graph)
        f2 = pec_base_fingerprints(edited, p2.pecs, p2.dependency_graph)
        changed = {index for index in f1 if f1[index] != f2.get(index)}
        covering = {
            pec.index
            for pec in p2.pecs
            if pec.address_range.overlaps(Prefix("10.0.0.0/24").to_range())
        }
        assert changed == covering

    def test_unreferenced_route_map_local_pref_still_invalidates(self):
        # maximum_local_pref scans every map on a device (the §4.1.2 bound
        # reads it), so even an unreferenced map's local-pref must be in the
        # fingerprint.
        network = fat_tree_network()
        edited = copy.deepcopy(network)
        edited.device("agg0_0").route_maps["UNUSED"] = RouteMap(
            name="UNUSED",
            clauses=[
                RouteMapClause(
                    sequence=10, permit=True, actions=SetActions(local_preference=900)
                )
            ],
        )
        p1 = Plankton(network, PlanktonOptions())
        p2 = Plankton(edited, PlanktonOptions())
        f1 = pec_base_fingerprints(network, p1.pecs, p1.dependency_graph)
        f2 = pec_base_fingerprints(edited, p2.pecs, p2.dependency_graph)
        assert any(f1[index] != f2.get(index) for index in f1)

    def test_policy_and_options_shape_the_verification_key(self):
        network = fat_tree_network()
        plankton = Plankton(network, PlanktonOptions())
        from repro.engine import build_task_graph

        def keys(policies, options):
            graph = build_task_graph(
                plankton.symmetry,
                plankton.pecs,
                plankton.dependency_graph,
                policies,
                options,
                plankton.pecs,
            )
            return verification_fingerprints(
                network, plankton.pecs, plankton.dependency_graph, policies, options, graph
            )

        base = keys([LoopFreedom()], PlanktonOptions())
        other_policy = keys([Reachability()], PlanktonOptions())
        other_options = keys([LoopFreedom()], PlanktonOptions(stop_at_first_violation=False))
        assert set(base) == set(other_policy) == set(other_options)
        assert all(base[i] != other_policy[i] for i in base)
        assert all(base[i] != other_options[i] for i in base)
        # cores/backend are execution knobs: same key.
        same = keys([LoopFreedom()], PlanktonOptions(cores=4, backend="process"))
        assert base == same


# --------------------------------------------------------------------------- construct coverage
def _dataclasses_below(root):
    """``root`` and every dataclass named by its fields' type hints,
    recursively (through ``Optional``, ``List``, ``Dict`` ...), in walk order."""
    found = []

    def hinted(hint):
        yield hint
        for argument in typing.get_args(hint):
            yield from hinted(argument)

    def walk(cls):
        if cls in found:
            return
        found.append(cls)
        hints = typing.get_type_hints(cls, vars(sys.modules[cls.__module__]))
        for spec in dataclasses.fields(cls):
            for hint in hinted(hints[spec.name]):
                if isinstance(hint, type) and dataclasses.is_dataclass(hint):
                    walk(hint)

    walk(root)
    return found


#: Name fields that are the keys of the dicts holding their constructs.
DICT_KEYS = {"DeviceConfig.name", "RouteMap.name", "PrefixList.name", "OspfInterface.neighbor"}


def _construct_network():
    """OSPF everywhere on a 3-ring, eBGP r0-r1 and r1-r2, r0 exporting to r1
    through POLICY (one clause, whose prefix conditions — prefix list PL
    among them — all pass for r0's announced 10.0.0.0/24), a static route
    by next-hop node and one by next-hop IP on r2, and on r1 a second static
    route for r2's first prefix."""
    network = NetworkConfig(ring(3))
    for name in network.topology.nodes:
        network.device(name).ospf = OspfConfig(
            networks=[Prefix(f"10.10.{name[1]}.0/24")],
            interfaces={"r1": OspfInterface(neighbor="r1", cost=10)} if name != "r1" else {},
        )
    r0, r1, r2 = (network.device(name) for name in ("r0", "r1", "r2"))
    r0.bgp = BgpConfig(
        asn=65000,
        networks=[Prefix("10.0.0.0/24")],
        neighbors=[BgpNeighbor(peer="r1", remote_asn=65001, export_map="POLICY")],
    )
    r1.bgp = BgpConfig(
        asn=65001,
        neighbors=[
            BgpNeighbor(peer="r0", remote_asn=65000),
            BgpNeighbor(peer="r2", remote_asn=65002),
        ],
    )
    r2.bgp = BgpConfig(
        asn=65002,
        networks=[Prefix("10.2.0.0/24")],
        neighbors=[BgpNeighbor(peer="r1", remote_asn=65001)],
    )
    r0.prefix_lists["PL"] = add_entry(PrefixList(name="PL"), Prefix("10.0.0.0/16"), ge=16, le=24)
    r0.route_maps["POLICY"] = RouteMap(
        name="POLICY",
        clauses=[
            RouteMapClause(
                sequence=10,
                match=MatchConditions(
                    prefix_list="PL",
                    prefixes=[Prefix("10.0.0.0/16")],
                    communities=["65000:1"],
                    min_prefix_length=16,
                    max_prefix_length=24,
                ),
                actions=SetActions(add_communities=["65000:2"]),
            )
        ],
    )
    r2.static_routes = [
        StaticRoute(prefix=Prefix("10.9.0.0/24"), next_hop_node="r0"),
        StaticRoute(prefix=Prefix("10.9.1.0/24"), next_hop_ip=Prefix("10.10.0.0/24")),
    ]
    r1.static_routes = [StaticRoute(prefix=Prefix("10.9.0.0/24"), next_hop_node="r2")]
    network.validate()
    return network


def _static(index, **changes):
    def edit(network):
        routes = network.device("r2").static_routes
        routes[index] = dataclasses.replace(routes[index], **changes)

    return edit


def _on(path, **changes):
    """An edit setting ``changes`` on the object ``path(network)`` returns."""

    def edit(network):
        target = path(network)
        for name, value in changes.items():
            setattr(target, name, value)

    return edit


def _ospf(network):
    return network.device("r0").ospf


def _bgp(network):
    return network.device("r0").bgp


def _session(network):
    return network.device("r0").bgp.neighbors[0]


def _clause(network):
    return network.device("r0").route_maps["POLICY"].clauses[0]


def _match(network):
    return _clause(network).match


def _actions(network):
    return _clause(network).actions


def _entry(**changes):
    def edit(network):
        entries = network.device("r0").prefix_lists["PL"].entries
        entries[0] = dataclasses.replace(entries[0], **changes)

    return edit


#: One edit per config field (``Class.field``), each one that matters to a
#: PEC: a prefix-list bound flips the announced /24's match, because the
#: slice reads a list only through that match.  No edit moves the PEC
#: partition (a prefix-valued edit names a prefix the network already
#: mentions), so a fingerprint changes because a slice reads the field, not
#: because the PECs were cut anew.
CONSTRUCT_EDITS = {
    "DeviceConfig.static_routes": lambda network: network.device("r2").static_routes.append(
        StaticRoute(prefix=Prefix("10.9.1.0/24"), drop=True)
    ),
    "DeviceConfig.ospf": _on(lambda network: network.device("r0"), ospf=None),
    "DeviceConfig.bgp": _on(lambda network: network.device("r1"), bgp=None),
    "DeviceConfig.route_maps": lambda network: network.device("r2").route_maps.update(
        UNUSED=RouteMap(
            name="UNUSED",
            clauses=[RouteMapClause(sequence=10, actions=SetActions(local_preference=900))],
        )
    ),
    "DeviceConfig.prefix_lists": lambda network: network.device("r0").prefix_lists.update(
        PL=PrefixList(name="PL")
    ),
    "StaticRoute.prefix": _static(0, prefix=Prefix("10.9.1.0/24")),
    "StaticRoute.next_hop_node": _static(0, next_hop_node="r1"),
    "StaticRoute.next_hop_ip": _static(1, next_hop_ip=Prefix("10.10.1.0/24")),
    "StaticRoute.distance": _static(0, distance=5),
    "StaticRoute.drop": _static(0, drop=True),
    "OspfConfig.networks": _on(_ospf, networks=[Prefix("10.10.0.0/24"), Prefix("10.9.0.0/24")]),
    "OspfConfig.interfaces": _on(_ospf, interfaces={}),
    "OspfConfig.redistribute_static": _on(_ospf, redistribute_static=True),
    "OspfInterface.cost": _on(lambda network: _ospf(network).interfaces["r1"], cost=20),
    "OspfInterface.passive": _on(lambda network: _ospf(network).interfaces["r1"], passive=True),
    "BgpConfig.asn": _on(_bgp, asn=65100),
    "BgpConfig.networks": _on(_bgp, networks=[Prefix("10.0.0.0/24"), Prefix("10.9.1.0/24")]),
    "BgpConfig.neighbors": lambda network: _bgp(network).neighbors.append(
        BgpNeighbor(peer="r2", remote_asn=65002)
    ),
    "BgpConfig.default_local_pref": _on(_bgp, default_local_pref=120),
    "BgpNeighbor.peer": _on(_session, peer="r2"),
    "BgpNeighbor.remote_asn": _on(_session, remote_asn=65009),
    "BgpNeighbor.import_map": _on(_session, import_map="POLICY"),
    "BgpNeighbor.export_map": _on(_session, export_map=None),
    "BgpNeighbor.route_reflector_client": _on(_session, route_reflector_client=True),
    "RouteMap.clauses": lambda network: network.device("r0").route_maps["POLICY"].add_clause(
        RouteMapClause(sequence=20, actions=SetActions(med=3))
    ),
    "RouteMapClause.sequence": _on(_clause, sequence=15),
    "RouteMapClause.permit": _on(_clause, permit=False),
    "RouteMapClause.match": _on(_clause, match=MatchConditions()),
    "RouteMapClause.actions": _on(_clause, actions=SetActions()),
    "MatchConditions.prefix_list": _on(_match, prefix_list=None),
    "MatchConditions.prefixes": _on(_match, prefixes=[Prefix("10.2.0.0/24")]),
    "MatchConditions.communities": _on(_match, communities=["65000:3"]),
    "MatchConditions.as_path_contains": _on(_match, as_path_contains=65001),
    "MatchConditions.min_prefix_length": _on(_match, min_prefix_length=8),
    "MatchConditions.max_prefix_length": _on(_match, max_prefix_length=32),
    "SetActions.local_preference": _on(_actions, local_preference=200),
    "SetActions.med": _on(_actions, med=4),
    "SetActions.prepend_count": _on(_actions, prepend_count=2),
    "SetActions.add_communities": _on(_actions, add_communities=["65000:4"]),
    "SetActions.remove_communities": _on(_actions, remove_communities=["65000:1"]),
    "PrefixList.entries": lambda network: network.device("r0").prefix_lists["PL"].entries.insert(
        0, PrefixListEntry(Prefix("10.0.0.0/24"), permit=False)
    ),
    "PrefixListEntry.prefix": _entry(prefix=Prefix("10.2.0.0/24")),
    "PrefixListEntry.permit": _entry(permit=False),
    "PrefixListEntry.ge": _entry(ge=25),
    "PrefixListEntry.le": _entry(le=23),
}

CONFIG_CLASSES = _dataclasses_below(DeviceConfig)
CONFIG_FIELDS = [
    f"{cls.__name__}.{spec.name}" for cls in CONFIG_CLASSES for spec in dataclasses.fields(cls)
]


def _fingerprints(network):
    """The PEC address ranges and the set of base fingerprints."""
    plankton = Plankton(network, PlanktonOptions())
    ranges = [(pec.address_range.low, pec.address_range.high) for pec in plankton.pecs]
    values = pec_base_fingerprints(network, plankton.pecs, plankton.dependency_graph).values()
    return ranges, set(values)


class TestConstructCoverage:
    """Every config field is read by both views of a configuration: the
    delta and the PEC fingerprints.  A newly declared field fails here until
    it has an edit below (or is a dict key)."""

    def test_the_walk_reaches_every_config_construct(self):
        assert {cls.__name__ for cls in CONFIG_CLASSES} == {
            "DeviceConfig", "StaticRoute", "OspfConfig", "OspfInterface", "BgpConfig",
            "BgpNeighbor", "RouteMap", "RouteMapClause", "MatchConditions", "SetActions",
            "PrefixList", "PrefixListEntry",
        }

    def test_every_field_has_an_edit_or_is_a_dict_key(self):
        assert set(CONFIG_FIELDS) - DICT_KEYS == set(CONSTRUCT_EDITS)

    @pytest.mark.parametrize("field_name", sorted(set(CONFIG_FIELDS) - DICT_KEYS))
    def test_a_one_field_edit_shows_in_the_delta_and_the_fingerprints(self, field_name):
        base = _construct_network()
        edited = copy.deepcopy(base)
        CONSTRUCT_EDITS[field_name](edited)
        assert not diff_networks(base, edited).is_empty
        (base_ranges, base_values), (ranges, values) = _fingerprints(base), _fingerprints(edited)
        assert ranges == base_ranges, "the edit moved the PEC partition"
        assert values != base_values


# --------------------------------------------------------------------------- cache
# (document round trips: tests/property/test_result_schema.py)
class TestResultCache:
    def test_disk_round_trip_and_torn_file_tolerance(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("abc", {"kind": "verify", "pec_index": 0, "tasks": []})
        cache.save()
        reloaded = ResultCache(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.lookup("abc")["pec_index"] == 0
        assert reloaded.hits == 1
        # A corrupted file loads as empty rather than raising.
        (tmp_path / ResultCache.FILENAME).write_text("{not json")
        assert ResultCache(tmp_path)._entries == {}

    def test_the_layout_pin_names_the_schema_version(self):
        """The field layout of what an entry stores and of what a fingerprint
        hashes is recorded beside ``CACHE_SCHEMA_VERSION``: a layout change
        must bump the version (old entries would misdecode, old keys would
        be unreachable) and record the new digest."""
        from repro.modelcheck.trail import DOCUMENT_CLASSES

        # Every module imported, so every @document class is registered.
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith("__main__"):
                importlib.import_module(module.name)
        # The request-level results and their error records: the cache
        # stores a PEC's finished tasks, never these.
        never_stored = {
            "VerificationResult", "TransientCampaignResult", "IncrementalRunStats", "TaskFailure",
        }
        stored = [cls for cls in DOCUMENT_CLASSES if cls.__name__ not in never_stored]
        assert len(stored) == len(DOCUMENT_CLASSES) - len(never_stored)
        layout = sorted(
            (cls.__name__, tuple(spec.name for spec in dataclasses.fields(cls)))
            for cls in stored + CONFIG_CLASSES
        )
        digest = hashlib.sha256(repr(layout).encode("utf-8")).hexdigest()
        assert digest == CACHE_LAYOUT_SHA256, (
            f"the cached or fingerprinted field layout changed: bump "
            f"CACHE_SCHEMA_VERSION (now {CACHE_SCHEMA_VERSION}) and record {digest}"
        )

    def test_schema_version_mismatch_discards_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("abc", {"kind": "verify"})
        path = cache.save()
        document = json.loads(path.read_text())
        document["schema_version"] = -1
        path.write_text(json.dumps(document))
        assert len(ResultCache(tmp_path)) == 0


# --------------------------------------------------------------------------- service
class TestIncrementalVerifier:
    def test_an_undefined_prefix_list_is_refused_up_front(self):
        """The fingerprints test every clause of a session's map, so a
        dangling prefix-list name is refused when the configuration is
        installed, with the validation message, not mid-fingerprint — by
        the cold entry and the warm one alike."""
        dangling = _construct_network()
        _match(dangling).prefix_list = "NOWHERE"
        with pytest.raises(ConfigError, match="undefined prefix-list 'NOWHERE'"):
            Plankton(dangling)
        with pytest.raises(ConfigError, match="undefined prefix-list 'NOWHERE'"):
            IncrementalVerifier(dangling)
        service = IncrementalVerifier(_construct_network())
        with pytest.raises(ConfigError, match="undefined prefix-list 'NOWHERE'"):
            service.update(dangling)

    def test_warm_reverify_hits_every_pec(self, monkeypatch):
        network = fat_tree_network()
        service = IncrementalVerifier(network, PlanktonOptions())
        cold = service.verify(LoopFreedom())
        # An all-hit request never constructs a backend (or a pool).
        monkeypatch.setattr(
            "repro.engine.backends.select_backend",
            lambda *args: pytest.fail("an all-hit verify selected a backend"),
        )
        warm = service.verify(LoopFreedom())
        assert result_signature(cold) == result_signature(warm)
        assert warm.incremental.pecs_from_cache == warm.incremental.pecs_total
        assert warm.incremental.tasks_recomputed == 0

    def test_route_map_edit_recomputes_only_covering_pecs(self):
        network = fat_tree_network()
        service = IncrementalVerifier(network, PlanktonOptions())
        service.verify(LoopFreedom())
        edited = edit_route_map(network)
        delta = service.update(edited)
        assert not delta.is_empty
        result = service.verify(LoopFreedom())
        assert result.incremental.pecs_recomputed < result.incremental.pecs_total
        cold = Plankton(edited, PlanktonOptions()).verify(LoopFreedom())
        assert result_signature(result) == result_signature(cold)

    def test_stop_at_first_violation_matches_cold_run(self):
        from repro.config.builder import install_loop_inducing_statics
        from repro.topology import fat_tree
        from repro.config.builder import ospf_everywhere

        network = ospf_everywhere(fat_tree(2))
        service = IncrementalVerifier(network, PlanktonOptions())
        service.verify(LoopFreedom())
        edited = copy.deepcopy(network)
        install_loop_inducing_statics(edited, Prefix("10.0.0.0/24"), ["agg0_0", "core0"])
        service.update(edited)
        incremental = service.verify(LoopFreedom())
        cold = Plankton(edited, PlanktonOptions()).verify(LoopFreedom())
        assert not incremental.holds
        assert result_signature(incremental) == result_signature(cold)

    def test_different_policy_never_reuses_entries(self):
        network = fat_tree_network()
        service = IncrementalVerifier(network, PlanktonOptions())
        service.verify(LoopFreedom())
        result = service.verify(Reachability())
        assert result.incremental.pecs_from_cache == 0
        cold = Plankton(network, PlanktonOptions()).verify(Reachability())
        assert result_signature(result) == result_signature(cold)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_dependent_pecs_reuse_cached_upstream_planes(self, backend, monkeypatch):
        topology = ring(5)
        network = ibgp_over_ospf(topology, {"r0": Prefix("200.0.0.0/24")})
        policy = Reachability(sources=["r2"], destination_prefix=Prefix("200.0.0.0/24"))
        # Edit a static route covering only the external prefix: the
        # loopback PECs stay clean, so the dirty external PEC must consume
        # the *cached* loopback data planes.
        edited = copy.deepcopy(network)
        edited.device("r2").static_routes.append(
            StaticRoute(prefix=Prefix("200.0.0.0/24"), next_hop_node="r1", distance=250)
        )
        cold = Plankton(edited, PlanktonOptions(max_failures=1)).verify(policy)
        if backend == "process":
            # The pool ships cached upstream planes like fresh ones: no
            # part of the run may be handed to the serial backend.
            from repro.engine import SerialBackend

            monkeypatch.setattr(
                SerialBackend,
                "execute",
                lambda *args: pytest.fail("a process-backend run executed serially"),
            )
        service = IncrementalVerifier(network, PlanktonOptions(max_failures=1, backend=backend))
        service.verify(policy)
        service.update(edited)
        result = service.verify(policy)
        assert result.incremental.pecs_from_cache > 0
        assert result.incremental.pecs_recomputed > 0
        assert result_signature(result) == result_signature(cold)

    def test_campaign_over_many_pecs_is_one_engine_run(self, monkeypatch):
        """One graph, one backend execution for all dirty PECs of a campaign
        — and the result is the cold campaign's."""
        from repro.engine import SerialBackend

        network = ebgp_rfc7938(bgp_fat_tree(4))
        options = PlanktonOptions(max_failures=1)
        service = IncrementalVerifier(network, options)
        transient = TransientOptions(max_states=40, max_depth=3, stop_at_first_violation=False)
        prop = [TransientLoopFreedom(ignore_converged=True)]
        bgp_pecs = [pec for pec in service.plankton.pecs if pec.has_bgp()]
        assert len(bgp_pecs) >= 3
        service.verify_transients(prop, transient=transient, pecs=bgp_pecs[:1])

        executions = []
        execute = SerialBackend.execute
        monkeypatch.setattr(
            SerialBackend,
            "execute",
            lambda self, *args: (executions.append(self), execute(self, *args))[1],
        )
        campaign = service.verify_transients(prop, transient=transient)
        assert len(executions) == 1
        assert campaign.incremental.pecs_from_cache == 1
        assert campaign.incremental.pecs_recomputed == len(bgp_pecs) - 1
        monkeypatch.undo()

        cold = Plankton(network, options).verify_transients(prop, transient=transient)
        assert result_signature(campaign) == result_signature(cold)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("request_kind", ["explicit", "enumerated", "flap"])
    def test_a_cold_campaign_equals_the_incremental_one(self, backend, request_kind):
        """``Plankton.verify_transients`` and the incremental service's
        first run of the same campaign give one result on either backend:
        the eBGP k=4 fabric under <= 1 failure, with explicit crash and
        maintenance scenarios, with enumerated one-event scenarios, and
        with a session flap as the initial events."""
        from repro.serve.specs import scenario_from_spec
        from repro.transient import Converge, FailSession

        network = ebgp_rfc7938(bgp_fat_tree(4))
        options = PlanktonOptions(
            max_failures=1, backend=backend, cores=2 if backend == "process" else 1
        )
        transient = TransientOptions(max_states=30, max_depth=3, stop_at_first_violation=False)
        request = {"transient": transient}
        if request_kind == "explicit":
            request["scenarios"] = [
                scenario_from_spec(spec, network) for spec in ("crash:agg0_0", "maintenance:edge0_0")
            ]
        elif request_kind == "enumerated":
            request["transient"] = dataclasses.replace(transient, scenario_events=1)
        else:
            request["initial_events"] = [Converge(), FailSession("edge0_0", "agg0_0")]
        prop = [TransientLoopFreedom(ignore_converged=True)]
        cold = Plankton(network, options).verify_transients(prop, **request)
        warm = IncrementalVerifier(network, options).verify_transients(prop, **request)
        assert cold.runs and cold.failure_scenarios > 1
        assert (cold.event_scenarios > 1) == (request_kind != "flap")
        assert result_signature(cold) == result_signature(warm)

    def test_transient_campaigns_cache_and_match(self):
        network = fat_tree_network()
        service = IncrementalVerifier(network, PlanktonOptions())
        options = TransientOptions(max_states=200, stop_at_first_violation=False)
        prop = [TransientLoopFreedom(ignore_converged=True)]
        cold = service.verify_transients(prop, transient=options)
        warm = service.verify_transients(prop, transient=options)
        assert result_signature(cold) == result_signature(warm)
        assert warm.incremental.pecs_from_cache == warm.incremental.pecs_total
        # A route-map edit re-runs only the covering PEC.
        edited = edit_route_map(network)
        service.update(edited)
        after = service.verify_transients(prop, transient=options)
        assert 0 < after.incremental.pecs_recomputed < after.incremental.pecs_total

    def test_reporting_includes_cache_accounting(self):
        from repro.reporting import render_markdown, result_to_dict

        network = fat_tree_network()
        service = IncrementalVerifier(network, PlanktonOptions())
        result = service.verify(LoopFreedom())
        document = result_to_dict(result)
        assert document["incremental"]["pecs_recomputed"] == result.incremental.pecs_total
        markdown = render_markdown(result)
        assert "PECs served from cache" in markdown


# --------------------------------------------------------------------------- request memo
class TestRequestMemo:
    """What a request expands to is kept on the ``Plankton`` it was worked
    out against, keyed by the policies' canonical tokens."""

    @staticmethod
    def _sources(network, count=2):
        return sorted(name for name in network.topology.nodes if name.startswith("edge"))[:count]

    def test_equal_names_with_different_sources_do_not_share_an_expansion(self):
        network = fat_tree_network()
        first_source, second_source = self._sources(network)
        one, other = Reachability(sources=[first_source]), Reachability(sources=[second_source])
        assert one.name == other.name
        options = PlanktonOptions(max_failures=1)
        service = IncrementalVerifier(network, options)
        for policy in (one, other, one, Reachability(sources=[first_source])):
            warm = service.verify(policy)
            cold = Plankton(network, options).verify(policy)
            assert result_signature(warm) == result_signature(cold)
        # Two expansions: the third and fourth requests found the first's.
        assert len(service.plankton.request_memo) == 2

    def test_a_new_configuration_or_new_options_start_with_an_empty_memo(self):
        network = fat_tree_network()
        service = IncrementalVerifier(network, PlanktonOptions())
        service.verify(LoopFreedom())
        generation = service.plankton
        assert len(generation.request_memo) == 1
        service.update(network)  # the session's own object again: same generation
        assert service.plankton is generation and service.last_delta.is_empty
        service.update(copy.deepcopy(network))  # an equal copy is a new object: new generation
        assert service.plankton is not generation and service.plankton.request_memo == {}
        assert service.with_options(PlanktonOptions(max_failures=1)).plankton.request_memo == {}

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.incremental.service.REQUEST_MEMO_LIMIT", 2)
        network = fat_tree_network()
        service = IncrementalVerifier(network, PlanktonOptions())
        for source in self._sources(network, count=4):
            service.verify(Reachability(sources=[source]))
        assert len(service.plankton.request_memo) == 2


# --------------------------------------------------------------------------- warm restart
class TestWarmRestart:
    def test_cache_survives_service_restart_in_process(self, tmp_path):
        network = fat_tree_network()
        first = IncrementalVerifier(network, PlanktonOptions(), cache_dir=tmp_path)
        cold = first.verify(LoopFreedom())
        second = IncrementalVerifier(
            fat_tree_network(), PlanktonOptions(), cache_dir=tmp_path
        )
        warm = second.verify(LoopFreedom())
        assert result_signature(cold) == result_signature(warm)
        assert warm.incremental.pecs_from_cache == warm.incremental.pecs_total

    def test_cache_survives_a_genuinely_fresh_process(self, tmp_path):
        """Acceptance: persist, reload in a *fresh process*, hit warm."""
        topo = tmp_path / "net.topo"
        config = tmp_path / "net.cfg"
        topo.write_text(
            "topology tri\n"
            "node r1 role edge\nnode r2 role core\nnode r3 role core\n"
            "link r1 r2 weight 10\nlink r2 r3 weight 10\nlink r1 r3 weight 10\n"
        )
        config.write_text(
            "device r1\n  ospf\n    network 10.0.1.0/24\n"
            "device r2\n  ospf\ndevice r3\n  ospf\n"
        )
        cache_dir = tmp_path / "cache"
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        command = [
            sys.executable, "-m", "repro", "verify",
            "--topology", str(topo), "--config", str(config),
            "--policy", "loop", "--cache-dir", str(cache_dir), "--json",
        ]
        first = subprocess.run(command, capture_output=True, text=True, env=env)
        assert first.returncode == 0, first.stderr
        second = subprocess.run(command, capture_output=True, text=True, env=env)
        assert second.returncode == 0, second.stderr
        cold = json.loads(first.stdout)
        warm = json.loads(second.stdout)
        assert warm["incremental"]["pecs_from_cache"] == warm["incremental"]["pecs_total"] > 0
        assert warm["incremental"]["tasks_recomputed"] == 0
        for key in ("holds", "pecs_analyzed", "converged_states", "states_expanded", "violations"):
            assert cold[key] == warm[key]


class TestPrefixListFingerprintSoundness:
    """A referenced prefix-list edit that flips matchability for only ONE of
    a multi-prefix PEC's prefixes must still change the fingerprint (the
    clause body and its any-prefix matchability are unchanged)."""

    @staticmethod
    def _network(le_bound):
        network = fat_tree_network()
        edge = network.device("edge0_0")
        # A second, broader announcement nests the rack /24 inside a /16, so
        # one PEC carries two contributing prefixes (/24 most specific).
        edge.bgp.networks.append(Prefix("10.0.0.0/16"))
        agg = network.device("agg0_0")
        agg.prefix_lists["PL"] = add_entry(
            PrefixList(name="PL"), Prefix("10.0.0.0/16"), ge=16, le=le_bound
        )
        agg.route_maps["FROM_EDGE"] = RouteMap(
            name="FROM_EDGE",
            clauses=[
                RouteMapClause(
                    sequence=10,
                    permit=True,
                    match=MatchConditions(prefix_list="PL"),
                    actions=SetActions(local_preference=150),
                )
            ],
        )
        agg.bgp.neighbor("edge0_0").import_map = "FROM_EDGE"
        return network

    def test_per_prefix_matchability_is_in_the_fingerprint(self):
        # le=24 permits both /16 and /24; le=16 permits only /16 — the
        # clause still can-match the PEC (via /16), but its behaviour for
        # the /24 advertisements changed.
        before = self._network(24)
        after = self._network(16)
        p1 = Plankton(before, PlanktonOptions())
        p2 = Plankton(after, PlanktonOptions())
        f1 = pec_base_fingerprints(before, p1.pecs, p1.dependency_graph)
        f2 = pec_base_fingerprints(after, p2.pecs, p2.dependency_graph)
        nested = next(
            pec for pec in p1.pecs if len(pec.prefixes) == 2
        )
        assert f1[nested.index] != f2[nested.index]

    def test_warm_restart_does_not_serve_stale_results(self, tmp_path):
        """End-to-end: a fresh service over the same cache directory (no
        update() call, so no impact belt) must recompute, not hit."""
        policy = Reachability()
        options = PlanktonOptions(stop_at_first_violation=False)
        first = IncrementalVerifier(self._network(24), options, cache_dir=tmp_path)
        first.verify(policy)
        second = IncrementalVerifier(self._network(16), options, cache_dir=tmp_path)
        result = second.verify(policy)
        cold = Plankton(self._network(16), options).verify(policy)
        assert result_signature(result) == result_signature(cold)


class TestImpactPendingConsumption:
    def test_pending_pecs_survive_until_actually_recached(self):
        """An impact-dirty PEC whose recompute never lands in the cache
        (early stop) is still forced dirty on the next verify."""
        from repro.config.builder import install_loop_inducing_statics, ospf_everywhere
        from repro.topology import fat_tree

        network = ospf_everywhere(fat_tree(2))
        service = IncrementalVerifier(network, PlanktonOptions())
        service.verify(LoopFreedom())
        # The edit makes the 10.0.0.0/24 PEC violate; with stop-at-first the
        # 10.1.0.0/24 PEC (later in task order) is merged/stored only if it
        # was reached.  Whatever was not cached must stay impact-pending.
        edited = copy.deepcopy(network)
        install_loop_inducing_statics(edited, Prefix("10.0.0.0/24"), ["agg0_0", "core0"])
        service.update(edited)
        pending_before = set(service._impact_pending["verify"])
        assert pending_before
        service.verify(LoopFreedom())
        pending_after = set(service._impact_pending["verify"])
        cached = pending_before - pending_after
        # Consumed exactly the PECs that got fresh cache entries.
        for pec_index in pending_after:
            assert pec_index in pending_before
        assert cached <= pending_before


class TestReviewRegressions:
    def test_consecutive_updates_union_the_pending_sets(self):
        network = fat_tree_network()
        service = IncrementalVerifier(network, PlanktonOptions())
        service.verify(LoopFreedom())
        first_edit = edit_route_map(network, device="edge0_0")
        service.update(first_edit)
        pending_first = set(service._impact_pending["verify"])
        second_edit = edit_route_map(first_edit, device="edge1_0")
        service.update(second_edit)
        assert pending_first <= service._impact_pending["verify"]

    def test_cached_violation_trims_dirty_work_under_early_stop(self):
        from repro.config.builder import install_loop_inducing_statics, ospf_everywhere
        from repro.topology import fat_tree

        network = ospf_everywhere(fat_tree(2))
        install_loop_inducing_statics(network, Prefix("10.0.0.0/24"), ["agg0_0", "core0"])
        service = IncrementalVerifier(network, PlanktonOptions())
        service.verify(LoopFreedom())
        # Dirty a PEC that sits *after* the cached violation in task order:
        # the cold run would stop before reaching it, so the incremental
        # run must not recompute it either.
        edited = copy.deepcopy(network)
        edited.device("edge1_0").ospf.networks.append(Prefix("10.50.0.0/24"))
        service.update(edited)
        result = service.verify(LoopFreedom())
        cold = Plankton(edited, PlanktonOptions()).verify(LoopFreedom())
        assert result_signature(result) == result_signature(cold)
        assert result.incremental.tasks_recomputed == 0

    def test_transient_json_with_no_bgp_pecs_is_valid_json(self, tmp_path, capsys):
        from repro.cli import EXIT_ERROR, main

        topo = tmp_path / "net.topo"
        config = tmp_path / "net.cfg"
        topo.write_text(
            "topology tri\nnode r1 role edge\nnode r2 role core\n"
            "link r1 r2 weight 10\n"
        )
        config.write_text("device r1\n  ospf\n    network 10.0.1.0/24\ndevice r2\n  ospf\n")
        report = tmp_path / "empty.md"
        code = main([
            "transient", "--topology", str(topo), "--config", str(config),
            "--json", "--report", str(report),
        ])
        # Nothing was searched: no violation, and nothing shown to hold.
        assert code == EXIT_ERROR
        document = json.loads(capsys.readouterr().out)
        assert document["holds"] is True and document["runs"] == []
        assert document["verdict"] == "inconclusive"
        assert report.exists()

    @staticmethod
    def _crash_campaign(service, pec, scenario):
        return service.verify_transients(
            [TransientLoopFreedom(ignore_converged=True)],
            transient=TransientOptions(max_depth=4, stop_at_first_violation=False),
            scenarios=[scenario],
            pecs=[pec],
        )

    def test_transient_cache_keys_a_scenario_by_its_events_not_its_name(self):
        """Two scenarios under one name used to share a cache entry: the
        campaign key held each scenario's description alone, so a warm
        cache answered the crash of ``agg0_0`` (violated) with the crash of
        ``agg2_1`` (holds)."""
        from repro.scenarios import Converge, NodeCrash, Scenario

        network = ebgp_rfc7938(bgp_fat_tree(4))
        pec = next(pec for pec in Plankton(network).pecs if pec.has_bgp())

        def crash(node):
            return Scenario((Converge(), NodeCrash(node)), name="maint")

        cold = {
            node: self._crash_campaign(IncrementalVerifier(network), pec, crash(node))
            for node in ("agg0_0", "agg2_1")
        }
        assert [len(cold["agg0_0"].violations), cold["agg0_0"].runs[0].result.states_explored] == [1, 55]
        assert cold["agg2_1"].holds and cold["agg2_1"].runs[0].result.states_explored == 5

        service = IncrementalVerifier(network)
        self._crash_campaign(service, pec, crash("agg2_1"))
        warm = self._crash_campaign(service, pec, crash("agg0_0"))
        assert warm.incremental.pecs_from_cache == 0
        assert result_signature(warm) == result_signature(cold["agg0_0"])

    def test_transient_cache_keys_a_maintenance_by_its_settle_budget(self):
        """Two scenarios under one name that differ only in the settle
        budget of their inner ``Converge`` are two keys."""
        from repro.scenarios import Converge, MaintenanceDrain, ReturnToService, Scenario

        def maintenance(max_steps):
            drain, back = MaintenanceDrain("agg0_0"), ReturnToService("agg0_0")
            return Scenario(
                (Converge(), drain, Converge(max_steps), back), name="maintenance agg0_0"
            )

        network = ebgp_rfc7938(bgp_fat_tree(4))
        pec = next(pec for pec in Plankton(network).pecs if pec.has_bgp())
        service = IncrementalVerifier(network)
        self._crash_campaign(service, pec, maintenance(100_000))
        again = self._crash_campaign(service, pec, maintenance(100_000))
        assert again.incremental.pecs_from_cache == 1
        other = self._crash_campaign(service, pec, maintenance(5))
        assert other.incremental.pecs_from_cache == 0
