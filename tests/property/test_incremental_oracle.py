"""Randomized oracle for the incremental re-verification service.

Acceptance contract (ISSUE 5): on random configuration-edit sequences
(link/session flaps, filter edits, prefix announce/withdraw) over fat-tree
and gadget topologies, :class:`repro.incremental.IncrementalVerifier` must
produce verdicts, violated-PEC sets and counterexamples **bit-identical**
(modulo wall-clock fields) to a cold ``Plankton.verify`` of the same
configuration after every edit — and the impact analysis must be *sound*:
a PEC is never served from cache when the cold run's result for it changed.

The edit model rebuilds the whole :class:`NetworkConfig` from a mutable
*spec* on every step, so link flaps (a topology rebuild) and config edits
go through exactly the code path a configuration-push service would use.

Three scenario families cover the interesting regimes:

* **ospf-static** — OSPF everywhere on a fat tree with random static
  routes (including loop-inducing pairs, so the stop-at-first-violation
  merge path is exercised), link flaps, prefix announce/withdraw, and
  interface cost overrides and passive interfaces;
* **ebgp** — the RFC 7938 eBGP fat tree with route-map edits, session
  flaps, announce/withdraw (filters + BGP exploration), prefix-list
  entries a deny clause reads, the BGP process's default local
  preference, and import maps set on a live session;
* **ibgp** — iBGP over OSPF on a ring under a one-failure environment
  (cross-PEC dependencies: cached upstream data planes feed dirty
  dependents).
"""

import random

import pytest

from repro.config import ebgp_rfc7938, ibgp_over_ospf
from repro.config.builder import ConfigBuilder, edge_prefix
from repro.config.objects import (
    MatchConditions,
    OspfInterface,
    PrefixList,
    RouteMap,
    RouteMapClause,
    SetActions,
    StaticRoute,
)
from repro.core.options import PlanktonOptions
from repro.core.verifier import Plankton
from repro.incremental import IncrementalVerifier, result_signature
from repro.incremental.service import SIGNATURE_EXCLUDED
from repro.netaddr import Prefix
from repro.policies import LoopFreedom, Reachability
from repro.topology import Topology, bgp_fat_tree, fat_tree
from tests.helpers import add_entry

#: seeds per family; 3 families x 18 seeds = 54 sequences (floor: 50).
SEEDS = range(18)
EDITS_PER_SEQUENCE = 3


# --------------------------------------------------------------------------- spec -> network
def _build_topology(base: Topology, removed_links) -> Topology:
    """``base`` minus the links whose endpoint pairs are in ``removed_links``."""
    rebuilt = Topology(base.name)
    for name in base.nodes:
        node = base.node(name)
        rebuilt.add_node(name, role=node.role, **node.attributes)
        rebuilt.node(name).loopback = node.loopback
    for link in base.links:
        key = tuple(sorted((link.a, link.b)))
        if key in removed_links:
            continue
        rebuilt.add_link(link.a, link.b, weight=link.weight_ab)
    return rebuilt


class OspfStaticFamily:
    """OSPF fat tree (k=2) + random statics, link flaps, announcements,
    interface costs and passive interfaces."""

    policy = LoopFreedom()
    options_kwargs = {}

    def __init__(self) -> None:
        base = fat_tree(2)
        self.nodes = list(base.nodes)
        self.adjacent = [tuple(sorted((l.a, l.b))) for l in base.links]
        self.spec = {
            "removed_links": set(),
            "statics": set(),       # (device, prefix str, next_hop)
            "extra_networks": set(),  # (device, prefix str)
            "costs": {},            # (device, neighbour) -> OSPF cost override
            "passive": set(),       # (device, neighbour)
        }

    def build(self):
        base = fat_tree(2)
        topology = _build_topology(base, self.spec["removed_links"])
        builder = ConfigBuilder(topology)
        for name in topology.nodes:
            node = topology.node(name)
            networks = []
            if node.role == "edge":
                networks.append(edge_prefix(int(node.attributes["pod"]), int(node.attributes["index"])))
            builder.enable_ospf(name, networks)
        for device, prefix, next_hop in sorted(self.spec["statics"]):
            if not topology.links_between(device, next_hop):
                continue  # the link underneath was flapped away
            builder.device(device).static_routes.append(
                StaticRoute(prefix=Prefix(prefix), next_hop_node=next_hop)
            )
        for device, prefix in sorted(self.spec["extra_networks"]):
            builder.device(device).ospf.networks.append(Prefix(prefix))
        for device, neighbor in sorted(set(self.spec["costs"]) | self.spec["passive"]):
            builder.device(device).ospf.interfaces[neighbor] = OspfInterface(
                neighbor=neighbor,
                cost=self.spec["costs"].get((device, neighbor)),
                passive=(device, neighbor) in self.spec["passive"],
            )
        return builder.build(validate=False)

    def _interface(self, rng: random.Random):
        a, b = rng.choice(self.adjacent)
        return (a, b) if rng.random() < 0.5 else (b, a)

    def edit(self, rng: random.Random) -> None:
        kind = rng.choice(["link", "static", "announce", "cost", "passive"])
        if kind == "link":
            candidate = rng.choice(self.adjacent)
            removed = self.spec["removed_links"]
            if candidate in removed:
                removed.discard(candidate)
            elif len(removed) < len(self.adjacent) - 4:
                removed.add(candidate)
        elif kind == "static":
            a, b = rng.choice(self.adjacent)
            if rng.random() < 0.5:
                a, b = b, a
            entry = (a, "10.0.0.0/24" if rng.random() < 0.7 else "10.1.0.0/24", b)
            statics = self.spec["statics"]
            if entry in statics:
                statics.discard(entry)
            else:
                statics.add(entry)
        elif kind == "announce":
            entry = (rng.choice(self.nodes), f"10.20.{rng.randrange(4)}.0/24")
            networks = self.spec["extra_networks"]
            if entry in networks:
                networks.discard(entry)
            else:
                networks.add(entry)
        elif kind == "cost":
            interface = self._interface(rng)
            costs = self.spec["costs"]
            if interface in costs and rng.random() < 0.5:
                del costs[interface]
            else:
                costs[interface] = rng.choice([1, 5, 30])
        else:
            interface = self._interface(rng)
            passive = self.spec["passive"]
            if interface in passive:
                passive.discard(interface)
            else:
                passive.add(interface)


class EbgpFamily:
    """eBGP fat tree (k=2): route-map edits, session flaps, announcements,
    prefix lists, process settings and session import maps."""

    policy = Reachability()
    options_kwargs = {"stop_at_first_violation": False}

    def __init__(self) -> None:
        base = bgp_fat_tree(2)
        self.edges = [n for n in base.nodes if base.node(n).role == "edge"]
        self.sessions = [
            tuple(sorted((l.a, l.b)))
            for l in base.links
            if {base.node(l.a).role, base.node(l.b).role} in ({"edge", "aggregation"}, {"aggregation", "core"})
        ]
        self.spec = {
            "map_meds": {},           # edge device -> med value appended to EXPORT_OWN
            "removed_sessions": set(),
            "extra_networks": set(),  # (edge device, prefix str)
            # edge device -> whether its prefix list OWN permits its own
            # prefix; EXPORT_OWN's deny clause 5 matches the list.
            "own_lists": {},
            "local_prefs": {},        # device -> BGP default local preference
            "import_maps": {},        # (device, peer) -> local preference set on import
        }
        self.nodes = list(base.nodes)

    def build(self):
        network = ebgp_rfc7938(bgp_fat_tree(2))
        for device, med in sorted(self.spec["map_meds"].items()):
            route_map = network.device(device).route_maps["EXPORT_OWN"]
            own = route_map.clauses[0].match.prefixes[0]
            route_map.add_clause(
                RouteMapClause(
                    sequence=20,
                    permit=True,
                    match=MatchConditions(prefixes=[own]),
                    actions=SetActions(med=med),
                )
            )
        for a, b in sorted(self.spec["removed_sessions"]):
            network.device(a).bgp.neighbors = [
                n for n in network.device(a).bgp.neighbors if n.peer != b
            ]
            network.device(b).bgp.neighbors = [
                n for n in network.device(b).bgp.neighbors if n.peer != a
            ]
        for device, prefix in sorted(self.spec["extra_networks"]):
            network.device(device).bgp.networks.append(Prefix(prefix))
        for device, permit in sorted(self.spec["own_lists"].items()):
            config = network.device(device)
            own = config.route_maps["EXPORT_OWN"].clauses[0].match.prefixes[0]
            config.prefix_lists["OWN"] = add_entry(PrefixList("OWN"), own, permit=permit)
            config.route_maps["EXPORT_OWN"].add_clause(
                RouteMapClause(sequence=5, permit=False, match=MatchConditions(prefix_list="OWN"))
            )
        for device, local_pref in sorted(self.spec["local_prefs"].items()):
            network.device(device).bgp.default_local_pref = local_pref
        for (device, peer), local_pref in sorted(self.spec["import_maps"].items()):
            config = network.device(device)
            session = config.bgp.neighbor(peer)
            if session is None:
                continue  # the session was flapped away
            name = f"FROM_{peer}"
            config.route_maps[name] = RouteMap(
                name,
                [RouteMapClause(sequence=10, actions=SetActions(local_preference=local_pref))],
            )
            session.import_map = name
        return network

    def edit(self, rng: random.Random) -> None:
        kind = rng.choice(
            ["filter", "session", "announce", "prefix-list", "setting", "attribute"]
        )
        if kind == "filter":
            device = rng.choice(self.edges)
            meds = self.spec["map_meds"]
            if device in meds:
                del meds[device]
            else:
                meds[device] = rng.randrange(1, 9)
        elif kind == "session":
            session = rng.choice(self.sessions)
            removed = self.spec["removed_sessions"]
            if session in removed:
                removed.discard(session)
            elif len(removed) < 2:
                removed.add(session)
        elif kind == "announce":
            entry = (rng.choice(self.edges), f"10.30.{rng.randrange(3)}.0/24")
            networks = self.spec["extra_networks"]
            if entry in networks:
                networks.discard(entry)
            else:
                networks.add(entry)
        elif kind == "prefix-list":
            # Flipping the entry edits the prefix list alone: the clause
            # that reads it stays.
            device = rng.choice(self.edges)
            lists = self.spec["own_lists"]
            if device in lists and rng.random() < 0.3:
                del lists[device]
            else:
                lists[device] = not lists.get(device, True)
        elif kind == "setting":
            device = rng.choice(self.nodes)
            prefs = self.spec["local_prefs"]
            if device in prefs:
                del prefs[device]
            else:
                prefs[device] = rng.choice([50, 150])
        else:
            a, b = rng.choice(self.sessions)
            session = (a, b) if rng.random() < 0.5 else (b, a)
            maps = self.spec["import_maps"]
            if session in maps:
                del maps[session]
            else:
                maps[session] = rng.choice([50, 200])


class IbgpFamily:
    """iBGP over OSPF on a ring, one-failure environment (dependent PECs)."""

    policy = Reachability(sources=["r2"])
    options_kwargs = {"max_failures": 1}

    def __init__(self) -> None:
        self.spec = {
            "externals": {"r0": "200.0.0.0/24"},   # device -> prefix str
            "statics": set(),                      # (device, prefix str, next_hop)
        }

    def build(self):
        from repro.topology.generators import ring

        topology = ring(4)
        externals = {
            device: Prefix(prefix) for device, prefix in sorted(self.spec["externals"].items())
        }
        network = ibgp_over_ospf(topology, externals)
        for device, prefix, next_hop in sorted(self.spec["statics"]):
            network.device(device).static_routes.append(
                StaticRoute(prefix=Prefix(prefix), next_hop_node=next_hop, distance=250)
            )
        return network

    def edit(self, rng: random.Random) -> None:
        kind = rng.choice(["announce", "static"])
        if kind == "announce":
            device = rng.choice(["r1", "r3"])
            externals = self.spec["externals"]
            if device in externals:
                del externals[device]
            else:
                externals[device] = f"200.{device[1]}.0.0/24"
        else:
            index = rng.randrange(4)
            entry = (f"r{index}", "200.0.0.0/24", f"r{(index + 1) % 4}")
            statics = self.spec["statics"]
            if entry in statics:
                statics.discard(entry)
            else:
                statics.add(entry)


FAMILIES = [OspfStaticFamily, EbgpFamily, IbgpFamily]


def _runs_by_pec(result):
    grouped = {}
    for run in result.pec_runs:
        grouped.setdefault(run.pec_index, []).append(run.to_dict(SIGNATURE_EXCLUDED))
    return grouped


@pytest.mark.parametrize("family_class", FAMILIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("seed", SEEDS)
def test_incremental_matches_cold_verify_on_random_edits(family_class, seed):
    """Verdicts, violated-PEC sets, counterexamples and per-PEC statistics
    are bit-identical to a cold verify after every random edit, and no PEC
    whose cold result changed is ever served from cache."""
    rng = random.Random(f"{family_class.__name__}-{seed}")
    family = family_class()
    options = PlanktonOptions(**family.options_kwargs)
    policy = family.policy

    network = family.build()
    service = IncrementalVerifier(network, options)
    service.verify(policy)
    previous_cold = Plankton(network, options).verify(policy)

    for _step in range(EDITS_PER_SEQUENCE):
        family.edit(rng)
        edited = family.build()
        service.update(edited)
        incremental = service.verify(policy)
        cold = Plankton(edited, options).verify(policy)

        assert incremental.holds == cold.holds
        assert {v.pec_index for v in incremental.violations} == {
            v.pec_index for v in cold.violations
        }
        assert result_signature(incremental) == result_signature(cold)

        # Impact/fingerprint soundness: every PEC served from cache must
        # have an unchanged cold result.  Under stop-at-first-violation a
        # cold run may truncate mid-PEC, so only the observed portion is
        # comparable; without early stop the match must be exact.
        recomputed = set(incremental.incremental.dirty_pecs)
        cold_by_pec = _runs_by_pec(cold)
        previous_by_pec = _runs_by_pec(previous_cold)
        for pec_index, runs in cold_by_pec.items():
            if pec_index in recomputed or pec_index not in previous_by_pec:
                continue
            expected = previous_by_pec[pec_index]
            if options.stop_at_first_violation:
                shared = min(len(runs), len(expected))
                runs, expected = runs[:shared], expected[:shared]
            assert runs == expected, (
                f"PEC {pec_index} served from cache although its cold "
                f"result changed (seed {seed}, family {family_class.__name__})"
            )
        previous_cold = cold
