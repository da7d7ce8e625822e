"""Derived data planes == planes built from scratch.

``PecExplorer.build_data_plane`` builds the first plane of a task by the
protocol-major install passes over every device and derives every later one
from it: the reference's FIBs, with those of the devices that hold other BGP
routes replaced by FIBs interned per (device, route ids) and built, on a miss,
by the same passes restricted to the missing devices.  A PEC without BGP
derives across tasks instead: a failure task's plane is its failure-free
task's plane with the devices whose SPF entry the failure moved, and every
static-route device, rebuilt.  An explorer over a *fresh* OSPF computation
has no reference yet, so its first plane is the from-scratch build — the
oracle here, for every shape the builder has: one BGP prefix under failures,
two BGP prefixes crossed, iBGP next hops resolved through upstream planes,
static routes that read the device's own BGP entry or share its FIB with one,
and OSPF planes under failures with static loops, drops, recursive and
redistributed statics, cost overrides and anycast origins.  Loop freedom,
which checks a derived plane from the devices it changed (see
``repro.dataplane.forwarding.find_cycle``), must answer on every derived
plane what it answers on the from-scratch build.
"""

import functools
import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import Plankton, PlanktonOptions
from repro.config import ebgp_rfc7938, ibgp_over_ospf, ospf_everywhere
from repro.config.builder import edge_prefix, install_loop_inducing_statics
from repro.config.objects import OspfInterface, StaticRoute
from repro.core.network_model import DependencyContext, PecExplorer
from repro.dataplane import DataPlane, FibEntry, ForwardingGraph, find_cycle
from repro.exceptions import ReproError
from repro.netaddr import Prefix
from repro.policies import LoopFreedom
from repro.policies.base import PolicyCheckContext
from repro.protocols.ospf import OspfComputation, _derive
from repro.topology import bgp_fat_tree, fat_tree, ring
from repro.topology.failures import FailureScenario
from tests.helpers import entry_for

WIDE = Prefix("10.0.0.0/16")
EXTERNAL = Prefix("200.0.0.0/16")


def _explorer(plankton, pec, failure, context=None, ospf_computation=None):
    return PecExplorer(
        plankton.network,
        pec,
        failure,
        plankton.options,
        dependency_context=context or DependencyContext(),
        ospf_computation=ospf_computation or plankton.ospf_computation,
    )


def _scratch(plankton, pec, failure, context=None, bgp_states=None):
    """The from-scratch build: an explorer over a fresh OSPF computation (the
    one a fresh ``Plankton`` would have) holds no reference plane to derive
    from."""
    fresh = OspfComputation(plankton.network)
    return _explorer(plankton, pec, failure, context, fresh).build_data_plane(bgp_states)


def _streamed(explorer, on_outcome=None):
    """``(bgp_states, outcome)`` for every plane of one ``explore()``."""
    handed_in = []
    build = explorer.build_data_plane

    def recording(bgp_states=None):
        handed_in.append(dict(bgp_states or {}))
        return build(bgp_states)

    explorer.build_data_plane = recording  # shadows the method for ``emit``
    outcomes = explorer.explore(on_outcome=on_outcome)
    assert len(handed_in) == len(outcomes)
    return list(zip(handed_in, outcomes))


def _loop_check(plankton, pec, plane):
    context = PolicyCheckContext(network=plankton.network, pec=pec, data_plane=plane)
    return LoopFreedom().check(context)


def _assert_derived_equals_scratch(plankton, pec, failure, context=None):
    streamed = _streamed(_explorer(plankton, pec, failure, context))
    for bgp_states, outcome in streamed:
        plane, control_plane = _scratch(plankton, pec, failure, context, bgp_states)
        assert plane.base is None
        assert outcome.data_plane.to_dict() == plane.to_dict()
        assert outcome.control_plane == control_plane
        assert _loop_check(plankton, pec, outcome.data_plane) == _loop_check(plankton, pec, plane)
        # ... which is every device's route, a longer prefix's over a shorter's.
        routes = {}
        for prefix in sorted(bgp_states, key=lambda prefix: prefix.length):
            routes.update((node, route) for node, route in bgp_states[prefix].items() if route)
        assert list(control_plane.items()) == list(routes.items())
    return [outcome for _bgp_states, outcome in streamed]


def _failures(plankton, extra=()):
    links = [link.link_id for link in plankton.network.topology.links]
    return st.lists(st.sampled_from(links), max_size=2, unique=True).map(
        lambda drawn: FailureScenario.of([*drawn, *extra])
    )


# --------------------------------------------------------------------------- fabrics
@functools.lru_cache(maxsize=None)
def _ebgp():
    return Plankton(ebgp_rfc7938(bgp_fat_tree(4)))


@functools.lru_cache(maxsize=None)
def _two_prefixes():
    """The covering /16 of ``tests/test_core_verifier.py``: one PEC, two BGP
    prefixes; two dead core switches keep the product small."""
    network = ebgp_rfc7938(bgp_fat_tree(4))
    edge = network.device("edge1_0")
    edge.bgp.networks.append(WIDE)
    edge.route_maps["EXPORT_OWN"].clauses[0].match.prefixes.append(WIDE)
    plankton = Plankton(network)
    pec = next(pec for pec in plankton.pecs if len(pec.bgp_origins) == 2)
    dead = [link.link_id for core in ("core2", "core3") for link in network.topology.edges(core)]
    return plankton, pec, dead


@functools.lru_cache(maxsize=None)
def _ibgp():
    """Two iBGP origins of one prefix on an OSPF ring: the routers half-way
    tie, and every iBGP next hop recurses through a loopback PEC's plane."""
    network = ibgp_over_ospf(ring(6), {"r0": EXTERNAL, "r2": EXTERNAL})
    plankton = Plankton(network)
    return plankton, next(pec for pec in plankton.pecs if pec.has_bgp())


@functools.lru_cache(maxsize=None)
def _statics():
    """A rack prefix of the eBGP fabric under a covering static /16 on two
    devices: ``edge0_0``'s is recursive and resolves *inside* the PEC, through
    ``edge0_0``'s own BGP entry (so it moves with the BGP route); ``agg1_0``'s
    names a neighbour and lands behind the BGP entry for the longer prefix
    (the install order ``Fib.to_dict`` records)."""
    network = ebgp_rfc7938(bgp_fat_tree(4))
    rack = edge_prefix(3, 1)
    covering = Prefix("10.3.0.0/16")
    assert covering.contains_prefix(rack)
    network.device("edge0_0").static_routes.append(StaticRoute(prefix=covering, next_hop_ip=rack))
    network.device("agg1_0").static_routes.append(
        StaticRoute(prefix=covering, next_hop_node="core0")
    )
    plankton = Plankton(network)
    pec = next(pec for pec in plankton.pecs if pec.address_range.contains_address(rack.first))
    assert set(pec.prefixes) == {rack, covering}
    return plankton, pec, rack, covering


ANYCAST = Prefix("10.9.0.0/24")
REDISTRIBUTED = Prefix("10.200.0.0/24")


@functools.lru_cache(maxsize=None)
def _ospf_loop():
    """The Fig. 7(a) "fail" fabric: OSPF everywhere, and a static 4-cycle for
    one rack prefix."""
    network = ospf_everywhere(fat_tree(4))
    install_loop_inducing_statics(
        network, edge_prefix(0, 0), ["agg1_0", "edge1_0", "agg1_1", "edge1_1"]
    )
    return network


@functools.lru_cache(maxsize=None)
def _ospf_statics():
    """OSPF everywhere with a drop static for a rack prefix, a recursive
    static for a covering /16 — resolved inside the PEC of ``10.1.1.0/24``
    through ``edge0_0``'s own OSPF entry, and through that PEC's plane from
    the /16's other PECs — and a static that ``core1`` redistributes into
    OSPF, which makes it the origin of a prefix everyone else routes to."""
    network = ospf_everywhere(fat_tree(4))
    network.device("agg2_0").static_routes.append(StaticRoute(edge_prefix(3, 0), drop=True))
    network.device("edge0_0").static_routes.append(
        StaticRoute(Prefix("10.1.0.0/16"), next_hop_ip=edge_prefix(1, 1))
    )
    core = network.device("core1")
    core.static_routes.append(StaticRoute(REDISTRIBUTED, next_hop_node="agg0_0"))
    core.ospf.redistribute_static = True
    return network


@functools.lru_cache(maxsize=None)
def _ospf_anycast_ring():
    """An OSPF ring with one cost override, a unicast prefix and an anycast
    one: a failure that cuts a node off from its anycast origin makes the
    SPF delta path give up and the kernel re-run."""
    network = ospf_everywhere(
        ring(6), prefix_for={"r0": ANYCAST, "r3": ANYCAST, "r5": Prefix("10.5.0.0/24")}
    )
    network.device("r1").ospf.interfaces["r2"] = OspfInterface("r2", cost=3)
    return network


OSPF_FABRICS = {"loop": _ospf_loop, "statics": _ospf_statics, "anycast": _ospf_anycast_ring}


def _context(plankton, pec, failure):
    """The upstream planes of ``pec`` under ``failure``, built from scratch
    (so that the verifier under test keeps the reference it holds).  A PEC
    that depends on itself resolves inside its own plane."""
    context = DependencyContext()
    for index in sorted(plankton.dependency_graph.dependencies_of(pec.index) - {pec.index}):
        upstream = plankton.pec_by_index(index)
        plane, _control_plane = _scratch(
            plankton, upstream, failure, _context(plankton, upstream, failure)
        )
        context.add(upstream, plane)
    return context


def _failure_plane(plankton, pec, failure, first=True):
    """The plane of ``pec``'s task under ``failure``, after its failure-free
    task (when ``first``) on the same verifier."""
    if first:
        free = FailureScenario()
        _explorer(plankton, pec, free, _context(plankton, pec, free)).explore()
    (outcome,) = _explorer(plankton, pec, failure, _context(plankton, pec, failure)).explore()
    return outcome.data_plane


def _assert_failure_plane_is_scratch(plankton, pec, failure, plane):
    scratch, _control_plane = _scratch(plankton, pec, failure, _context(plankton, pec, failure))
    assert scratch.base is None
    assert plane.to_dict() == scratch.to_dict()
    assert _loop_check(plankton, pec, plane) == _loop_check(plankton, pec, scratch)
    copy = DataPlane((), pec_range=plane.pec_range)
    copy.fibs = dict(plane.fibs)
    for address in {pec.address_range.low, pec.address_range.high}:
        assert find_cycle(plane, address) == ForwardingGraph(copy, address).has_cycle()


# --------------------------------------------------------------------------- the property
class TestDerivedEqualsFromScratch:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_ebgp_fabric_under_failures(self, data):
        plankton = _ebgp()
        pec = data.draw(st.sampled_from([pec for pec in plankton.pecs if pec.has_bgp()]))
        failure = data.draw(_failures(plankton))
        _assert_derived_equals_scratch(plankton, pec, failure)

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_two_bgp_prefixes_in_product_order(self, data):
        plankton, pec, dead = _two_prefixes()
        failure = data.draw(_failures(plankton, extra=dead))
        outcomes = _assert_derived_equals_scratch(plankton, pec, failure)
        first, second = (prefix for prefix, _devices in pec.bgp_origins)

        def forwarding_for(plane, prefix):
            entries = ((device, entry_for(plane.fib(device), prefix)) for device in plane.devices())
            return tuple((device, entry and entry.next_hops) for device, entry in entries)

        pairs = [
            (forwarding_for(outcome.data_plane, first), forwarding_for(outcome.data_plane, second))
            for outcome in outcomes
        ]
        of_first = list(dict.fromkeys(a for a, _b in pairs))
        of_second = list(dict.fromkeys(b for _a, b in pairs))
        assert pairs == list(itertools.product(of_first, of_second))

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_ibgp_next_hops_through_upstream_planes(self, data):
        plankton, pec = _ibgp()
        failure = data.draw(_failures(plankton))
        context = DependencyContext()
        for index in sorted(plankton.dependency_graph.dependencies_of(pec.index)):
            upstream = plankton.pec_by_index(index)
            _run, outcomes = plankton.run_pec(
                upstream, failure, [], DependencyContext(), collect_outcomes=True
            )
            context.add(upstream, outcomes[0].data_plane)
        _assert_derived_equals_scratch(plankton, pec, failure, context)

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_statics_over_and_beside_bgp_entries(self, data):
        plankton, pec, _rack, _covering = _statics()
        failure = data.draw(_failures(plankton))
        _assert_derived_equals_scratch(plankton, pec, failure)

    def test_the_shapes_are_the_ones_claimed(self):
        """The un-failed fabrics do exercise what their docstrings say (a
        property over single-plane tasks would compare nothing derived)."""
        plankton, pec = _ibgp()
        assert len(plankton.dependency_graph.dependencies_of(pec.index)) == 6

        plankton, pec, rack, covering = _statics()
        outcomes = _explorer(plankton, pec, FailureScenario()).explore()
        recursive = {
            tuple((entry.prefix, entry.next_hops) for entry in fib._entries.values())
            for fib in (outcome.data_plane.fib("edge0_0") for outcome in outcomes)
        }
        assert recursive == {
            ((rack, (agg,)), (covering, (agg,))) for agg in ("agg0_0", "agg0_1")
        }
        beside = outcomes[-1].data_plane.fib("agg1_0")
        assert [entry.prefix for entry in beside._entries.values()] == [rack, covering]

        for plankton, pec, failure in (
            (_ebgp(), next(pec for pec in _ebgp().pecs if pec.has_bgp()), FailureScenario()),
            (*_two_prefixes()[:2], FailureScenario.of(_two_prefixes()[2])),
            (*_ibgp(), FailureScenario()),
        ):
            explorer = _explorer(plankton, pec, failure)
            first, *later = explorer.explore()
            assert later
            assert explorer._reference.interned  # later planes were derived, with misses
            assert first.data_plane.base is None
            for outcome in later:  # ... and know what they were derived from
                assert outcome.data_plane.base is explorer._reference.plane
                assert outcome.data_plane.changed


class TestFailurePlanesAcrossTasks:
    """A PEC without BGP: its failure planes derive from its failure-free
    plane, kept on the verifier's shared OSPF computation."""

    @pytest.mark.parametrize("fabric", sorted(OSPF_FABRICS))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_every_pec_under_drawn_failures(self, fabric, data):
        plankton = Plankton(OSPF_FABRICS[fabric]())
        failure = data.draw(_failures(plankton))
        for pec in plankton.pecs:
            plane = _failure_plane(plankton, pec, failure)
            assert (plane.base is not None) == bool(failure.failed_links)
            _assert_failure_plane_is_scratch(plankton, pec, failure, plane)

    def test_the_shapes_are_the_ones_claimed(self):
        plankton = Plankton(_ospf_statics())
        pecs = {prefix: pec for pec in plankton.pecs for prefix in pec.prefixes}
        covering = Prefix("10.1.0.0/16")
        recursive = pecs[edge_prefix(1, 1)]
        assert set(recursive.prefixes) == {edge_prefix(1, 1), covering}
        dependent = pecs[edge_prefix(1, 0)]
        assert plankton.dependency_graph.dependencies_of(dependent.index) == {recursive.index}
        assert set(plankton.ospf_computation.static_route_devices()) == {"core1", "agg2_0", "edge0_0"}
        plane = _failure_plane(plankton, pecs[REDISTRIBUTED], FailureScenario())
        assert plane.lookup("agg1_0", REDISTRIBUTED.first).next_hops == ("core1",)
        plane = _failure_plane(plankton, pecs[edge_prefix(3, 0)], FailureScenario())
        assert plane.lookup("agg2_0", edge_prefix(3, 0).first).drop

        plankton = Plankton(_ospf_loop())
        looping = next(pec for pec in plankton.pecs if edge_prefix(0, 0) in pec.prefixes)
        assert _loop_check(plankton, looping, _failure_plane(plankton, looping, FailureScenario()))

        # Losing r0-r1 cuts r1 off from its anycast origin r0: the delta
        # path hands the table back to the kernel.
        plankton = Plankton(_ospf_anycast_ring())
        computation = plankton.ospf_computation
        computation.compute(["r0", "r3"])
        graph = computation._compiled_graph()
        (link,) = plankton.network.topology.links_between("r0", "r1")
        base = computation._failure_free[frozenset(["r0", "r3"])]
        assert _derive(graph, base, frozenset([link.link_id])) is None
        assert computation.moved(["r0", "r3"], {link.link_id}) == ("r1",)
        table = computation.compute(["r0", "r3"], {link.link_id})
        assert (table.distances["r1"], table.next_hops["r1"]) == (4, ("r2",))  # over the override

    def test_a_verify_derives_every_failure_plane(self):
        """The independent expansion is PEC-major with the failure-free
        scenario first, so a serial run derives every failure plane."""
        plankton = Plankton(_ospf_loop(), PlanktonOptions(max_failures=1))
        _, _, graph = plankton.expand_request(LoopFreedom())
        planes = [
            (task.failure.failed_links, outcome.data_plane)
            for task in graph.tasks
            for outcome in plankton.run_pec(
                plankton.pec_by_index(task.pec_index),
                task.failure,
                [],
                DependencyContext(),
                collect_outcomes=True,
            )[1]
        ]
        assert len(planes) == len(graph.tasks) > len(plankton.pecs)
        assert all((plane.base is not None) == bool(failed) for failed, plane in planes)

    def test_an_edit_to_the_failure_free_plane_stays_in_it(self):
        plankton = Plankton(_ospf_loop())
        pec = next(pec for pec in plankton.pecs if edge_prefix(2, 0) in pec.prefixes)
        entry = FibEntry(prefix=Prefix("192.0.2.0/24"), drop=True)

        def edit(outcome):
            for device in outcome.data_plane.devices():
                outcome.data_plane.install(device, entry)

        _explorer(plankton, pec, FailureScenario()).explore(on_outcome=edit)
        failure = FailureScenario.of([plankton.network.topology.links[0].link_id])
        plane = _failure_plane(plankton, pec, failure, first=False)
        assert plane.base is not None
        assert all(entry_for(fib, entry.prefix) is None for fib in plane.fibs.values())
        _assert_failure_plane_is_scratch(plankton, pec, failure, plane)

    def test_clear_cache_drops_the_reference(self):
        plankton = Plankton(_ospf_loop())
        pec = plankton.pecs[0]
        failure = FailureScenario.of([plankton.network.topology.links[0].link_id])
        _explorer(plankton, pec, FailureScenario()).explore()
        plankton.ospf_computation.clear_cache()
        plane = _failure_plane(plankton, pec, failure, first=False)
        assert plane.base is None
        _assert_failure_plane_is_scratch(plankton, pec, failure, plane)

    def test_without_its_own_failure_free_plane_a_task_builds_from_scratch(self):
        plankton = Plankton(_ospf_loop())
        pec, other = plankton.pecs[:2]
        failure = FailureScenario.of([plankton.network.topology.links[0].link_id])
        before = _failure_plane(plankton, pec, failure, first=False)  # nothing kept yet
        assert before.base is None
        _explorer(plankton, other, FailureScenario()).explore()
        assert "reference_plane" in plankton.ospf_computation.pec_memos(other)
        after = _failure_plane(plankton, pec, failure, first=False)  # another PEC's kept
        assert after.base is None
        assert "reference_plane" not in plankton.ospf_computation.pec_memos(pec)
        for plane in (before, after):
            _assert_failure_plane_is_scratch(plankton, pec, failure, plane)


# --------------------------------------------------------------------------- sharing
class TestSharedFibs:
    @staticmethod
    def _outcomes():
        plankton = _ebgp()
        pec = next(pec for pec in plankton.pecs if pec.has_bgp())
        return _explorer(plankton, pec, FailureScenario()).explore()

    def test_an_edit_to_the_first_plane_stays_in_it(self):
        """A callback that installs into the task's first plane — before any
        later plane was derived from it — edits that plane alone: every later
        plane still equals its from-scratch build."""
        plankton = _ebgp()
        pec = next(pec for pec in plankton.pecs if pec.has_bgp())
        entry = FibEntry(prefix=Prefix("192.0.2.0/24"), drop=True)
        edited = []

        def edit_the_first(outcome):
            if not edited:
                for device in outcome.data_plane.devices():
                    outcome.data_plane.install(device, entry)
                edited.append(outcome.data_plane)

        streamed = _streamed(_explorer(plankton, pec, FailureScenario()), edit_the_first)
        assert len(streamed) > 1
        (_states, first), *later = streamed
        assert all(entry_for(fib, entry.prefix) == entry for fib in first.data_plane.fibs.values())
        for bgp_states, outcome in later:
            plane, _control_plane = _scratch(plankton, pec, FailureScenario(), None, bgp_states)
            assert outcome.data_plane.to_dict() == plane.to_dict()

    def test_install_into_one_plane_leaves_every_sibling_alone(self):
        outcomes = self._outcomes()
        before = [outcome.data_plane.to_dict() for outcome in outcomes]
        entry = FibEntry(prefix=Prefix("192.0.2.0/24"), drop=True)
        for position in (0, len(outcomes) // 2, len(outcomes) - 1):  # the reference too
            plane = outcomes[position].data_plane
            device = plane.devices()[position % len(plane.devices())]
            shared = plane.fib(device)
            assert shared.shared
            with pytest.raises(ReproError):
                shared.install(entry)
            plane.install(device, entry)
            assert plane.fib(device) is not shared and not plane.fib(device).shared
            assert entry_for(plane.fib(device), entry.prefix) == entry
            assert plane.lookup(device, entry.prefix.first) == entry
            after = [outcome.data_plane.to_dict() for outcome in outcomes]
            assert after[position] != before[position]
            after[position] = before[position] = None
            assert after == before
            before = [outcome.data_plane.to_dict() for outcome in outcomes]

    def test_outcome_list_survives_pickling(self):
        """What the process backend does with the outcomes of a PEC that has
        dependents: the planes arrive equal, still sharing their FIBs."""
        outcomes = self._outcomes()
        revived = pickle.loads(pickle.dumps(outcomes))
        assert [outcome.data_plane.to_dict() for outcome in revived] == [
            outcome.data_plane.to_dict() for outcome in outcomes
        ]
        assert [outcome.control_plane for outcome in revived] == [
            outcome.control_plane for outcome in outcomes
        ]
        assert all(type(outcome.control_plane) is dict for outcome in revived)
        assert [outcome.steps for outcome in revived] == [outcome.steps for outcome in outcomes]
        distinct = {id(fib) for outcome in outcomes for fib in outcome.data_plane.fibs.values()}
        assert len({id(fib) for o in revived for fib in o.data_plane.fibs.values()}) == len(distinct)
        assert all(fib.shared for o in revived for fib in o.data_plane.fibs.values())
