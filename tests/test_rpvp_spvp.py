"""Tests for the RPVP and SPVP models, including their agreement on converged states.

The gadgets come from the stable-paths literature referenced by the paper
(Griffin et al.): GOOD GADGET converges to a unique state, DISAGREE has two
stable states, BAD GADGET diverges under SPVP but has no converged state.
"""

import random
from typing import Dict, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ospf_everywhere
from repro.core import OptimizationFlags, Plankton, PlanktonOptions
from repro.core.network_model import PecExplorer
from repro.exceptions import ProtocolError, VerificationError
from repro.netaddr import Prefix
from repro.protocols import (
    EPSILON,
    Path,
    PathVectorInstance,
    Route,
    OspfInstance,
    RpvpState,
)
from repro.modelcheck import ExplorationStatistics, Explorer, ExplorerOptions
from repro.modelcheck.explorer import COMPLETE
from repro.pec.classes import compute_pecs, pec_covering_prefix
from repro.policies import LoopFreedom
from repro.protocols.rpvp import initial_state
from repro.protocols.spvp import SpvpStepper
from repro.topology import FailureScenario, Topology, fat_tree, ring, rocketfuel_like
from tests.helpers import buffer_of, forwarding_next_hops, induced_subgraph, linear_chain
from tests.oracles.rpvp_reference import enabled_nodes, is_invalid, rpvp_successors, step_node


class GadgetInstance(PathVectorInstance):
    """A stable-paths gadget: explicit path preference lists per node.

    ``preferences[node]`` lists full paths (tuples of nodes ending at the
    origin) from most to least preferred; any path not listed is rejected by
    the import filter.
    """

    def __init__(self, origin: str, edges: Dict[str, Sequence[str]], preferences: Dict[str, Sequence[Tuple[str, ...]]]):
        self.origin = origin
        self._edges = {node: tuple(peers) for node, peers in edges.items()}
        self._preferences = {node: [Path(p) for p in prefs] for node, prefs in preferences.items()}
        self.name = "gadget"

    def nodes(self):
        return sorted(self._edges)

    def origins(self):
        return [self.origin]

    def peers(self, node):
        return self._edges[node]

    def origin_route(self, node):
        return Route(path=EPSILON, origin_node=node)

    def export(self, exporter, importer, route):
        if route is None:
            return None
        return route.with_path(route.path.prepend(exporter))

    def import_(self, importer, exporter, route):
        if route is None:
            return None
        if importer == self.origin:
            return None
        if route.path in self._preferences.get(importer, []):
            return route
        return None

    def rank(self, node, route):
        if route.path == EPSILON:
            return (-1,)
        prefs = self._preferences.get(node, [])
        try:
            return (prefs.index(route.path),)
        except ValueError:
            return (len(prefs) + 1,)


def good_gadget() -> GadgetInstance:
    """Unique stable state: every node prefers its direct path to the origin."""
    edges = {"o": ("a", "b"), "a": ("o", "b"), "b": ("o", "a")}
    preferences = {
        "a": [("o",), ("b", "o")],
        "b": [("o",), ("a", "o")],
    }
    return GadgetInstance("o", edges, preferences)


def disagree_gadget() -> GadgetInstance:
    """DISAGREE: two stable states (a via b, or b via a)."""
    edges = {"o": ("a", "b"), "a": ("o", "b"), "b": ("o", "a")}
    preferences = {
        "a": [("b", "o"), ("o",)],
        "b": [("a", "o"), ("o",)],
    }
    return GadgetInstance("o", edges, preferences)


def bad_gadget() -> GadgetInstance:
    """BAD GADGET: no stable state (SPVP diverges)."""
    edges = {
        "o": ("a", "b", "c"),
        "a": ("o", "b", "c"),
        "b": ("o", "a", "c"),
        "c": ("o", "a", "b"),
    }
    preferences = {
        "a": [("b", "o"), ("o",)],
        "b": [("c", "o"), ("o",)],
        "c": [("a", "o"), ("o",)],
    }
    return GadgetInstance("o", edges, preferences)


def explore_all_converged(instance: PathVectorInstance, max_states: int = 50_000):
    """Exhaustively enumerate RPVP converged states (raw semantics)."""
    converged = []
    explorer = Explorer(
        successors=lambda state: rpvp_successors(instance, state),
        check_terminal=lambda state, _labels: converged.append(state),
        options=ExplorerOptions(max_states=max_states),
    )
    statistics = ExplorationStatistics()
    explorer.run(initial_state(instance), statistics)
    return converged, statistics


def seeded_spvp_run(instance: PathVectorInstance, seed: int, max_steps: int = 100_000):
    """One SPVP execution whose message order ``random.Random(seed)`` picks —
    the simulation baseline's run — as its final state."""
    stepper = SpvpStepper(instance)
    return stepper.drain(
        stepper.initial_state(), max_steps=max_steps, choose=random.Random(seed).choice
    )


class TestRpvpSemantics:
    def test_initial_state(self):
        instance = good_gadget()
        state = initial_state(instance)
        assert state.best("o").path == EPSILON
        assert state.best("a") is None

    def test_enabled_nodes_initially_origin_neighbors(self):
        instance = good_gadget()
        state = initial_state(instance)
        assert set(enabled_nodes(instance, state)) == {"a", "b"}

    def test_step_node_produces_best_choice(self):
        instance = good_gadget()
        state = initial_state(instance)
        successors = step_node(instance, state, "a")
        assert len(successors) == 1
        transition, new_state = successors[0]
        assert new_state.best("a").path == Path(("o",))

    def test_good_gadget_unique_convergence(self):
        instance = good_gadget()
        converged, _stats = explore_all_converged(instance)
        paths = {tuple(state.best(n).path for n in ("a", "b")) for state in converged}
        assert paths == {(Path(("o",)), Path(("o",)))}

    def test_disagree_two_converged_states(self):
        instance = disagree_gadget()
        converged, _stats = explore_all_converged(instance)
        signatures = set()
        for state in converged:
            signatures.add((tuple(state.best("a").path), tuple(state.best("b").path)))
        assert signatures == {(("b", "o"), ("o",)), (("o",), ("a", "o"))}

    def test_bad_gadget_has_no_converged_state(self):
        instance = bad_gadget()
        converged, stats = explore_all_converged(instance, max_states=20_000)
        assert converged == []
        assert not stats.truncated

    def test_every_converged_state_is_a_fixed_point(self):
        instance = disagree_gadget()
        converged, stats = explore_all_converged(instance)
        assert converged and stats.terminal_states == len(converged)
        assert not any(enabled_nodes(instance, state) for state in converged)

    def test_raw_search_of_bad_gadget_ends_without_a_fixed_point(self):
        instance = bad_gadget()
        converged, stats = explore_all_converged(instance)
        assert stats.terminal_states == 0 and stats.unique_states > 1

    def test_invalid_detection(self):
        instance = good_gadget()
        # Manually build a state where a's path is not backed by its next hop.
        state = RpvpState.from_dict(
            {
                "o": Route(path=EPSILON),
                "a": Route(path=Path(("b", "o"))),
                "b": None,
            }
        )
        assert is_invalid(instance, state, "a")

    def test_state_equality_and_hash(self):
        instance = good_gadget()
        a = initial_state(instance)
        b = initial_state(instance)
        assert a == b and hash(a) == hash(b)
        c = a.with_best("a", Route(path=Path(("o",))))
        assert c != a

    def test_constructor_canonicalises_the_pair_order(self):
        """One node set is one slot layout, whatever order the pairs came in."""
        shuffled = RpvpState([("b", None), ("a", None)])
        canonical = RpvpState.from_dict({"a": None, "b": None})
        assert shuffled == canonical and hash(shuffled) == hash(canonical)
        assert shuffled.node_names == ("a", "b")
        assert shuffled.intern_table is canonical.intern_table

    def test_forwarding_next_hops(self):
        instance = good_gadget()
        (state,), _stats = explore_all_converged(instance)
        hops = forwarding_next_hops(state)
        assert hops["a"] == "o" and hops["o"] == "o"


class TestSpvp:
    def test_spvp_converges_on_good_gadget(self):
        state = seeded_spvp_run(good_gadget(), seed=1).converged_rpvp()
        assert state.best("a").path == Path(("o",))
        assert state.best("b").path == Path(("o",))

    def test_spvp_diverges_on_bad_gadget(self):
        with pytest.raises(ProtocolError):
            seeded_spvp_run(bad_gadget(), seed=1, max_steps=500)

    def test_drain_delivers_the_first_pending_channel_by_default(self):
        stepper = SpvpStepper(good_gadget())
        state = stepper.initial_state()
        offered = []

        def first(pending):
            offered.append(list(pending))
            return pending[0]

        chosen = stepper.drain(state, choose=first)
        assert stepper.drain(state) == chosen
        assert offered[0] == state.pending_channels()
        assert len(offered) == len(chosen.witness_events())

    def test_spvp_converged_states_are_rpvp_converged_states(self):
        """Theorem 1 direction checked experimentally on DISAGREE: every SPVP
        outcome (for message orders that do converge; DISAGREE can also
        oscillate forever) is among the RPVP-explored converged states."""
        instance = disagree_gadget()
        rpvp_states, _ = explore_all_converged(instance)
        rpvp_signatures = {
            (tuple(s.best("a").path), tuple(s.best("b").path)) for s in rpvp_states
        }
        converged_runs = 0
        for seed in range(10):
            try:
                spvp_state = seeded_spvp_run(disagree_gadget(), seed, max_steps=20_000)
            except ProtocolError:
                continue  # this message ordering oscillates; that is legal SPVP
            spvp_state = spvp_state.converged_rpvp()
            converged_runs += 1
            signature = (tuple(spvp_state.best("a").path), tuple(spvp_state.best("b").path))
            assert signature in rpvp_signatures
        assert converged_runs >= 1

    def test_states_over_different_session_graphs_differ(self):
        """Equal id arrays over two slot layouts are two states: sessions
        o-a, b-c against o-a, b-d lay out the same number of slots."""
        edges = {"o": ("a",), "a": ("o",), "b": ("c",), "c": ("b",), "d": ()}
        other_edges = {"o": ("a",), "a": ("o",), "b": ("d",), "c": (), "d": ("b",)}
        first = SpvpStepper(GadgetInstance("o", edges, {})).initial_state()
        second = SpvpStepper(GadgetInstance("o", other_edges, {})).initial_state()
        assert first != second and not first == second
        assert len({first, second}) == 2

    def test_spvp_session_failure_delivers_withdraw(self):
        instance = good_gadget()
        converged = seeded_spvp_run(instance, seed=0)
        assert converged.is_converged()
        flapped = SpvpStepper(instance).fail_session(converged, "o", "a")
        assert set(flapped.pending_channels()) == {("o", "a"), ("a", "o")}
        assert buffer_of(flapped, ("o", "a")) == buffer_of(flapped, ("a", "o")) == (None,)


#: The prefix the drawn OSPF networks originate at one drawn device.
ECMP_PREFIX = Prefix("10.9.0.0/24")


@st.composite
def ecmp_networks(draw, shape: str):
    """OSPF over a drawn graph with link costs 1 or 2 per direction (ties
    are common), one drawn device originating :data:`ECMP_PREFIX`: a drawn
    connected set of three to nine fat-tree switches (k=4), or a
    ``rocketfuel_like`` graph of four to nine devices."""
    if shape == "fat-tree":
        # A connected set of switches, grown one drawn neighbour at a time.
        full = fat_tree(4)
        keep = [draw(st.sampled_from(sorted(full.nodes)))]
        for _ in range(draw(st.integers(min_value=2, max_value=8))):
            frontier = sorted({peer for node in keep for peer in full.neighbors(node)} - set(keep))
            keep.append(draw(st.sampled_from(frontier)))
        base = induced_subgraph(full, keep)
    else:
        base = rocketfuel_like(
            size=draw(st.integers(min_value=4, max_value=9)),
            seed=draw(st.integers(min_value=0, max_value=10_000)),
        )
    topology = Topology(base.name)
    for name in base.nodes:
        node = base.node(name)
        topology.add_node(name, role=node.role, **node.attributes)
    costs = st.sampled_from((1, 2))
    for link in base.links:
        topology.add_link(link.a, link.b, weight=draw(costs), weight_ba=draw(costs))
    origin = draw(st.sampled_from(sorted(topology.nodes)))
    return ospf_everywhere(topology, originate_roles=(), prefix_for={origin: ECMP_PREFIX})


class TestRpvpOnRealProtocols:
    def test_ospf_rpvp_matches_spf(self):
        network = ospf_everywhere(
            linear_chain(4, link_weight=3),
            originate_roles=("router",),
            prefix_for={"r0": Prefix("10.0.0.0/24")},
        )
        instance = OspfInstance(network, Prefix("10.0.0.0/24"))
        (state,), _stats = explore_all_converged(instance)
        table = instance.routing_table()
        for node in ("r1", "r2", "r3"):
            assert state.best(node).igp_cost == table.distances[node]

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=3, max_value=6), st.integers(min_value=1, max_value=5))
    def test_ospf_rpvp_costs_equal_spf_on_rings(self, n, weight):
        network = ospf_everywhere(
            ring(n, link_weight=weight),
            originate_roles=("router",),
            prefix_for={"r0": Prefix("10.9.0.0/24")},
        )
        instance = OspfInstance(network, Prefix("10.9.0.0/24"))
        converged, _stats = explore_all_converged(instance)
        table = instance.routing_table()
        # An even ring has two equal-cost ways to the far node: one
        # converged state each, both at the SPF cost.
        assert len(converged) == 1 + (n % 2 == 0)
        for state in converged:
            for node in network.topology.nodes:
                if node == "r0":
                    continue
                assert state.best(node).igp_cost == table.distances[node]

    @pytest.mark.parametrize("shape", ["fat-tree", "rocketfuel"])
    @settings(deadline=None, max_examples=25, derandomize=True)
    @given(data=st.data())
    def test_converged_next_hops_are_the_ecmp_sets(self, shape, data):
        """Every SPF next hop of every node is the next hop of some converged
        state, and no other one is: the raw Algorithm 1 search agrees with the
        ECMP sets, and the verifier's own check of them (deterministic nodes
        off, so its relation branches over every tie) passes."""
        network = data.draw(ecmp_networks(shape))
        instance = OspfInstance(network, ECMP_PREFIX)
        converged = []
        explorer = Explorer(
            successors=lambda state: rpvp_successors(instance, state),
            check_terminal=lambda state, _labels: converged.append(state),
            options=ExplorerOptions(max_states=50_000),
        )
        assert explorer.run(initial_state(instance), ExplorationStatistics()) == COMPLETE
        used = {node: set() for node in instance.nodes()}
        for state in converged:
            for node, route in state.items():
                if route is not None and route.path != EPSILON:
                    used[node].add(route.path.head)
        table = instance.routing_table()
        assert used == {node: set(table.next_hops.get(node, ())) for node in instance.nodes()}
        options = PlanktonOptions(
            fast_ospf=False, optimizations=OptimizationFlags(deterministic_nodes=False)
        )
        result = Plankton(network, options).verify(LoopFreedom())
        assert not result.errors and result.conclusive

    def test_the_ecmp_check_refuses_a_missing_tie(self):
        """An even ring's far node has two SPF next hops: a search that
        accepted only the converged state through one of them fails the
        check, the one that accepted both passes it."""
        network = ospf_everywhere(
            ring(4, link_weight=1), originate_roles=(), prefix_for={"r0": ECMP_PREFIX}
        )
        instance = OspfInstance(network, ECMP_PREFIX)
        converged, _stats = explore_all_converged(instance)
        assert len(converged) == 2
        (pec,) = pec_covering_prefix(compute_pecs(network), ECMP_PREFIX)
        options = PlanktonOptions(
            fast_ospf=False, optimizations=OptimizationFlags(deterministic_nodes=False)
        )
        explorer = PecExplorer(network, pec, FailureScenario(), options)
        for accepted, agrees in ((converged[:1], False), (converged, True)):
            check, check_ecmp = explorer._spf_agreement(ECMP_PREFIX, instance.nodes())
            for state in accepted:
                check(state, [])
            if agrees:
                check_ecmp()
            else:
                with pytest.raises(VerificationError, match="ECMP set"):
                    check_ecmp()
