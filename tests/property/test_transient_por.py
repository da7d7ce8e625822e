"""Property-test oracle for the transient partial-order reduction.

The ample/sleep reduction (`repro.modelcheck.por`) promises to preserve, on
any SPVP instance, (a) the violation verdict of every transient property and
(b) the exact set of converged (deadlocked) states, while exploring fewer
interleavings.  These tests pin that promise against the unreduced
``por="full"`` exploration — itself pinned bit-for-bit against the reference
explorer (``tests/oracles/transient_reference.py``) by
``tests/test_transient.py`` — over
random gadget topologies, random preference orders, and random session-flap
perturbations, mirroring ``test_spvp_state.py``'s oracle style.

Comparisons only run on explorations that completed (no state-budget
truncation, no depth-bound pruning): a truncated search is approximate in
both modes, and the reduction legitimately reaches a given state through a
different — possibly longer — interleaving prefix, so a cut-off search
cannot be compared state-for-state.
"""

import contextlib

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.exceptions import ProtocolError
from repro.transient import (
    Converge,
    FailSession,
    TransientAnalyzer,
    TransientBlackHoleFreedom,
    TransientForwarding,
    TransientLoopFreedom,
    TransientProperty,
)

from repro.modelcheck.por import ReductionStatistics
from repro.modelcheck.por.ample import AmpleSelector
from repro.protocols.spvp import SpvpState, SpvpStepper

from tests.oracles.transient_reference import NaiveTransientAnalyzer
from tests.test_rpvp_spvp import GadgetInstance, bad_gadget, disagree_gadget, good_gadget
from tests.test_transient import _fat_tree_bgp_instance
from tests.helpers import AlwaysReaches, buffer_map, rib_in_map, state_from_maps, verdict_signature


def _simple_paths(edge_map, start, limit=12):
    """All simple paths from ``start`` to the origin ``o`` (preference pool)."""
    results = []

    def dfs(node, trail):
        if len(results) >= limit:
            return
        if node == "o":
            results.append(tuple(trail))
            return
        for peer in edge_map[node]:
            if peer not in trail and peer != start:
                dfs(peer, trail + (peer,))

    for peer in edge_map[start]:
        dfs(peer, (peer,))
    return results


@st.composite
def gadget_scenarios(draw):
    """A random connected gadget, plus one of its sessions (for flap tests)."""
    extra = draw(st.integers(min_value=2, max_value=4))
    nodes = ["o"] + [f"n{i}" for i in range(extra)]
    edges = {node: set() for node in nodes}
    # A random spanning tree keeps every node connected to the origin...
    for index in range(1, len(nodes)):
        anchor = nodes[draw(st.integers(min_value=0, max_value=index - 1))]
        edges[nodes[index]].add(anchor)
        edges[anchor].add(nodes[index])
    # ... plus random extra sessions for alternative paths.
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if nodes[j] not in edges[nodes[i]] and draw(st.booleans()):
                edges[nodes[i]].add(nodes[j])
                edges[nodes[j]].add(nodes[i])
    edge_map = {node: tuple(sorted(peers)) for node, peers in edges.items()}
    preferences = {}
    for node in nodes:
        if node == "o":
            continue
        paths = _simple_paths(edge_map, node)
        if not paths:
            continue
        ordered = draw(st.permutations(paths))
        keep = draw(st.integers(min_value=0, max_value=len(ordered)))
        preferences[node] = list(ordered[:keep])
    sessions = sorted(
        (node, peer) for node in edge_map for peer in edge_map[node] if node < peer
    )
    flap = sessions[draw(st.integers(min_value=0, max_value=len(sessions) - 1))]
    return edge_map, preferences, flap


class RankedGadgetInstance(GadgetInstance):
    """A gadget that also exposes static per-session rank bounds.

    ``GadgetInstance`` ranks a route by the index of its path in the
    importer's preference list, and its import filter only accepts listed
    paths.  Every route arriving over the ``exporter -> importer`` session
    carries a path headed by ``exporter`` (export prepends the exporter), so
    the best rank that session can ever deliver is the smallest preference
    index among the importer's paths headed by ``exporter`` — a *static*
    bound, exactly what :meth:`session_rank_bound` promises.  This mirrors
    what :class:`~repro.core.determinism.BgpDeterminism` derives for real BGP
    from local-pref caps and AS-hop distances, but in a form small enough to
    be obviously correct for the oracle tests below.
    """

    def session_rank_bound(self, importer, exporter):
        prefs = self._preferences.get(importer, [])
        indices = [
            index for index, path in enumerate(prefs) if path.head == exporter
        ]
        if not indices:
            # The import filter rejects everything arriving over this
            # session, so any bound holds vacuously; the weakest one keeps
            # the immunity test honest about the comparison direction.
            return (len(prefs) + 1,)
        return (min(indices),)


BUDGET = dict(max_states=4_000, max_depth=24, stop_at_first_violation=False)


def _properties():
    return [TransientLoopFreedom(ignore_converged=True), TransientBlackHoleFreedom()]


def _explore(instance, por, initial_events=()):
    analyzer = TransientAnalyzer(instance, collect_converged=True, por=por, **BUDGET)
    return analyzer.analyze(_properties(), initial_events=initial_events)


@contextlib.contextmanager
def _without_rank_immunity():
    """The unrefined ample arm: no session is ever rank-immune."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AmpleSelector, "_session_immune", lambda *_arguments: False)
        yield


def _complete(*results):
    """True when no exploration hit the state budget or the depth bound."""
    return all(
        not result.truncated and result.max_depth_reached < BUDGET["max_depth"]
        for result in results
    )


class TestPorAgainstFullOracle:
    @given(scenario=gadget_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_reduced_modes_preserve_verdicts_and_converged_sets(self, scenario):
        edge_map, preferences, _flap = scenario
        full = _explore(GadgetInstance("o", edge_map, preferences), "full")
        sleep = _explore(GadgetInstance("o", edge_map, preferences), "sleep")
        ample = _explore(GadgetInstance("o", edge_map, preferences), "ample")
        assume(_complete(full, sleep, ample))
        assert verdict_signature(full) == verdict_signature(sleep)
        assert verdict_signature(full) == verdict_signature(ample)
        # Reduction only ever removes redundant interleavings.
        assert ample.states_explored <= full.states_explored
        assert sleep.reduction.transitions_expanded <= full.reduction.transitions_expanded

    @given(scenario=gadget_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_reduced_flap_explorations_preserve_verdicts(self, scenario):
        edge_map, preferences, flap = scenario
        events = [Converge(max_steps=3_000), FailSession(*flap)]
        try:
            full = _explore(GadgetInstance("o", edge_map, preferences), "full", events)
        except ProtocolError:
            assume(False)  # divergent configuration: nothing to compare
        ample = _explore(GadgetInstance("o", edge_map, preferences), "ample", events)
        assume(_complete(full, ample))
        assert verdict_signature(full) == verdict_signature(ample)

    @given(scenario=gadget_scenarios())
    @settings(max_examples=25, deadline=None)
    def test_full_flap_exploration_matches_deepcopy_oracle(self, scenario):
        """The initial-events hook behaves identically on the persistent
        stepper and on the naive dict/deque simulator."""
        edge_map, preferences, flap = scenario
        events = [Converge(max_steps=3_000), FailSession(*flap)]
        try:
            fast = _explore(GadgetInstance("o", edge_map, preferences), "full", events)
        except ProtocolError:
            with pytest.raises(ProtocolError):
                NaiveTransientAnalyzer(
                    GadgetInstance("o", edge_map, preferences),
                    collect_converged=True,
                    **BUDGET,
                ).analyze(_properties(), initial_events=events)
            return
        naive = NaiveTransientAnalyzer(
            GadgetInstance("o", edge_map, preferences), collect_converged=True, **BUDGET
        ).analyze(_properties(), initial_events=events)
        assert fast.stats_signature() == naive.stats_signature()


class TestRankImmunityAgainstFullOracle:
    """The rank-bound session-immunity refinement is sound.

    Two pins: (a) end-to-end — on instances that expose
    ``session_rank_bound``, the refined ample exploration still preserves
    verdicts and converged sets against the unreduced oracle, and against
    the unrefined ample mode; (b) direct — a session the selector marks
    immune really cannot change the receiver's best route on *any* reachable
    delivery, checked by brute-force enumeration of the full state graph.
    """

    @given(scenario=gadget_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_refined_ample_preserves_verdicts_and_converged_sets(self, scenario):
        edge_map, preferences, _flap = scenario
        full = _explore(RankedGadgetInstance("o", edge_map, preferences), "full")
        refined = _explore(RankedGadgetInstance("o", edge_map, preferences), "ample")
        with _without_rank_immunity():
            plain = _explore(RankedGadgetInstance("o", edge_map, preferences), "ample")
        assume(_complete(full, refined, plain))
        assert verdict_signature(full) == verdict_signature(refined)
        assert verdict_signature(full) == verdict_signature(plain)
        assert refined.states_explored <= full.states_explored
        # With immunity off the ledger is silent, with it on the ledger
        # records exactly the skipped edges.
        assert plain.reduction.rank_immune_sessions == 0
        assert refined.reduction.rank_immune_sessions >= 0

    @given(scenario=gadget_scenarios())
    @settings(max_examples=30, deadline=None)
    def test_refined_flap_explorations_preserve_verdicts(self, scenario):
        edge_map, preferences, flap = scenario
        events = [Converge(max_steps=3_000), FailSession(*flap)]
        try:
            full = _explore(
                RankedGadgetInstance("o", edge_map, preferences), "full", events
            )
        except ProtocolError:
            assume(False)  # divergent configuration: nothing to compare
        refined = _explore(
            RankedGadgetInstance("o", edge_map, preferences), "ample", events
        )
        assume(_complete(full, refined))
        assert verdict_signature(full) == verdict_signature(refined)

class TestPorUnderLifecycleScenarios:
    """POR soundness must survive node-level lifecycle events.

    Node crash is the sharp case: it can leave even the solo origin with no
    best route, which invalidates any *static* frozen-origin assumption (the
    selector decides freezing per state) and makes deliveries to a routeless
    origin dangerous (they resurrect the origin route).  Drain/return change
    re-advertisement behaviour through the stepper overlays, which the
    selector treats as a sound over-approximation.  These tests pin the
    ample reduction — with and without the rank-immunity refinement — to the
    unreduced ``por="full"`` verdicts on the RankedGadgetInstance suite,
    with the event node drawn over *all* nodes (the origin included).
    """

    @staticmethod
    def _event_lists(kind, node):
        from repro.scenarios import (
            MaintenanceDrain,
            NodeCrash,
            NodeRestart,
            ReturnToService,
        )

        settle = Converge(max_steps=3_000)
        if kind == "crash":
            return [settle, NodeCrash(node)]
        if kind == "restart":
            return [settle, NodeRestart(node)]
        return [settle, MaintenanceDrain(node), settle, ReturnToService(node)]

    @pytest.mark.parametrize("kind", ["crash", "restart", "maintenance"])
    @given(scenario=gadget_scenarios(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_reduced_scenario_explorations_preserve_verdicts(
        self, kind, scenario, data
    ):
        edge_map, preferences, _flap = scenario
        node = data.draw(st.sampled_from(sorted(edge_map)), label="event node")
        events = self._event_lists(kind, node)
        try:
            full = _explore(
                RankedGadgetInstance("o", edge_map, preferences), "full", events
            )
        except ProtocolError:
            assume(False)  # divergent configuration: nothing to compare
        refined = _explore(
            RankedGadgetInstance("o", edge_map, preferences), "ample", events
        )
        with _without_rank_immunity():
            plain = _explore(
                RankedGadgetInstance("o", edge_map, preferences), "ample", events
            )
        assume(_complete(full, refined, plain))
        assert verdict_signature(full) == verdict_signature(refined)
        assert verdict_signature(full) == verdict_signature(plain)

    @given(scenario=gadget_scenarios(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_origin_crash_keeps_sleep_mode_sound_too(self, scenario, data):
        """The sleep-set mode sees the same post-crash states (the crash of
        the origin is the historical frozen-origin trap)."""
        from repro.scenarios import NodeCrash

        edge_map, preferences, _flap = scenario
        events = [Converge(max_steps=3_000), NodeCrash("o")]
        try:
            full = _explore(
                RankedGadgetInstance("o", edge_map, preferences), "full", events
            )
        except ProtocolError:
            assume(False)
        sleep = _explore(
            RankedGadgetInstance("o", edge_map, preferences), "sleep", events
        )
        assume(_complete(full, sleep))
        assert verdict_signature(full) == verdict_signature(sleep)


class TestRankImmunityBruteForce:
    @given(scenario=gadget_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_immune_sessions_never_change_the_receivers_best(self, scenario):
        """Brute-force soundness: at every reachable state, delivering the
        head of any channel the selector deems immune leaves the receiver's
        best route bit-identical — the claim the activity-closure skip rests
        on, checked without the explorer in the loop."""
        edge_map, preferences, _flap = scenario
        instance = RankedGadgetInstance("o", edge_map, preferences)
        stepper = SpvpStepper(instance)
        selector = AmpleSelector(instance)
        start = stepper.initial_state()
        seen = {start}
        frontier = [start]
        while frontier and len(seen) < 1_500:
            state = frontier.pop()
            for channel in state.pending_channels():
                sender, receiver = channel
                immune = selector._session_immune(state, sender, receiver)
                _event, child = stepper.deliver(state, channel)
                if immune:
                    assert child.best_of(receiver) == state.best_of(receiver)
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)


# --------------------------------------------------------------------------- memoised == recomputed
class _RelationProbe(TransientProperty):
    """Reports the whole forwarding relation and the converged flag.

    The shipped properties are blind to most of what a memo key must hold:
    a converged SPVP state is loop-free, so ``TransientLoopFreedom`` never
    says "converged" with a message attached, and a route change at one node
    often leaves every shipped message as it was.  This one differs whenever
    *anything* ``check`` may read differs, so a key that drops a slot or the
    flag hands some state another state's answer.
    """

    name = "relation-probe"

    def check(self, forwarding, converged):
        return f"{converged} {sorted(forwarding.next_hop.items())} {sorted(forwarding.delivering)}"


class _RecomputingAnalyzer(TransientAnalyzer):
    """Recomputes from scratch, on every state, what the search looked up."""

    states_checked = 0

    def _messages_of(self, state, converged, properties):
        messages = super()._messages_of(state, converged, properties)
        forwarding = TransientForwarding.from_best_paths(state.best_map())
        assert messages == tuple(prop.check(forwarding, converged) for prop in properties)
        self.states_checked += 1
        return messages

    def _witness_of(self, state, root, result):
        witness = super()._witness_of(state, root, result)
        assert witness == tuple(event.describe() for event in _witness_events(state))
        return witness


def _witness_events(state):
    """The deliveries from the cold start to ``state``: a queued leaf's are
    its parent's, then its own event."""
    if isinstance(state, SpvpState):
        return state.witness_events()
    return state.parent.witness_events() + [state.event]


def _check_warm_selector_against_a_fresh_one(monkeypatch):
    """Every ``active_nodes`` answer of a search's (warm) selector is compared
    with that of a selector built for the occasion, whose memos are empty."""
    warm_active_nodes = AmpleSelector.active_nodes
    compared = []

    def checked(selector, state, pending):
        before = selector.reduction.rank_immune_sessions
        active = warm_active_nodes(selector, state, pending)
        ledger = ReductionStatistics()
        fresh = AmpleSelector(selector.instance, reduction=ledger)
        assert active == warm_active_nodes(fresh, state, pending)
        assert selector.reduction.rank_immune_sessions - before == ledger.rank_immune_sessions
        compared.append(state)
        return active

    monkeypatch.setattr(AmpleSelector, "active_nodes", checked)
    return compared


def _recomputing_run(instance, por, events, **budget):
    """One search under :class:`_RecomputingAnalyzer`; returns its result."""
    sources = [node for node in instance.nodes() if node not in instance.origins()]
    properties = [
        TransientLoopFreedom(),
        TransientBlackHoleFreedom(),
        AlwaysReaches(sources),
        _RelationProbe(),
    ]
    analyzer = _RecomputingAnalyzer(
        instance, por=por, stop_at_first_violation=False, **budget
    )
    result = analyzer.analyze(properties, initial_events=events)
    assert analyzer.states_checked == result.states_explored
    return result


class TestMemoisedEqualsRecomputed:
    """The per-state look-ups of the transient search — the property messages
    keyed on (best-slot bytes, converged), the danger verdict and the activity
    closure keyed on id tuples, the witness prefix shared through the root —
    return on *every* state what computing from scratch returns."""

    def test_on_drawn_ranked_gadgets_from_drawn_roots(self, monkeypatch):
        from repro.scenarios import NodeCrash, NodeRestart

        compared = _check_warm_selector_against_a_fresh_one(monkeypatch)
        checked = []

        @given(
            scenario=gadget_scenarios(),
            root=st.sampled_from(["cold", "flap", "crash", "restart"]),
            por=st.sampled_from(["ample", "full"]),
            data=st.data(),
        )
        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        def run(scenario, root, por, data):
            edge_map, preferences, flap = scenario
            node = data.draw(st.sampled_from(sorted(edge_map)), label="event node")
            events = {
                "cold": [],
                "flap": [Converge(max_steps=3_000), FailSession(*flap)],
                "crash": [Converge(max_steps=3_000), NodeCrash(node)],
                "restart": [Converge(max_steps=3_000), NodeRestart(node)],
            }[root]
            instance = RankedGadgetInstance("o", edge_map, preferences)
            try:
                checked.append(
                    _recomputing_run(instance, por, events, max_states=250, max_depth=10)
                )
            except ProtocolError:
                assume(False)  # divergent configuration: no root to start from

        run()
        assert sum(result.states_explored for result in checked) >= 5_000
        assert sum(len(result.violations) for result in checked) >= 5_000
        assert len(compared) >= 1_000

    @pytest.mark.parametrize("gadget", [bad_gadget, disagree_gadget])
    @pytest.mark.parametrize("por", ["ample", "full"])
    def test_on_the_named_gadgets(self, monkeypatch, gadget, por):
        _check_warm_selector_against_a_fresh_one(monkeypatch)
        result = _recomputing_run(gadget(), por, [], max_states=200, max_depth=12)
        assert result.states_explored >= 25 and result.violations

    @pytest.mark.parametrize("por", ["ample", "full"])
    @pytest.mark.parametrize("root", ["flap", "crash", "restart"])
    def test_on_the_ebgp_fabric_from_perturbed_roots(self, monkeypatch, por, root):
        from repro.scenarios import NodeCrash, NodeRestart

        compared = _check_warm_selector_against_a_fresh_one(monkeypatch)
        instance = _fat_tree_bgp_instance()
        perturbation = {
            "flap": FailSession("edge0_0", "agg0_0"),
            "crash": NodeCrash("agg0_0"),
            "restart": NodeRestart("core0"),
        }[root]
        result = _recomputing_run(
            instance, por, [Converge(), perturbation], max_states=400, max_depth=8
        )
        assert result.states_explored >= 300 and result.violations
        assert (len(compared) > 0) == (por == "ample")

    def test_a_stale_rib_in_is_not_handed_the_backing_rib_ins_verdict(self):
        """No delivery leaves a best route behind without the rib-in entry
        backing it, so no search above tells a danger key with the "rib-in
        is the best" term from one without.  The memo is keyed on what
        ``_message_is_dangerous`` *reads*, reachable or not: a withdrawal
        over the backing session dislodges the incumbent, the same
        withdrawal over a session whose rib-in went stale does not."""
        instance = good_gadget()
        stepper = SpvpStepper(instance)
        settled = stepper.drain(stepper.initial_state(), max_steps=100)
        backing = settled.best_of("a").path.head
        best, rib_in = settled.best_map(), rib_in_map(settled)
        buffers = {channel: () for channel in buffer_map(settled)}
        buffers[(backing, "a")] = (None,)
        backed = state_from_maps(stepper, best, rib_in, buffers)
        stale = state_from_maps(stepper, best, {**rib_in, ("a", backing): None}, buffers)
        selector = AmpleSelector(instance)
        for state, dangerous in ((backed, True), (stale, False), (backed, True)):
            assert ("a" in selector.active_nodes(state, [(backing, "a")])) == dangerous


# --------------------------------------------------------------------------- find_cycle
def _find_cycle_walking_from_every_node(next_hop):
    """``TransientForwarding.find_cycle`` as it was before it became one pass:
    a fresh walk from every node, quadratic on a loop-free relation."""
    for start in next_hop:
        seen = {}
        node = start
        position = 0
        while node is not None and node not in seen:
            seen[node] = position
            position += 1
            node = next_hop.get(node)
        if node is not None and node in seen:
            ordered = sorted(seen, key=seen.get)
            return ordered[seen[node]:] + [node]
    return None


@st.composite
def functional_graphs(draw):
    """A next-hop map over <= 12 nodes in a drawn key order; a next hop is
    None, another key, or a node the map does not mention."""
    names = [f"n{i}" for i in range(draw(st.integers(min_value=0, max_value=12)))]
    keys = draw(st.permutations(names))
    targets = st.sampled_from([None, "elsewhere"] + names)
    return {key: draw(targets) for key in keys}


class TestFindCycleIsTheSameCycle:
    @given(next_hop=functional_graphs())
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_one_pass_returns_what_the_walk_from_every_node_returned(self, next_hop):
        """Same cycle, same rotation: the first start in dict order whose
        walk closes, cut at the node where it re-enters itself."""
        forwarding = TransientForwarding(next_hop=next_hop, delivering=frozenset())
        assert forwarding.find_cycle() == _find_cycle_walking_from_every_node(next_hop)
