"""Property tests for ``decisions_are_stable`` and its undecided-slot scan.

``BgpDeterminism.unstable_nodes`` caches its answer on the state and, for a
state with somebody undecided, scans only the undecided slots' readers (a
decided node can only be beaten through an undecided peer).  These tests pin
that against the naive all-nodes scan — the original ``decisions_are_stable``
loop — node-for-node, across random RPVP walks over a real BGP instance:
every state of a walk, sparse calls, repeated calls (the cache), and fresh
states with no parent chain.  The scan is also pinned on fabrics where
somebody *stays* undecided (an edge switch cut off by failures) and on the
converged states of a whole ≤ 1-failure run.
"""

from hypothesis import given, settings, strategies as st

from repro.config import ConfigBuilder, ebgp_rfc7938
from repro.core.determinism import BgpDeterminism, NodeDecision
from repro.core.network_model import DependencyContext, PecExplorer
from repro.core.options import PlanktonOptions
from repro.core.successors import CandidateEngine
from repro.pec.classes import compute_pecs
from repro.protocols.rpvp import RpvpState, initial_state
from repro.netaddr import Prefix
from repro.topology import bgp_fat_tree
from repro.topology.failures import FailureScenario, enumerate_failure_scenarios
from tests.helpers import grid
from tests.oracles.rpvp_reference import rpvp_successors

_CACHED = {}


def _fabric():
    """A real BGP fabric (fat-tree k=4, RFC 7938 eBGP) and its PECs, built once."""
    if "fabric" not in _CACHED:
        network = ebgp_rfc7938(bgp_fat_tree(4))
        _CACHED["fabric"] = network, [pec for pec in compute_pecs(network) if pec.has_bgp()]
    return _CACHED["fabric"]


def _explorer(pec, failure):
    network, _pecs = _fabric()
    return PecExplorer(
        network, pec, failure, PlanktonOptions(), dependency_context=DependencyContext()
    )


def _bgp_instance(cut_off=None):
    """The first PEC's BGP instance, un-failed or with every link of the edge
    switch ``cut_off`` down (that switch never hears a route: its slot stays ⊥
    in every state, so its peers keep a non-empty set of undecided peers)."""
    if cut_off not in _CACHED:
        network, pecs = _fabric()
        failed = [link.link_id for link in network.topology.edges(cut_off)] if cut_off else []
        pec = pecs[0]
        prefix = next(prefix for prefix, devices in pec.bgp_origins if devices)
        _CACHED[cut_off] = _explorer(pec, FailureScenario.of(failed)).bgp_instance(prefix)
    return _CACHED[cut_off]


def _oracle_future_rank(instance, node, state):
    """The lowest session bound over ``node``'s undecided peers, from
    ``peers`` and ``session_rank_bound`` directly (None when there is none)."""
    bounds = [
        instance.session_rank_bound(node, peer)
        for peer in instance.peers(node)
        if state.best(peer) is None
    ]
    return min((bound for bound in bounds if bound is not None), default=None)


def _oracle_unstable(analyzer, state):
    """The naive scan: the original decisions_are_stable loop, node-for-node."""
    unstable = set()
    for node, route in state.items():
        if route is None:
            continue
        future = _oracle_future_rank(analyzer.instance, node, state)
        if future is not None and future < analyzer.instance.cached_rank(node, route):
            unstable.add(node)
    return frozenset(unstable)


def _oracle_analyze(instance, state, candidates_of, defer):
    """``BgpDeterminism.analyze`` with each node's rank read off its first
    candidate by ``cached_rank`` and its future bound by a plain peer scan."""
    tied = None
    for node in sorted(candidates_of, key=lambda n: (n in defer, n)):
        candidates = candidates_of[node]
        future = _oracle_future_rank(instance, node, state)
        if future is not None and future < instance.cached_rank(node, candidates[0][1]):
            continue
        if len(candidates) == 1:
            return NodeDecision(kind="deterministic", node=node, candidates=(candidates[0],))
        if tied is None:
            tied = NodeDecision(kind="tied", node=node, candidates=tuple(candidates))
    return tied or NodeDecision(kind="none")


def _walk(instance, picks):
    """The RPVP states along one random successor walk (including the root)."""
    state = initial_state(instance)
    states = [state]
    for pick in picks:
        successors = rpvp_successors(instance, state)
        if not successors:
            break
        _transition, state = successors[pick % len(successors)]
        states.append(state)
    return states


picks = st.lists(st.integers(min_value=0, max_value=1_000_000), min_size=0, max_size=25)


class TestStabilityAgainstScan:
    @given(picks=picks)
    @settings(max_examples=30, deadline=None)
    def test_every_state_of_a_walk_matches_scan(self, picks):
        """Every state along a walk, asked twice: the second answer is the
        cached one."""
        instance = _bgp_instance()
        analyzer = BgpDeterminism(instance)
        for state in _walk(instance, picks):
            oracle = _oracle_unstable(analyzer, state)
            assert analyzer.unstable_nodes(state) == oracle
            assert analyzer.decisions_are_stable(state) == (not oracle)
            assert analyzer.unstable_nodes(state) is analyzer.unstable_nodes(state)

    @given(picks=picks, stride=st.integers(min_value=2, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_sparse_calls_match_scan(self, picks, stride):
        """Asking only every ``stride``-th state, as a search asks only where
        an execution ends."""
        instance = _bgp_instance()
        analyzer = BgpDeterminism(instance)
        for index, state in enumerate(_walk(instance, picks)):
            if index % stride:
                continue
            assert analyzer.unstable_nodes(state) == _oracle_unstable(analyzer, state)

    @given(picks=picks)
    @settings(max_examples=20, deadline=None)
    def test_fresh_states_without_parents_match_scan(self, picks):
        """States rebuilt from dicts (no parent chain) agree with a cached
        evaluation of the equal walked state."""
        instance = _bgp_instance()
        analyzer = BgpDeterminism(instance)
        states = _walk(instance, picks)
        final = states[-1]
        for state in states:  # populate caches along the chain
            analyzer.unstable_nodes(state)
        fresh = RpvpState.from_dict(final.as_dict())
        assert fresh.parent is None
        assert analyzer.unstable_nodes(fresh) == analyzer.unstable_nodes(final)
        assert analyzer.unstable_nodes(fresh) == _oracle_unstable(analyzer, fresh)


def _grid_states():
    """(instance, every state the raw RPVP semantics reach) of a 3x3 grid of
    one-router ASes, failure-free and under each single failure."""
    if "grid" not in _CACHED:
        topology = grid(3, 3)
        builder = ConfigBuilder(topology)
        for index, name in enumerate(topology.nodes):
            builder.enable_bgp(name, 65000 + index, [Prefix("10.0.0.0/24")] if index == 0 else [])
        for link in topology.links:
            builder.bgp_session(link.a, link.b)
        network = builder.build()
        (pec,) = [pec for pec in compute_pecs(network) if pec.has_bgp()]
        reached = []
        for failure in enumerate_failure_scenarios(topology, 1):
            instance = PecExplorer(
                network, pec, failure, PlanktonOptions(), dependency_context=DependencyContext()
            ).bgp_instance(Prefix("10.0.0.0/24"))
            frontier, seen = [initial_state(instance)], {}
            while frontier:
                state = frontier.pop()
                if state in seen:
                    continue
                seen[state] = None
                frontier.extend(child for _step, child in rpvp_successors(instance, state))
            reached.append((instance, list(seen)))
        _CACHED["grid"] = reached
    return _CACHED["grid"]


class TestAnalyzeReadsTheCandidateRanks:
    """``analyze`` takes each node's rank from the candidate sets
    (``best_rank``) and its future bound from the per-task sorted table; the
    decision is the one the ``cached_rank`` form over a plain peer scan
    takes."""

    @given(
        picks=picks,
        cut_off=st.sampled_from([None, "edge1_0", "edge2_1"]),
        deferred=st.lists(st.integers(min_value=0, max_value=19), max_size=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_state_of_a_walk(self, picks, cut_off, deferred):
        instance = _bgp_instance(cut_off)
        analyzer = BgpDeterminism(instance)
        engine = CandidateEngine(instance)
        nodes = sorted(instance.nodes())
        defer = {nodes[index % len(nodes)] for index in deferred}
        decided = 0
        for state in _walk(instance, picks):
            cache = engine.candidates(state)
            decision = analyzer.analyze(state, cache.updates, cache.best_rank, defer=defer)
            assert decision == _oracle_analyze(instance, state, cache.updates, defer)
            decided += decision.kind != "none"
        assert decided or not picks

    def test_every_state_of_a_grid(self):
        """Where sessions differ in their bounds and decisions can be
        overturned (see ``TestUndecidedSlotScan``), deferring the grid's far
        corner as a policy source would."""
        kinds, corner = set(), {"g2_2"}
        for instance, states in _grid_states():
            analyzer = BgpDeterminism(instance)
            engine = CandidateEngine(instance)
            for state in states:
                cache = engine.candidates(state)
                decision = analyzer.analyze(state, cache.updates, cache.best_rank, defer=corner)
                assert decision == _oracle_analyze(instance, state, cache.updates, corner)
                kinds.add(decision.kind)
        assert kinds == {"deterministic", "tied", "none"}


class TestUndecidedSlotScan:
    """``_scan_unstable`` (undecided slots -> their readers) against the
    all-nodes loop, where the reader sets are not empty."""

    @given(picks=picks, cut_off=st.sampled_from(["edge1_0", "edge2_1", "edge3_1"]))
    @settings(max_examples=30, deadline=None)
    def test_walks_with_an_edge_switch_cut_off(self, picks, cut_off):
        instance = _bgp_instance(cut_off)
        assert cut_off not in instance.origins()
        analyzer = BgpDeterminism(instance)
        states = _walk(instance, picks)
        for state in states:
            assert state.best(cut_off) is None
            oracle = _oracle_unstable(analyzer, state)
            assert analyzer._scan_unstable(state) == oracle
            # A state without a parent chain.
            assert analyzer.unstable_nodes(RpvpState.from_dict(state.as_dict())) == oracle
        for state in states:
            assert analyzer.unstable_nodes(state) == _oracle_unstable(analyzer, state)

    def test_one_converged_state_per_task_of_a_single_failure_run(self):
        """Every (PEC, <= 1 failure) task of the fabric: the first converged
        state the search accepts, detached as whoever keeps one past the
        search detaches it (``ConvergedOutcome.kept``)."""
        network, pecs = _fabric()
        scenarios = enumerate_failure_scenarios(network.topology, 1)
        somebody_undecided = 0
        for pec in pecs:
            prefix = next(prefix for prefix, devices in pec.bgp_origins if devices)
            for failure in scenarios:
                explorer = _explorer(pec, failure)
                instance = explorer.bgp_instance(prefix)
                found = []
                explorer._search(
                    instance,
                    BgpDeterminism(instance),
                    lambda state, labels: found.append(state.detach()) or "first one",
                )
                (state,) = found
                assert state.parent is None  # detached
                analyzer = BgpDeterminism(instance)
                oracle = _oracle_unstable(analyzer, state)
                assert oracle == frozenset()  # it was accepted
                assert analyzer._scan_unstable(state) == oracle
                assert analyzer.unstable_nodes(state) == oracle
                somebody_undecided += not all(state._ids)
        assert len(scenarios) == 1 + len(network.topology.links)
        # An origin's uplink down leaves that whole plane of the fabric (its
        # aggregation and core switches) without a route: both kinds of state.
        assert somebody_undecided == 2 * len(pecs)

    def test_every_state_of_a_grid_where_decisions_do_get_overturned(self):
        """In the fat tree every feasible path is a shortest one, so nothing
        above is ever unstable.  On a grid of one-router ASes a router can
        take a long way round while the short way's neighbour is still
        undecided: every state the raw RPVP semantics reach, failure-free and
        under each single failure, with the unstable sets really non-empty."""
        states_seen = unstable_seen = 0
        for instance, states in _grid_states():
            analyzer = BgpDeterminism(instance)
            for state in states:
                oracle = _oracle_unstable(analyzer, state)
                assert analyzer._scan_unstable(state) == oracle
                unstable_seen += bool(oracle)
            states_seen += len(states)
        assert states_seen > 2000 and unstable_seen > 200
