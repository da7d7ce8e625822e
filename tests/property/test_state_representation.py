"""Property tests for the persistent RPVP state representation.

The chunked persistent vector, the incremental Zobrist fingerprint, and the
incremental successor-candidate engine all promise to be *observationally
identical* to the naive implementations they replaced (rebuild the whole
tuple, re-intern every entry, rescan every node).  These tests pin that
promise against naive oracles across random transition sequences and whole
explorations.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import OptimizationFlags, Plankton, PlanktonOptions
from repro.config import ebgp_rfc7938, ospf_everywhere
from repro.config.builder import edge_prefix
from repro.config.objects import OspfInterface
from repro.core.determinism import BgpDeterminism, OspfDeterminism
from repro.core.network_model import DependencyContext, PecExplorer
from repro.core.successors import CandidateEngine, CandidateSets
from repro.modelcheck.hashing import ZobristFingerprinter
from repro.netaddr import Prefix
from repro.pec.classes import compute_pecs
from repro.policies import LoopFreedom, Reachability
from repro.protocols.base import Path, PathVectorInstance, Route
from repro.protocols.ospf_instance import OspfInstance
from repro.protocols.interning import node_space_for
from repro.protocols.rpvp import RpvpState, initial_state, rpvp_successors
from repro.topology import Topology, bgp_fat_tree, fat_tree
from repro.topology.failures import FailureScenario

from tests.oracles.ospf_reference import reference_adjacency
from tests.property.test_determinism_stability import _explorer, _fabric
from tests.property.test_transient_por import RankedGadgetInstance, gadget_scenarios
from tests.test_rpvp_spvp import bad_gadget, disagree_gadget

NODES = tuple(f"n{i}" for i in range(23))  # not a multiple of the chunk size


def _route(seed: int) -> Route:
    """A small deterministic family of distinct routes."""
    return Route(
        path=Path(tuple(f"n{(seed + i) % 7}" for i in range(seed % 3))),
        local_pref=100 + seed % 5,
        as_path_length=seed % 4,
        med=seed % 2,
    )


routes = st.one_of(st.none(), st.integers(min_value=0, max_value=40).map(_route))
updates = st.lists(
    st.tuples(st.sampled_from(NODES), routes), min_size=0, max_size=60
)


class TestWithBestAgainstTupleOracle:
    @given(updates=updates)
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_rebuild(self, updates):
        oracle = {name: None for name in NODES}
        state = RpvpState.from_dict(oracle)
        for node, route in updates:
            state = state.with_best(node, route)
            oracle[node] = route
            rebuilt = RpvpState.from_dict(oracle)
            assert state.assignments == tuple(sorted(oracle.items()))
            assert state == rebuilt and hash(state) == hash(rebuilt)
            assert all(state.best(name) == oracle[name] for name in NODES)

    @given(updates=updates, probe=st.sampled_from(NODES), seed=st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_divergent_states_compare_unequal(self, updates, probe, seed):
        state = RpvpState.from_dict({name: None for name in NODES})
        for node, route in updates:
            state = state.with_best(node, route)
        changed = state.with_best(probe, _route(seed))
        if changed.best(probe) == state.best(probe):
            assert changed == state
        else:
            assert changed != state

    @given(updates=updates)
    @settings(max_examples=100, deadline=None)
    def test_fingerprint_matches_full_fold(self, updates):
        """The incremental fingerprint equals a from-scratch fold, and equal
        states always produce equal fingerprints."""
        oracle = {name: None for name in NODES}
        state = RpvpState.from_dict(oracle)
        table = state.intern_table
        hasher = ZobristFingerprinter(table)
        for node, route in updates:
            state = state.with_best(node, route)
            oracle[node] = route
            incremental = state.fingerprint(hasher)
            from_scratch = 0
            for slot, (_name, entry) in enumerate(sorted(oracle.items())):
                from_scratch ^= hasher.component_id(slot, table.route_id(entry))
            assert incremental == from_scratch
            # A state rebuilt without any parent chain folds to the same value.
            assert RpvpState.from_dict(oracle).fingerprint(hasher) == incremental


class TestRouteInternTableRoundTrip:
    """The intern table is a bijection between entries and dense ids.

    The array-native state cores replace every stored ``Route`` (and channel
    queue) with its intern id, so equality/hash/fingerprint correctness all
    reduce to: equal entries always intern to the *same* id, distinct entries
    to distinct ids, and every id decodes back to an equal entry.
    """

    @given(seeds=st.lists(st.integers(min_value=0, max_value=40), max_size=50))
    @settings(max_examples=150, deadline=None)
    def test_route_ids_round_trip_and_are_canonical(self, seeds):
        from repro.protocols.interning import RouteInternTable

        table = RouteInternTable()
        assert table.route_id(None) == 0 and table.route(0) is None
        by_id = {}
        for seed in seeds:
            route = _route(seed)
            rid = table.route_id(route)
            assert rid > 0
            # id -> Route -> id is the identity (and a *fresh* equal Route
            # re-interns to the same id: ids are canonical per value).
            assert table.route(rid) == route
            assert table.route_id(_route(seed)) == rid
            previous = by_id.setdefault(rid, route)
            assert previous == route
        # Distinct ids decode to distinct routes; path ids agree with path
        # equality across every pair (the stepper's re-advertise test).
        ids = sorted(by_id)
        for i, rid in enumerate(ids):
            for other in ids[i + 1 :]:
                assert by_id[rid] != by_id[other]
                same_path = by_id[rid].path == by_id[other].path
                assert (table.path_id(rid) == table.path_id(other)) == same_path
        assert len(table) >= len(by_id)

    @given(
        queues=st.lists(
            st.lists(st.integers(min_value=0, max_value=40), max_size=5),
            max_size=20,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_queue_ids_round_trip(self, queues):
        from repro.protocols.interning import RouteInternTable

        table = RouteInternTable()
        assert table.queue_id(()) == 0 and table.queue(0) == ()
        for seeds in queues:
            rids = tuple(
                table.route_id(_route(seed)) if seed % 5 else 0 for seed in seeds
            )
            qid = table.queue_id(rids)
            assert table.queue(qid) == rids
            assert table.queue_id(tuple(rids)) == qid
            assert (qid == 0) == (not rids)

    def test_states_of_one_stepper_share_one_table(self):
        from repro.protocols.spvp import SpvpStepper
        from tests.test_rpvp_spvp import disagree_gadget

        stepper = SpvpStepper(disagree_gadget())
        state = stepper.initial_state()
        frontier = [state]
        seen = {state}
        while frontier and len(seen) < 200:
            current = frontier.pop()
            assert current._space.table is stepper.table
            for channel in current.pending_channels():
                _event, child = stepper.deliver(current, channel)
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        # Shared table => equal routes have identical ids across states, so
        # cross-state equality is a flat array comparison.
        table = stepper.table
        for explored in seen:
            for node in stepper.space.nodes:
                best = explored.best_of(node)
                assert table.route(table.route_id(best)) == best


def _force_full_scan(monkeypatch):
    """Make every candidate lookup use the naive full rescan (the oracle)."""

    def full_scan_only(self, state):
        return CandidateEngine._full_scan(self, state)

    monkeypatch.setattr(CandidateEngine, "candidates", full_scan_only)


def _stats_signature(result):
    per_run = [
        (
            run.pec_index,
            run.failure,
            run.converged_states,
            run.checked_states,
            run.statistics.states_expanded if run.statistics else None,
            run.statistics.unique_states if run.statistics else None,
            run.statistics.transitions if run.statistics else None,
            run.statistics.unique_terminal_states if run.statistics else None,
            run.statistics.violations if run.statistics else None,
        )
        for run in result.pec_runs
    ]
    violations = [(v.policy, v.pec_index, v.message) for v in result.violations]
    return (result.holds, per_run, violations)


class TestIncrementalSuccessorEquivalence:
    """The delta-maintained candidate sets explore exactly like full rescans."""

    CASES = {
        "ospf-fat-tree": lambda: (
            ospf_everywhere(fat_tree(4)),
            LoopFreedom(),
            PlanktonOptions(fast_ospf=False, stop_at_first_violation=False),
        ),
        "bgp-fat-tree": lambda: (
            ebgp_rfc7938(bgp_fat_tree(4)),
            Reachability(destination_prefix=edge_prefix(0, 0), require_all_branches=False),
            PlanktonOptions(stop_at_first_violation=False),
        ),
        "bgp-fat-tree-no-determinism": lambda: (
            ebgp_rfc7938(bgp_fat_tree(4)),
            Reachability(destination_prefix=edge_prefix(0, 0), require_all_branches=False),
            PlanktonOptions(
                stop_at_first_violation=False,
                optimizations=OptimizationFlags().without(deterministic_nodes=True),
                max_states_per_pec=50_000,
            ),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_statistics_identical(self, case, monkeypatch):
        network, policy, options = self.CASES[case]()
        incremental = Plankton(network, options).verify(policy)
        _force_full_scan(monkeypatch)
        oracle = Plankton(network, options).verify(policy)
        assert _stats_signature(incremental) == _stats_signature(oracle)


# --------------------------------------------------------------------------- edge delta
def _assert_derived_equals_full_scan(engine, state):
    """``engine.candidates(state)`` against the rescan of every node, field by field."""
    derived = engine.candidates(state)
    scanned = CandidateEngine._full_scan(engine, state)
    assert derived.decided_pending == scanned.decided_pending
    assert sorted(derived.updates) == sorted(scanned.updates)
    for node, candidates in scanned.updates.items():
        assert derived.updates[node] == candidates  # same peers, same routes, same order
    assert derived.best_rank == scanned.best_rank
    assert derived.enabled_count == scanned.enabled_count
    assert derived.enabled_count == sum(len(found) for found in derived.updates.values())
    return derived


def _walk_checking_every_step(instance, picks):
    """One random execution under the *raw* RPVP semantics, each step one
    ``with_best`` off a state the engine has seen, so each step is an edge
    delta: undecided nodes adopt a best update (the moves a search makes —
    the old advertisement is silent on every edge), decided nodes change
    their mind and invalid paths are dropped (where it is not).  Returns the
    engine and the states."""
    engine = CandidateEngine(instance)
    state = initial_state(instance)
    _assert_derived_equals_full_scan(engine, state)
    states = [state]
    for pick in picks:
        moves = [
            (transition.node, transition.new_route)
            for transition, _child in rpvp_successors(instance, state)
        ]
        if not moves:
            break
        node, route = moves[pick % len(moves)]
        state = state.with_best(node, route)
        assert state.parent is states[-1] and states[-1]._engine_token is engine
        _assert_derived_equals_full_scan(engine, state)
        states.append(state)
    return engine, states


def _check_deltas_no_search_makes(instance, engine, states, pick):
    """``with_best`` off a walked state in ways only the API allows: a decided
    node's route replaced by another advertisement and by ⊥ (both not silent
    towards its readers), and a child whose parent carries *another* engine's
    cache (nothing to derive from; the cache is poisoned so that deriving from
    it would show).  Returns the states checked."""
    parent = states[pick % len(states)]
    engine.candidates(parent)
    origins = set(instance.origins())
    checked = 0
    for node, held in parent.items():
        if held is None or node in origins:
            continue
        offers = [instance.advertisement(node, peer, parent.best(peer)) for peer in instance.peers(node)]
        for route in [None] + [offer for offer in offers if offer is not None and offer != held]:
            _assert_derived_equals_full_scan(engine, parent.with_best(node, route))
            checked += 1
    other = CandidateEngine(instance)
    other.candidates(parent)
    parent._engine_cache = CandidateSets(frozenset(instance.nodes()), {}, {}, 0)
    for transition, _child in rpvp_successors(instance, parent)[:2]:
        child = parent.with_best(transition.node, transition.new_route)
        assert parent._engine_token is other
        _assert_derived_equals_full_scan(engine, child)
        checked += 1
    return checked


picks = st.lists(st.integers(min_value=0, max_value=1_000_000), min_size=12, max_size=40)
PREFIX = Prefix("10.0.0.0/24")


@st.composite
def ospf_scenarios(draw):
    """OSPF on a random connected graph: drawn weights (small, so equal-cost
    paths are common, and asymmetric), now and then a parallel link of another
    cost, an interface cost override or a passive interface; one or two
    origins, at most two failed links."""
    size = draw(st.integers(min_value=4, max_value=9))
    names = [f"r{index}" for index in range(size)]
    topology = Topology("drawn")
    for name in names:
        topology.add_node(name)
    weight = st.integers(min_value=1, max_value=3)
    for index in range(1, size):
        anchor = names[draw(st.integers(min_value=0, max_value=index - 1))]
        topology.add_link(anchor, names[index], draw(weight), draw(weight))
    for i in range(size):
        for j in range(i + 1, size):
            if not topology.links_between(names[i], names[j]) and draw(st.integers(0, 2)) == 0:
                topology.add_link(names[i], names[j], draw(weight), draw(weight))
    for link in list(topology.links):
        if draw(st.integers(0, 7)) == 0:
            topology.add_link(link.a, link.b, draw(weight), draw(weight))
    origins = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
    link_ids = [link.link_id for link in topology.links]
    failed = draw(st.lists(st.sampled_from(link_ids), max_size=2, unique=True))
    network = ospf_everywhere(topology, prefix_for={name: PREFIX for name in origins})
    for name in names:
        interfaces = network.device(name).ospf.interfaces
        for neighbor in topology.neighbors(name):
            roll = draw(st.integers(0, 15))
            if roll == 0:
                interfaces[neighbor] = OspfInterface(neighbor=neighbor, passive=True)
            elif roll <= 2:
                interfaces[neighbor] = OspfInterface(neighbor=neighbor, cost=draw(st.integers(1, 4)))
    return OspfInstance(network, PREFIX, failed_links=set(failed))


@st.composite
def one_way_gadgets(draw):
    """A drawn gadget with some sessions read in one direction only."""
    edge_map, preferences, _flap = draw(gadget_scenarios())
    one_way = {
        node: tuple(peer for peer in peers if draw(st.integers(0, 3)))
        for node, peers in edge_map.items()
    }
    return RankedGadgetInstance("o", one_way, preferences)


class LastResortGadget(RankedGadgetInstance):
    """A gadget in which ``n0`` offers a path of last resort while it holds
    no route itself: its ⊥ is *not* silent, so its first decision retracts an
    advertisement its readers may have been counting on."""

    def advertisement(self, importer, exporter, route):
        if route is None and exporter == "n0" and importer != self.origin:
            return Route(path=Path(("n0",)), local_pref=0)
        return super().advertisement(importer, exporter, route)


def _ebgp_instance(failed):
    """The first PEC's BGP instance of the eBGP k=4 fabric under ``failed`` links."""
    _network, pecs = _fabric()
    prefix = next(prefix for prefix, devices in pecs[0].bgp_origins if devices)
    return _explorer(pecs[0], FailureScenario.of(failed)).bgp_instance(prefix)


class TestEdgeDeltaAgainstFullScan:
    """The edge delta (``CandidateEngine._derive``) yields, on every state,
    exactly the sets a rescan of every node does — on instances the fabric
    tests above do not reach: weights that are not uniform, decided nodes that
    do go pending, sessions read one way, and deltas no search makes.  The
    floors on the states each test checks add up to 2 900."""

    def _run(self, strategy, examples, build=lambda drawn: drawn):
        """Walk ``examples`` drawn instances; returns the states checked."""
        tally = []

        @given(drawn=strategy, picks=picks, pick=st.integers(min_value=0, max_value=1_000))
        @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
        def run(drawn, picks, pick):
            instance = build(drawn)
            engine, states = _walk_checking_every_step(instance, picks)
            tally.append(len(states))
            tally.append(_check_deltas_no_search_makes(instance, engine, states, pick))

        run()
        return sum(tally)

    def test_ospf_on_random_weighted_graphs_under_failures(self):
        assert self._run(ospf_scenarios(), 150) >= 1_200

    def test_ranked_gadgets_with_drawn_preferences(self):
        """Here decided nodes *do* go pending: a node takes a path low on its
        list while the peer behind a preferred one is still undecided."""
        build = lambda drawn: RankedGadgetInstance("o", drawn[0], drawn[1])  # noqa: E731
        assert self._run(gadget_scenarios(), 200, build) >= 500
        for gadget in (bad_gadget, disagree_gadget):
            for pick in range(6):
                engine, states = _walk_checking_every_step(gadget(), [pick, pick + 1, 5, 3, 1, 0] * 3)
                # BAD GADGET never settles: somebody always wants to move on.
                went_pending = any(engine.candidates(state).decided_pending for state in states)
                assert went_pending == (gadget is bad_gadget)

    def test_sessions_read_in_one_direction_only(self):
        assert self._run(one_way_gadgets(), 100) >= 300

    def test_a_peer_that_speaks_while_it_holds_no_route(self):
        build = lambda drawn: LastResortGadget("o", drawn[0], drawn[1])  # noqa: E731
        assert self._run(gadget_scenarios(), 100, build) >= 400

    def test_ebgp_fabric_under_drawn_failures(self):
        links = st.lists(st.integers(min_value=0, max_value=31), max_size=2, unique=True)
        assert len(_ebgp_instance(()).network.topology.links) == 32
        assert self._run(links, 25, _ebgp_instance) >= 500


class TestSharedAdvertisementAgainstUnfusedComposition:
    """One ``Route`` per (speaker, held route id, edge cost), handed to every
    reader at that cost — and each reader still checked on its own: on every
    state of the drawn executions, every session's memo entry ``==`` what the
    base class composes from ``export``, loop rejection and ``import_`` on an
    instance the fused hooks never touched, ranked there."""

    def _check_states(self, engine, states, oracle, tally):
        table, names = engine._table, engine._names
        for state in states:
            for slot, reader in enumerate(names):
                for speaker, speaker_slot, memo in engine._sessions[slot]:
                    held_id = state._ids[speaker_slot]
                    entry = memo.get(held_id) or engine._miss(reader, speaker, held_id, memo)
                    held = table.route(held_id)
                    composed = PathVectorInstance.advertisement(oracle, reader, speaker, held)
                    if composed is None:
                        assert entry == (None, None)
                    else:
                        assert entry == (composed, oracle.rank(reader, composed))
                        assert entry[0] is engine.instance.advertisement_by_id(reader, speaker, held_id)
                    assert engine.instance.advertisement_direct(reader, speaker, held) == composed
                    tally["entries"] += 1
            # Per speaker: its readers at one cost hold the same object, a
            # reader on the held path holds nothing beside them.
            for slot, speaker in enumerate(names):
                held_id, by_cost, silenced = state._ids[slot], {}, 0
                if not held_id:
                    continue
                for reader, _slot, memo, _position in engine._readers[slot]:
                    advertisement = memo[held_id][0]
                    if reader in table.route(held_id).path:
                        assert advertisement is None
                        silenced += 1
                    elif advertisement is not None:
                        cost = oracle._edge_cost(reader, speaker)
                        assert by_cost.setdefault(cost, advertisement) is advertisement
                if by_cost:
                    tally["shared"] += 1
                    tally["silenced"] += silenced
                    tally["costs"] = max(tally["costs"], len(by_cost))

    def test_every_entry_equals_the_base_class_composition(self):
        tally = {"entries": 0, "silenced": 0, "shared": 0, "costs": 0}

        @given(instance=ospf_scenarios(), picks=picks)
        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        def run(instance, picks):
            peers, cost = reference_adjacency(instance.network, instance.failed_links)
            assert {node: instance.peers(node) for node in instance.nodes()} == peers
            assert instance._edge_costs == cost
            engine, states = _walk_checking_every_step(instance, picks)
            oracle = OspfInstance(instance.network, PREFIX, failed_links=instance.failed_links)
            assert oracle._advertisement_cache is not instance._advertisement_cache
            self._check_states(engine, states, oracle, tally)

        run()
        assert tally["entries"] >= 5_000 and tally["shared"] >= 1_000  # the draws give ~2.5x that
        assert tally["silenced"] >= 500  # a reader on the path, silent beside a served one
        assert tally["costs"] >= 2  # readers at different costs got different routes

    def test_a_reset_under_a_live_engine_only_costs_misses(self):
        """Two instances of one scenario, different origins, searched in
        turns: each attach empties what the other filled, and both engines go
        on answering what a rescan and the base class answer."""
        tally = {"entries": 0, "silenced": 0, "shared": 0, "costs": 0}
        topology = fat_tree(4)
        here, there = Prefix("172.16.1.0/24"), Prefix("172.16.2.0/24")
        network = ospf_everywhere(
            topology, originate_roles=(), prefix_for={"edge0_0": here, "edge2_1": there}
        )
        first = OspfInstance(network, here)
        second = OspfInstance(network, there, computation=first.computation)
        assert first._engine_host is second._engine_host
        oracles = {
            instance: OspfInstance(network, instance.prefix) for instance in (first, second)
        }
        walks = {instance: [initial_state(instance)] for instance in (first, second)}
        engines = {}
        for turn in range(12):
            instance = (first, second)[turn % 2]
            if turn % 4 < 2:
                engines[instance] = CandidateEngine(instance)  # empties the other's fill
            engine, states = engines[instance], walks[instance]
            for _step in range(3):
                state = states[-1]
                moves = engine.candidates(state).updates
                if not moves:
                    break
                node = sorted(moves)[0]
                states.append(state.with_best(node, moves[node][0][1]))
                _assert_derived_equals_full_scan(engine, states[-1])
            self._check_states(engine, states[-4:], oracles[instance], tally)
        assert tally["entries"] >= 3_000 and all(len(states) > 12 for states in walks.values())


def _ospf_search():
    network = ospf_everywhere(fat_tree(4))
    pec = next(pec for pec in compute_pecs(network) if pec.ospf_origins)
    prefix = next(prefix for prefix, devices in pec.ospf_origins if devices)
    explorer = PecExplorer(
        network, pec, FailureScenario.of([]), PlanktonOptions(),
        dependency_context=DependencyContext(),
    )
    instance = explorer.ospf_instance(prefix)
    return explorer, instance, OspfDeterminism(instance)


def _ebgp_search():
    _network, pecs = _fabric()
    explorer = _explorer(pecs[0], FailureScenario.of([]))
    prefix = next(prefix for prefix, devices in pecs[0].bgp_origins if devices)
    instance = explorer.bgp_instance(prefix)
    return explorer, instance, BgpDeterminism(instance)


class TestInternOnAdoption:
    """Advertisements are ranked as candidates and interned only when a move
    adopts one: a search's intern table grows by the routes that entered a
    state, never by the ones that were merely offered."""

    @pytest.mark.parametrize("search", [_ospf_search, _ebgp_search])
    def test_table_grows_by_exactly_the_adopted_routes(self, search):
        explorer, instance, analyzer = search()
        successors, _accepts = explorer._successor_relation(instance, analyzer)
        table = node_space_for(instance).table
        root = initial_state(instance)
        known = len(table)
        adopted, offered = set(), 0
        frontier, seen = [root], {root}
        while frontier:
            state = frontier.pop()
            for _label, child in successors(state):
                ((_slot, _old, new),) = child.delta
                adopted.add(new)
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
            offered += state._engine_cache.enabled_count
        assert len(seen) >= len(instance.nodes())
        assert set(range(known, len(table))) == {rid for rid in adopted if rid >= known}
        assert len(table) - known < len(seen) < offered


# --------------------------------------------------------------------------- memo lifetime
def _sample_engine_attaches(monkeypatch):
    """Record, at every ``CandidateEngine`` attach, the instance's origins and
    how many entries the per-edge memos of its host hold before and after."""
    samples = []
    attach = CandidateEngine.__init__

    def held(instance):
        memos = instance._engine_host.get("adv_edge", {})
        return sum(len(memo) for memo in memos.values())

    def sampled_attach(engine, instance):
        before = held(instance)
        attach(engine, instance)
        samples.append((tuple(instance.origins()), before, held(instance)))

    monkeypatch.setattr(CandidateEngine, "__init__", sampled_attach)
    return samples


class TestEngineMemoLifetime:
    """What a search fills into the shared OSPF host lives until a search over
    another origin set attaches — by count, no RSS and no clock."""

    OPTIONS = PlanktonOptions(fast_ospf=False, stop_at_first_violation=False, backend="serial")

    def test_a_finished_search_leaves_only_the_silent_entries(self, monkeypatch):
        samples = _sample_engine_attaches(monkeypatch)
        network = ospf_everywhere(fat_tree(6))
        verifier = Plankton(network, self.OPTIONS)
        result = verifier.verify(LoopFreedom())
        assert result.holds and len(samples) == result.pecs_analyzed == 18
        memos = verifier.ospf_computation.shared_filter_caches(frozenset())["engine"]["adv_edge"]
        edges = len(memos)
        assert edges == 2 * len(network.topology.links)
        after_verify = sum(len(memo) for memo in memos.values())
        # A node of a consistent execution holds one route, so one search
        # fills at most one entry per edge beside the id-0 entry.
        fills = [before for _origins, before, _after in samples[1:]] + [after_verify]
        assert all(edges < held <= 2 * edges for held in fills)
        assert len({origins for origins, _before, _after in samples}) == 18
        assert all(after == edges for _origins, _before, after in samples)
        assert all(set(memo) == {0} or len(memo) == 2 for memo in memos.values())

    def test_a_search_over_the_same_origins_fills_nothing(self, monkeypatch):
        samples = _sample_engine_attaches(monkeypatch)
        first, second, elsewhere = (Prefix(f"172.16.{n}.0/24") for n in (1, 2, 3))
        network = ospf_everywhere(
            fat_tree(4), originate_roles=(), prefix_for={"edge0_0": first, "edge1_0": elsewhere}
        )
        network.device("edge0_0").ospf.networks.append(second)
        verifier = Plankton(network, self.OPTIONS)
        result = verifier.verify(LoopFreedom())
        assert result.holds and len(samples) == 3  # the PECs in between have no origin
        memos = verifier.ospf_computation.shared_filter_caches(frozenset())["engine"]["adv_edge"]
        edges = len(memos)
        (a, _, a_after), (b, b_before, b_after), (c, c_before, c_after) = samples
        assert a == b == ("edge0_0",) and c == ("edge1_0",)
        assert a_after == edges < b_before == b_after == c_before  # kept, and nothing added
        assert c_after == edges  # another origin set: back to the id-0 entries
        # ... and the kept entries were read: every search expanded its 20 states.
        searched = [run.statistics.states_expanded for run in result.pec_runs if run.statistics]
        assert [count for count in searched if count] == [20, 20, 20]
