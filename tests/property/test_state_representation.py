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
from repro.core.successors import CandidateEngine
from repro.modelcheck.hashing import ZobristFingerprinter
from repro.policies import LoopFreedom, Reachability
from repro.protocols.base import Path, Route
from repro.protocols.rpvp import RpvpState
from repro.topology import bgp_fat_tree, fat_tree

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
