"""Tests for the explicit-state model checker: DFS, hashing, bitstate, trails."""

import pytest
from hypothesis import given, strategies as st

from repro.modelcheck import (
    BitstateFilter,
    ExplorationStatistics,
    Explorer,
    ExplorerOptions,
    Trail,
)
from repro.modelcheck.hashing import VisitedSet


def chain_successors(length):
    """A linear chain 0 -> 1 -> ... -> length (single terminal state)."""

    def successors(state):
        if state >= length:
            return []
        return [("step", state + 1)]

    return successors


def binary_tree_successors(depth):
    """A binary tree of the given depth; leaves are terminal."""

    def successors(state):
        level, _index = state
        if level >= depth:
            return []
        return [("L", (level + 1, _index * 2)), ("R", (level + 1, _index * 2 + 1))]

    return successors


def search(successors, initial, check_terminal=None, canonicalize=None, **options):
    """One search from ``initial``: its statistics and the converged states
    reached, in order, each with the labels of the path to it."""
    converged = []

    def record(state, labels):
        converged.append((state, labels))
        return check_terminal(state, labels) if check_terminal is not None else None

    statistics = ExplorationStatistics()
    explorer = Explorer(successors, record, canonicalize, ExplorerOptions(**options))
    explorer.run(initial, statistics)
    return statistics, converged


class TestExplorer:
    def test_explores_chain(self):
        statistics, converged = search(chain_successors(10), 0)
        assert statistics.unique_states == 11
        assert converged == [(10, ["step"] * 10)]

    def test_explores_tree_and_counts_terminals(self):
        statistics, converged = search(binary_tree_successors(4), (0, 0))
        assert statistics.terminal_states == 16
        assert len(converged) == 16

    def test_deduplicates_converging_paths(self):
        # A diamond: two paths to the same terminal state.
        def successors(state):
            if state == "start":
                return [("a", "mid_a"), ("b", "mid_b")]
            if state in ("mid_a", "mid_b"):
                return [("join", "end")]
            return []

        statistics, converged = search(successors, "start")
        assert statistics.terminal_states == 1
        assert statistics.unique_states == 4
        assert converged == [("end", ["a", "join"])]

    def test_violation_stops_search(self):
        def check_terminal(state, labels):
            return "bad leaf" if state[1] == 0 else None

        statistics, converged = search(binary_tree_successors(3), (0, 0), check_terminal)
        assert converged == [((3, 0), ["L", "L", "L"])]
        assert statistics.terminal_states == 1

    def test_search_goes_on_while_the_check_answers_none(self):
        def check_terminal(state, labels):
            return "bad" if state[1] == 7 else None

        statistics, converged = search(binary_tree_successors(3), (0, 0), check_terminal)
        assert [state[1] for state, _labels in converged] == list(range(8))
        assert statistics.terminal_states == 8

    def test_state_budget_truncates(self):
        statistics, _converged = search(chain_successors(1000), 0, max_states=10)
        assert statistics.truncated
        assert statistics.states_expanded == 10

    def test_canonicalizer_merges_equivalent_states(self):
        # States are (value, irrelevant); canonicalize on value only.
        def successors(state):
            value, noise = state
            if value >= 3:
                return []
            return [("x", (value + 1, noise + 1)), ("y", (value + 1, noise + 2))]

        statistics, _converged = search(successors, (0, 0), canonicalize=lambda state: state[0])
        assert statistics.unique_states == 4

    def test_path_labels_render_through_describe(self):
        class Step:
            def describe(self):
                return "custom description"

        def successors(state):
            return [] if state else [(Step(), True)]

        _statistics, ((state, labels),) = search(successors, False)
        trail = Trail(policy="p", pec_description="d")
        trail.add_labels("rpvp-step", labels)
        assert state is True
        assert "custom description" in trail.render()

    def test_initial_state_terminal(self):
        statistics, converged = search(lambda state: [], "only")
        assert converged == [("only", [])]
        assert statistics.terminal_states == statistics.unique_states == 1

    def test_runs_add_into_the_callers_statistics(self):
        """The searches of one run share one record: counts add up, the
        greatest depth is kept and one truncated search marks the record."""
        statistics = ExplorationStatistics()
        Explorer(chain_successors(3)).run(0, statistics)
        Explorer(binary_tree_successors(2)).run((0, 0), statistics)
        assert statistics.unique_states == 4 + 7
        assert statistics.states_expanded == 4 + 7
        assert statistics.transitions == 3 + 6
        assert statistics.terminal_states == 1 + 4
        assert statistics.max_depth_reached == 3
        assert not statistics.truncated
        Explorer(chain_successors(10), options=ExplorerOptions(max_states=2)).run(0, statistics)
        assert statistics.truncated and statistics.max_depth_reached == 3


class TestBitstate:
    def test_second_add_reports_possibly_seen(self):
        bloom = BitstateFilter(bits=1 << 12)
        assert not bloom.add(12345)
        assert bloom.add(12345)

    def test_memory_smaller_than_exact(self):
        exact = VisitedSet()
        bloom = VisitedSet(BitstateFilter(bits=1 << 12))
        for value in range(5000):
            exact.add(value)
            bloom.add(value)
        assert bloom.approximate_bytes() < exact.approximate_bytes()

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            BitstateFilter(bits=0)

    @given(st.sets(st.integers(min_value=0, max_value=1 << 40), min_size=1, max_size=200))
    def test_no_false_negatives(self, values):
        bloom = BitstateFilter(bits=1 << 16)
        for value in values:
            bloom.add(value)
        assert all(bloom.add(value) for value in values)  # each reads as seen


class TestTrail:
    def test_render_contains_steps_and_violation(self):
        trail = Trail(policy="reachability", pec_description="PEC#1")
        trail.add("failure", "link a--b failed")
        trail.add("rpvp-step", "r1 selects a path")
        trail.violation_description = "traffic dropped"
        text = trail.render()
        assert "reachability" in text
        assert "link a--b failed" in text
        assert "traffic dropped" in text

    def test_empty_trail_renders_deterministic_note(self):
        trail = Trail(policy="p", pec_description="d")
        assert "deterministic" in trail.render()
