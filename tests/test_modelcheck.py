"""Tests for the explicit-state model checker: DFS, hashing, bitstate, trails."""

import pytest
from hypothesis import given, strategies as st

from repro.modelcheck import (
    BitstateFilter,
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


class TestExplorer:
    def test_explores_chain(self):
        explorer = Explorer(successors=chain_successors(10))
        outcome = explorer.run(0, collect_converged=True)
        assert outcome.statistics.unique_states == 11
        assert outcome.converged_states == [10]
        assert outcome.converged_paths == [["step"] * 10]

    def test_explores_tree_and_counts_terminals(self):
        explorer = Explorer(successors=binary_tree_successors(4))
        outcome = explorer.run((0, 0), collect_converged=True)
        assert outcome.statistics.unique_terminal_states == 16
        assert len(outcome.converged_states) == 16

    def test_deduplicates_converging_paths(self):
        # A diamond: two paths to the same terminal state.
        def successors(state):
            if state == "start":
                return [("a", "mid_a"), ("b", "mid_b")]
            if state in ("mid_a", "mid_b"):
                return [("join", "end")]
            return []

        explorer = Explorer(successors=successors)
        outcome = explorer.run("start", collect_converged=True)
        assert outcome.statistics.unique_terminal_states == 1
        assert outcome.statistics.unique_states == 4

    def test_violation_stops_search(self):
        def check_terminal(state, labels):
            return "bad leaf" if state[1] == 0 else None

        explorer = Explorer(
            successors=binary_tree_successors(3),
            check_terminal=check_terminal,
            options=ExplorerOptions(stop_at_first_violation=True),
        )
        outcome = explorer.run((0, 0))
        assert not outcome.holds
        assert outcome.statistics.violations == 1
        assert outcome.statistics.terminal_states < 8

    def test_collect_all_violations(self):
        def check_terminal(state, labels):
            return "bad" if state[1] % 2 == 0 else None

        explorer = Explorer(
            successors=binary_tree_successors(3),
            check_terminal=check_terminal,
            options=ExplorerOptions(stop_at_first_violation=False),
        )
        outcome = explorer.run((0, 0))
        assert outcome.statistics.violations == 4

    def test_state_budget_truncates(self):
        explorer = Explorer(
            successors=chain_successors(1000),
            options=ExplorerOptions(max_states=10),
        )
        outcome = explorer.run(0)
        assert outcome.statistics.truncated

    def test_canonicalizer_merges_equivalent_states(self):
        # States are (value, irrelevant); canonicalize on value only.
        def successors(state):
            value, noise = state
            if value >= 3:
                return []
            return [("x", (value + 1, noise + 1)), ("y", (value + 1, noise + 2))]

        explorer = Explorer(
            successors=successors,
            canonicalize=lambda state: state[0],
        )
        outcome = explorer.run((0, 0))
        assert outcome.statistics.unique_states == 4

    def test_trail_labels_use_describe(self):
        class Step:
            def describe(self):
                return "custom description"

        def successors(state):
            return [] if state else [(Step(), True)]

        explorer = Explorer(
            successors=successors,
            check_terminal=lambda state, labels: "violated",
        )
        outcome = explorer.run(False)
        assert "custom description" in outcome.violations[0].render()

    def test_initial_state_terminal(self):
        explorer = Explorer(successors=lambda s: [], check_terminal=lambda s, l: None)
        outcome = explorer.run("only", collect_converged=True)
        assert outcome.converged_states == ["only"]


class TestBitstate:
    def test_add_and_contains(self):
        bloom = BitstateFilter(bits=1 << 12)
        assert not bloom.add(12345)
        assert bloom.contains(12345)
        assert bloom.add(12345)  # second add reports "possibly seen"

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

    def test_coverage_estimate_bounds(self):
        bloom = BitstateFilter(bits=1 << 16)
        for value in range(1000):
            bloom.add(value)
        assert 0.0 <= bloom.estimated_coverage() <= 1.0

    @given(st.sets(st.integers(min_value=0, max_value=1 << 40), min_size=1, max_size=200))
    def test_no_false_negatives(self, values):
        bloom = BitstateFilter(bits=1 << 16)
        for value in values:
            bloom.add(value)
        assert all(bloom.contains(value) for value in values)


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

    def test_write_to_file(self, tmp_path):
        trail = Trail(policy="loop-freedom", pec_description="PEC#2")
        trail.add("note", "hello")
        target = tmp_path / "trail.txt"
        trail.write(str(target))
        assert "loop-freedom" in target.read_text()

    def test_empty_trail_renders_deterministic_note(self):
        trail = Trail(policy="p", pec_description="d")
        assert "deterministic" in trail.render()
