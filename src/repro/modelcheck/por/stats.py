"""Reduction accounting shared by the partial-order-reduction pipelines.

Every reduction in this reproduction — the §4.1 RPVP optimizations that live
in the verifier's successor pipeline and the SPVP ample/sleep reduction of
the transient explorer — ultimately does the same thing: at some state it
expands fewer transitions than were enabled.  :class:`ReductionStatistics`
is the common ledger for that, carried on
:class:`~repro.modelcheck.explorer.ExplorationStatistics` (RPVP searches)
and :class:`~repro.transient.explorer.TransientAnalysisResult` (SPVP
transient searches) and emitted by the benchmark rows so the reduction
ratio is visible PR-over-PR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.modelcheck.trail import document


@document()
@dataclass
class ReductionStatistics:
    """What a partial-order-reduced search did beyond exploring states.

    Attributes:
        mode: Which reduction produced these numbers (``"ample"``,
            ``"sleep"``, ``"full"`` for the transient explorer; ``"rpvp"``
            for the verifier's §4.1 successor pipeline).
        states_reduced: States expanded with a *proper subset* of their
            enabled transitions (a valid ample set, or a deterministic /
            independence-pruned RPVP step).
        states_full: States expanded with every enabled transition.
        transitions_enabled: Sum of the enabled-transition counts over all
            expansions (what a naive search would have executed).
        transitions_expanded: Transitions actually executed.
        transitions_slept: Transitions skipped because they were in the
            expanding state's sleep set (their interleaving is covered by a
            sibling branch).
        sleep_requeues: Re-expansions of an already-visited state with a
            strictly smaller sleep set (the state-matching soundness rule;
            such re-expansions never re-count the state).
        proviso_fallbacks: Ample sets abandoned at expansion time because a
            member turned out to be visible (changed a best path), widening
            the expansion back to the full enabled set.
        depth_pruned: States whose expansion was skipped by the depth bound.
        rank_immune_sessions: Sessions the activity closure stopped at
            because the static rank bound proved no importable route can
            outrank the receiver's current best (rank-bound immunity):
            summed over the states analysed, those leading from an active
            node to a receiver the closure left inactive.
    """

    mode: str = "full"
    states_reduced: int = 0
    states_full: int = 0
    transitions_enabled: int = 0
    transitions_expanded: int = 0
    transitions_slept: int = 0
    sleep_requeues: int = 0
    proviso_fallbacks: int = 0
    depth_pruned: int = 0
    rank_immune_sessions: int = 0

    # ------------------------------------------------------------------ intake
    def observe_expansion(self, enabled: int, expanded: int, reduced: bool) -> None:
        """Record one state expansion (``reduced`` = proper-subset ample)."""
        if reduced:
            self.states_reduced += 1
        else:
            self.states_full += 1
        self.transitions_enabled += enabled
        self.transitions_expanded += expanded

    # ------------------------------------------------------------------ readout
    def transition_reduction_ratio(self) -> float:
        """Enabled-to-expanded transition ratio (1.0 = no reduction)."""
        if self.transitions_expanded <= 0:
            return 1.0
        return self.transitions_enabled / self.transitions_expanded

    def as_dict(self) -> Dict[str, object]:
        """The report form: the canonical document plus the derived ratio."""
        return dict(
            self.to_dict(),
            transition_reduction_ratio=round(self.transition_reduction_ratio(), 2),
        )
